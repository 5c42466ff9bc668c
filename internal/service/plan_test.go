package service

import (
	"errors"
	"math"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/goldrec/goldrec"
)

// variantCSV is a second clustered fixture with different group sizes
// than paperCSV, so cross-dataset plans have distinct gains to rank.
const variantCSV = `key,Title,Venue
B1,Intro to DB,Proc. of VLDB
B1,Introduction to DB,Proceedings of VLDB
B1,Intro to DB,Proc. of VLDB
B2,Query Opt,Proc. of SIGMOD
B2,Query Opt,Proceedings of SIGMOD
B2,Query Optimization,Proc. of SIGMOD
`

// planFixture uploads the given CSVs, opens one session per named
// column, and waits until every session's group stream is exhausted
// with all groups still pending — the only state in which a plan is
// deterministic.
type planSession struct {
	dataset DatasetInfo
	session SessionInfo
}

func planFixture(t *testing.T, svc *Service, uploads map[string]string, columns map[string][]string) []planSession {
	t.Helper()
	var out []planSession
	for name, csv := range uploads {
		ds, err := svc.As("").CreateDataset(name, "key", "", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range columns[name] {
			sess, err := svc.As("").OpenSession(ds.ID, col)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, planSession{dataset: ds, session: sess})
		}
	}
	for _, ps := range out {
		st := quiesce(t, svc, ps.session.ID, 1<<20)
		if !st.Exhausted {
			t.Fatalf("session %s not exhausted", ps.session.ID)
		}
	}
	return out
}

var planUploads = map[string]string{"alpha": paperCSV, "beta": variantCSV}
var planColumns = map[string][]string{
	"alpha": {"Name", "Address"},
	"beta":  {"Title", "Venue"},
}

// TestPlanGreedyMatchesBruteForce: picking N independent groups to
// maximize total expected gain is solved exactly by the greedy top-N;
// verify the planner against an exhaustive subset search on the real
// fixture.
func TestPlanGreedyMatchesBruteForce(t *testing.T) {
	svc := New(Options{Prefetch: 1 << 20, Shards: 4})
	defer svc.Close()
	planFixture(t, svc, planUploads, planColumns)

	// The full candidate pool: plan with an unbounded budget.
	all, err := svc.As("").Plan(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var gains []float64
	for _, c := range all.Columns {
		for _, g := range c.Groups {
			gains = append(gains, g.Gain)
		}
	}
	if len(gains) < 4 {
		t.Fatalf("fixture too small: %d pending groups", len(gains))
	}
	// Truncating the pool must keep the global top groups, or the
	// brute force would be blind to groups the planner rightly picks:
	// sort descending first, then cap the 2^n search.
	sort.Sort(sort.Reverse(sort.Float64Slice(gains)))
	if len(gains) > 20 {
		gains = gains[:20]
	}

	for _, budget := range []int{1, 2, 3, len(gains) / 2} {
		plan, err := svc.As("").Plan(budget)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Allocated != budget {
			t.Fatalf("budget %d: allocated %d", budget, plan.Allocated)
		}
		best := bruteForceBestGain(gains, budget)
		if math.Abs(plan.Gain-best) > 1e-9 {
			t.Errorf("budget %d: greedy gain %v, brute-force optimum %v", budget, plan.Gain, best)
		}
	}
}

// bruteForceBestGain maximizes total gain over all k-subsets.
func bruteForceBestGain(gains []float64, k int) float64 {
	n := len(gains)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		picked, sum := 0, 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				picked++
				sum += gains[i]
			}
		}
		if picked == k && sum > best {
			best = sum
		}
	}
	return best
}

// TestPlanAllocation: the plan spends exactly the budget when enough
// groups are pending, everything when not, and its ranking is
// globally non-increasing in gain with consistent totals.
func TestPlanAllocation(t *testing.T) {
	svc := New(Options{Prefetch: 1 << 20, Shards: 2})
	defer svc.Close()
	planFixture(t, svc, planUploads, planColumns)

	full, err := svc.As("").Plan(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if full.Allocated != full.Pending {
		t.Fatalf("unbounded plan allocated %d of %d pending", full.Allocated, full.Pending)
	}
	if full.Pending < 4 {
		t.Fatalf("fixture too small: %d pending", full.Pending)
	}

	budget := full.Pending / 2
	plan, err := svc.As("").Plan(budget)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Allocated != budget || plan.Budget != budget {
		t.Fatalf("allocated %d, budget %d, want both %d", plan.Allocated, plan.Budget, budget)
	}
	if plan.Pending != full.Pending {
		t.Errorf("pending %d, want %d", plan.Pending, full.Pending)
	}
	count, gainSum := 0, 0.0
	var flat []float64
	for _, c := range plan.Columns {
		if c.Budget != len(c.Groups) {
			t.Errorf("column %s/%s budget %d != %d groups", c.Dataset, c.Column, c.Budget, len(c.Groups))
		}
		colGain := 0.0
		for i, g := range c.Groups {
			if i > 0 && g.Gain > c.Groups[i-1].Gain {
				t.Errorf("column %s/%s group order not by gain: %v after %v", c.Dataset, c.Column, g.Gain, c.Groups[i-1].Gain)
			}
			colGain += g.Gain
			flat = append(flat, g.Gain)
		}
		if math.Abs(colGain-c.Gain) > 1e-9 {
			t.Errorf("column %s/%s gain %v != sum %v", c.Dataset, c.Column, c.Gain, colGain)
		}
		count += c.Budget
		gainSum += c.Gain
	}
	if count != budget {
		t.Errorf("columns sum to %d groups, want %d", count, budget)
	}
	if math.Abs(gainSum-plan.Gain) > 1e-9 {
		t.Errorf("plan gain %v != column sum %v", plan.Gain, gainSum)
	}
	// The selection is the top-`budget` slice of the full ranking: no
	// unselected group may out-gain a selected one.
	minSelected := math.Inf(1)
	for _, g := range flat {
		minSelected = math.Min(minSelected, g)
	}
	skipped := 0
	for _, c := range full.Columns {
		for _, g := range c.Groups {
			if g.Gain > minSelected+1e-9 {
				skipped++
			}
		}
	}
	if skipped > budget {
		t.Errorf("%d groups out-gain the selection floor %v with budget %d", skipped, minSelected, budget)
	}
}

// TestPlanStableAcrossShards: the plan is a pure function of the
// sessions' review state — registry shard count and iteration order
// must not leak into it.
func TestPlanStableAcrossShards(t *testing.T) {
	type key struct {
		Dataset string
		Column  string
	}
	plans := make(map[int]map[key]PlanColumn)
	orders := make(map[int][]key)
	for _, shards := range []int{1, 16} {
		svc := New(Options{Prefetch: 1 << 20, Shards: shards})
		planFixture(t, svc, planUploads, planColumns)
		plan, err := svc.As("").Plan(7)
		if err != nil {
			t.Fatal(err)
		}
		byKey := make(map[key]PlanColumn)
		for _, c := range plan.Columns {
			k := key{c.Dataset, c.Column}
			orders[shards] = append(orders[shards], k)
			c.SessionID, c.DatasetID = "", "" // randomly assigned; not comparable
			byKey[k] = c
		}
		plans[shards] = byKey
		svc.Close()
	}
	if !reflect.DeepEqual(orders[1], orders[16]) {
		t.Fatalf("column order differs: shards=1 %v, shards=16 %v", orders[1], orders[16])
	}
	if !reflect.DeepEqual(plans[1], plans[16]) {
		t.Fatalf("plans differ across shard counts:\nshards=1:  %+v\nshards=16: %+v", plans[1], plans[16])
	}
}

// TestPlanDatasetScope: the per-dataset planner only spends budget on
// that dataset's sessions, and unknown datasets 404.
func TestPlanDatasetScope(t *testing.T) {
	svc := New(Options{Prefetch: 1 << 20})
	defer svc.Close()
	sessions := planFixture(t, svc, planUploads, planColumns)

	var alphaID string
	for _, ps := range sessions {
		if ps.dataset.Name == "alpha" {
			alphaID = ps.dataset.ID
		}
	}
	plan, err := svc.As("").PlanDataset(alphaID, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Columns) == 0 {
		t.Fatal("empty dataset plan")
	}
	for _, c := range plan.Columns {
		if c.DatasetID != alphaID {
			t.Errorf("dataset plan includes foreign column %s/%s", c.DatasetID, c.Column)
		}
	}
	global, err := svc.As("").Plan(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Pending >= global.Pending {
		t.Errorf("dataset plan considered %d groups, global %d — scope did not narrow", plan.Pending, global.Pending)
	}
	if _, err := svc.As("").PlanDataset("ds_nope", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown dataset: %v, want ErrNotFound", err)
	}
	if _, err := svc.As("").Plan(0); err == nil {
		t.Error("non-positive budget accepted")
	}
}

// TestPlanReflectsDecisionHistory: rejections shrink a session's
// approve rate, so its pending groups lose rank against an untouched
// session — the Sun et al. behavior the planner exists for.
func TestPlanReflectsDecisionHistory(t *testing.T) {
	svc := New(Options{Prefetch: 1 << 20})
	defer svc.Close()
	sessions := planFixture(t, svc, planUploads, planColumns)

	var victim planSession
	for _, ps := range sessions {
		if ps.session.Column == "Name" {
			victim = ps
		}
	}
	before, err := svc.As("").Plan(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	rateOf := func(p BudgetPlan, sid string) (float64, bool) {
		for _, c := range p.Columns {
			if c.SessionID == sid {
				return c.ApproveRate, true
			}
		}
		return 0, false
	}
	r0, ok := rateOf(before, victim.session.ID)
	if !ok || r0 != 0.5 {
		t.Fatalf("fresh approve rate = %v (found %v), want 0.5", r0, ok)
	}

	// Reject two of the victim's groups; its prior must drop.
	for i := 0; i < 2; i++ {
		id, ok := nextUndecided(t, svc, victim.session.ID)
		if !ok {
			t.Fatal("victim ran out of groups")
		}
		if _, err := svc.As("").Decide(victim.session.ID, id, goldrec.Rejected); err != nil {
			t.Fatal(err)
		}
	}
	after, err := svc.As("").Plan(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	r1, ok := rateOf(after, victim.session.ID)
	if !ok || r1 >= r0 {
		t.Fatalf("approve rate after 2 rejections = %v (found %v), want < %v", r1, ok, r0)
	}
	// The page annotations agree with the plan's numbers.
	page, _, _, err := svc.As("").waitPage("", victim.session.ID, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if page.ApproveRate != r1 {
		t.Errorf("page approve rate %v != plan %v", page.ApproveRate, r1)
	}
	for _, g := range page.Groups {
		if g.Gain != float64(g.Sites)*r1 {
			t.Errorf("group %d gain %v != sites %d × rate %v", g.ID, g.Gain, g.Sites, r1)
		}
	}
}

// TestPlanHTTP drives the planner endpoints through the handler,
// including the budget validation and the dataset-scoped variant.
func TestPlanHTTP(t *testing.T) {
	svc, ts := newTestServer(t, Options{Prefetch: 1 << 20})
	sessions := planFixture(t, svc, map[string]string{"alpha": paperCSV}, map[string][]string{"alpha": {"Name"}})
	dsID := sessions[0].dataset.ID

	var plan BudgetPlan
	if status := doJSON(t, "GET", ts.URL+"/v1/plan?budget=2", nil, &plan); status != http.StatusOK {
		t.Fatalf("plan: status %d", status)
	}
	if plan.Allocated == 0 || plan.Allocated > 2 {
		t.Fatalf("plan allocated %d with budget 2", plan.Allocated)
	}
	if status := doJSON(t, "GET", ts.URL+"/v1/datasets/"+dsID+"/plan?budget=2", nil, &plan); status != http.StatusOK {
		t.Fatalf("dataset plan: status %d", status)
	}
	for _, bad := range []string{"", "?budget=0", "?budget=-3", "?budget=x"} {
		if status := doJSON(t, "GET", ts.URL+"/v1/plan"+bad, nil, nil); status != http.StatusBadRequest {
			t.Errorf("budget %q: status %d, want 400", bad, status)
		}
	}
	if status := doJSON(t, "GET", ts.URL+"/v1/datasets/ds_nope/plan?budget=1", nil, nil); status != http.StatusNotFound {
		t.Errorf("unknown dataset plan: status %d, want 404", status)
	}
}

// TestRecoverGainRoundTrip: the gain fields (approve-rate prior,
// per-group sites and gain) are derived state, so WAL replay must
// reproduce them exactly — a recovered planner ranks identically to
// the pre-crash one.
func TestRecoverGainRoundTrip(t *testing.T) {
	dir := storeDir(t)
	const prefetch = 1 << 20
	svc := bootService(t, dir, prefetch)
	ds, err := svc.As("").CreateDataset("gain", "key", "", strings.NewReader(paperCSV))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.As("").OpenSession(ds.ID, "Name")
	if err != nil {
		t.Fatal(err)
	}
	// Two rejections push the prior to 0.25, away from the 0.5 default
	// (one approve + one reject would land Laplace back on 0.5).
	for i := 0; i < 2; i++ {
		id, ok := nextUndecided(t, svc, sess.ID)
		if !ok {
			t.Fatal("stream too short")
		}
		if _, err := svc.As("").Decide(sess.ID, id, goldrec.Rejected); err != nil {
			t.Fatal(err)
		}
	}
	before := quiesce(t, svc, sess.ID, prefetch)
	if before.ApproveRate == 0.5 {
		t.Fatalf("approve rate still at the default prior; fixture decided nothing")
	}
	planBefore, err := svc.As("").Plan(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	killService(svc)

	svc2 := bootService(t, dir, prefetch)
	defer killService(svc2)
	after := quiesce(t, svc2, sess.ID, prefetch)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("review state did not round-trip:\nbefore: %+v\nafter:  %+v", before, after)
	}
	planAfter, err := svc2.As("").Plan(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	planBefore.Columns[0].SessionID, planAfter.Columns[0].SessionID = "", ""
	planBefore.Columns[0].DatasetID, planAfter.Columns[0].DatasetID = "", ""
	if !reflect.DeepEqual(planBefore, planAfter) {
		t.Errorf("plan did not round-trip:\nbefore: %+v\nafter:  %+v", planBefore, planAfter)
	}
	hasGain := false
	for _, g := range after.Groups {
		if g.Decision == goldrec.Pending && g.Gain > 0 {
			hasGain = true
		}
	}
	if !hasGain {
		t.Error("no pending group carries a positive gain after recovery")
	}
}
