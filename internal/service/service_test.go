package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/tenant"
)

// paperCSV is Table 1 of the paper as a clustered CSV (the key column
// stands in for the upstream entity-resolution output).
const paperCSV = `key,Name,Address
C1,Mary Lee,"9 St, 02141 Wisconsin"
C1,M. Lee,"9th St, 02141 WI"
C1,"Lee, Mary","9 Street, 02141 WI"
C2,"Smith, James","5th St, 22701 California"
C2,James Smith,"3rd E Ave, 33990 California"
C2,J. Smith,"3 E Avenue, 33990 CA"
`

// testAuth reruns the whole HTTP suite through the auth middleware:
// with GOLDREC_TEST_AUTH=1, newTestServer enables multi-tenancy and
// doJSON authenticates every request with the bootstrap admin key
// (unscoped, so the suite's expectations are unchanged while every
// request exercises key extraction, hashing and principal routing).
// CI runs the suite in both modes.
var testAuth = os.Getenv("GOLDREC_TEST_AUTH") == "1"

const testAdminKey = "goldrec-test-admin-key-0123456789abcdef"

func newTestServer(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	if testAuth && opts.Tenants == nil {
		reg, err := tenant.Open(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		opts.Tenants = reg
		opts.AdminKey = testAdminKey
	}
	svc := New(opts)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// doJSON performs a request and decodes the JSON response into out
// (skipped when out is nil), returning the status code. In auth-on
// suite mode every request carries the admin key; servers running with
// auth off ignore it.
func doJSON(t *testing.T, method, url string, body io.Reader, out any) int {
	t.Helper()
	status, err := requestJSON(method, url, body, out)
	if err != nil {
		t.Fatal(err)
	}
	return status
}

// requestJSON is doJSON reporting failures as an error, for goroutines
// other than the test's own.
func requestJSON(method, url string, body io.Reader, out any) (int, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, err
	}
	if testAuth {
		req.Header.Set("Authorization", "Bearer "+testAdminKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return 0, fmt.Errorf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, nil
}

func uploadPaperDataset(t *testing.T, base string) DatasetInfo {
	t.Helper()
	var info DatasetInfo
	status := doJSON(t, "POST", base+"/v1/datasets?name=paper&key=key", strings.NewReader(paperCSV), &info)
	if status != http.StatusCreated {
		t.Fatalf("create dataset: status %d", status)
	}
	return info
}

func openSession(t *testing.T, base, dsID, column string) SessionInfo {
	t.Helper()
	var info SessionInfo
	body := fmt.Sprintf(`{"column":%q}`, column)
	status := doJSON(t, "POST", base+"/v1/datasets/"+dsID+"/sessions", strings.NewReader(body), &info)
	if status != http.StatusCreated {
		t.Fatalf("open session on %q: status %d", column, status)
	}
	return info
}

// nextGroup long-polls until an undecided group is available; ok is
// false once the session is exhausted.
func nextGroup(t *testing.T, base, sid string) (goldrec.GroupState, bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var page GroupPage
		status := doJSON(t, "GET", base+"/v1/sessions/"+sid+"/groups?limit=1&wait=true", nil, &page)
		if status != http.StatusOK {
			t.Fatalf("fetch groups: status %d", status)
		}
		if len(page.Groups) > 0 {
			return page.Groups[0], true
		}
		if page.Status == StatusExhausted {
			return goldrec.GroupState{}, false
		}
	}
	t.Fatalf("session %s: no group within deadline", sid)
	return goldrec.GroupState{}, false
}

func decide(t *testing.T, base, sid string, groupID int, decision string) (DecisionResult, int) {
	t.Helper()
	var res DecisionResult
	body := fmt.Sprintf(`{"group_id":%d,"decision":%q}`, groupID, decision)
	status := doJSON(t, "POST", base+"/v1/sessions/"+sid+"/decisions", strings.NewReader(body), &res)
	return res, status
}

// TestFullReviewLoop drives the whole API surface once: upload, open a
// column session, review groups with forward, backward and reject
// decisions, read state and stats, export golden records both ways.
func TestFullReviewLoop(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ds := uploadPaperDataset(t, ts.URL)
	if len(ds.Attrs) != 2 || ds.Attrs[0] != "Name" || ds.Attrs[1] != "Address" {
		t.Fatalf("attrs = %v", ds.Attrs)
	}
	if ds.Clusters != 2 || ds.Records != 6 {
		t.Fatalf("clusters=%d records=%d", ds.Clusters, ds.Records)
	}

	sess := openSession(t, ts.URL, ds.ID, "Name")
	if sess.Column != "Name" || sess.DatasetID != ds.ID {
		t.Fatalf("session info = %+v", sess)
	}

	// Review the stream: approve the first group forward, the second
	// backward, reject the rest.
	decisions := []string{"approve", "approve-backward"}
	reviewed, applied := 0, 0
	for {
		g, ok := nextGroup(t, ts.URL, sess.ID)
		if !ok {
			break
		}
		want := "reject"
		if reviewed < len(decisions) {
			want = decisions[reviewed]
		}
		res, status := decide(t, ts.URL, sess.ID, g.ID, want)
		if status != http.StatusOK {
			t.Fatalf("decision %q on group %d: status %d", want, g.ID, status)
		}
		if res.GroupID != g.ID {
			t.Fatalf("decision echoed group %d, want %d", res.GroupID, g.ID)
		}
		if res.Applied.CellsChanged > 0 {
			applied++
		}
		reviewed++
	}
	if reviewed < 3 {
		t.Fatalf("reviewed only %d groups", reviewed)
	}
	if applied == 0 {
		t.Fatal("no decision changed any cells")
	}

	// The review state records every decision.
	var st goldrec.ReviewState
	if status := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID+"/state", nil, &st); status != http.StatusOK {
		t.Fatalf("state: status %d", status)
	}
	if !st.Exhausted || st.Column != "Name" || len(st.Groups) != reviewed {
		t.Fatalf("state = exhausted=%v column=%q groups=%d, want exhausted over %d groups",
			st.Exhausted, st.Column, len(st.Groups), reviewed)
	}
	var decided int
	for _, g := range st.Groups {
		if g.Decision != goldrec.Pending {
			decided++
		}
	}
	if decided != reviewed {
		t.Fatalf("state has %d decided groups, want %d", decided, reviewed)
	}

	// Session info reflects the counters and the exhausted status.
	var info SessionInfo
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID, nil, &info)
	if info.Status != StatusExhausted {
		t.Fatalf("status = %q", info.Status)
	}
	if info.Stats.GroupsSeen != reviewed {
		t.Fatalf("stats.GroupsSeen = %d, want %d", info.Stats.GroupsSeen, reviewed)
	}

	// Golden export, JSON and CSV.
	var golden ExportData
	if status := doJSON(t, "GET", ts.URL+"/v1/datasets/"+ds.ID+"/golden", nil, &golden); status != http.StatusOK {
		t.Fatalf("golden: status %d", status)
	}
	if len(golden.Records) != 2 {
		t.Fatalf("golden records = %d, want 2 (one per cluster)", len(golden.Records))
	}
	csvReq, err := http.NewRequest("GET", ts.URL+"/v1/datasets/"+ds.ID+"/golden?format=csv", nil)
	if err != nil {
		t.Fatal(err)
	}
	if testAuth {
		csvReq.Header.Set("Authorization", "Bearer "+testAdminKey)
	}
	resp, err := http.DefaultClient.Do(csvReq)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("golden csv content-type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "key,Name,Address") {
		t.Fatalf("golden csv = %q", raw)
	}

	// Standardized records export returns all six rows.
	var records ExportData
	doJSON(t, "GET", ts.URL+"/v1/datasets/"+ds.ID+"/records", nil, &records)
	if len(records.Records) != 6 {
		t.Fatalf("records export = %d rows, want 6", len(records.Records))
	}
}

// TestConcurrentColumns reviews both columns of one dataset from two
// concurrent clients while a third client polls stats and exports
// golden records mid-review. Run with -race.
func TestConcurrentColumns(t *testing.T) {
	_, ts := newTestServer(t, Options{Prefetch: 2})
	ds := uploadPaperDataset(t, ts.URL)

	columns := []string{"Name", "Address"}
	var wg sync.WaitGroup
	errs := make(chan error, len(columns)+1)
	for i, col := range columns {
		wg.Add(1)
		go func(i int, col string) {
			defer wg.Done()
			var sess SessionInfo
			body := fmt.Sprintf(`{"column":%q}`, col)
			if status := doJSON(t, "POST", ts.URL+"/v1/datasets/"+ds.ID+"/sessions", strings.NewReader(body), &sess); status != http.StatusCreated {
				errs <- fmt.Errorf("open %q: status %d", col, status)
				return
			}
			reviewed := 0
			for {
				g, ok := nextGroup(t, ts.URL, sess.ID)
				if !ok {
					break
				}
				decision := "approve"
				if reviewed%2 == i%2 {
					decision = "reject"
				}
				if _, status := decide(t, ts.URL, sess.ID, g.ID, decision); status != http.StatusOK {
					errs <- fmt.Errorf("%q group %d: status %d", col, g.ID, status)
					return
				}
				reviewed++
			}
			if reviewed == 0 {
				errs <- fmt.Errorf("%q: no groups reviewed", col)
			}
		}(i, col)
	}
	// Concurrent reader: golden export must serialize against applies
	// without torn reads, and budget planning must read pending buffers
	// mid-review without disturbing either column.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 5; k++ {
			var golden ExportData
			if status := doJSON(t, "GET", ts.URL+"/v1/datasets/"+ds.ID+"/golden", nil, &golden); status != http.StatusOK {
				errs <- fmt.Errorf("golden mid-review: status %d", status)
				return
			}
			if len(golden.Records) != 2 {
				errs <- fmt.Errorf("golden mid-review: %d records", len(golden.Records))
				return
			}
			var plan BudgetPlan
			if status := doJSON(t, "GET", ts.URL+"/v1/plan?budget=3", nil, &plan); status != http.StatusOK {
				errs <- fmt.Errorf("plan mid-review: status %d", status)
				return
			}
			if plan.Allocated > 3 || plan.Allocated > plan.Pending {
				errs <- fmt.Errorf("plan mid-review: allocated %d of %d pending", plan.Allocated, plan.Pending)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var list struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	doJSON(t, "GET", ts.URL+"/v1/sessions", nil, &list)
	if len(list.Sessions) != 2 {
		t.Fatalf("live sessions = %d, want 2", len(list.Sessions))
	}
	for _, s := range list.Sessions {
		if s.Status != StatusExhausted {
			t.Errorf("session %s (%s) status = %q, want exhausted", s.ID, s.Column, s.Status)
		}
	}
}

// evictAll sweeps every shard of svc as its janitors would, and
// reports how many datasets and sessions went.
func evictAll(svc *Service) (datasetsEvicted, sessionsEvicted int) {
	for i := 0; i < svc.opts.Shards; i++ {
		ds, cs := svc.evictExpiredShard(i)
		datasetsEvicted += ds
		sessionsEvicted += cs
	}
	return datasetsEvicted, sessionsEvicted
}

// TestTTLEviction drives the idle-eviction path with a fake clock:
// touched entries survive, idle ones go, and a dataset takes its
// sessions with it.
func TestTTLEviction(t *testing.T) {
	fc := newFakeClock(time.Unix(1700000000, 0))
	// JanitorInterval is far beyond every Advance below: the test calls
	// evictAll directly and asserts exact counts, which a janitor
	// tick racing in from the shared fake clock would steal.
	svc, ts := newTestServer(t, Options{TTL: time.Minute, JanitorInterval: 24 * time.Hour, clock: fc})

	ds := uploadPaperDataset(t, ts.URL)
	sess := openSession(t, ts.URL, ds.ID, "Name")

	// Accessing the session keeps both it and its dataset alive.
	fc.Advance(45 * time.Second)
	if status := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID, nil, nil); status != http.StatusOK {
		t.Fatalf("touch session: status %d", status)
	}
	fc.Advance(45 * time.Second)
	if d, c := evictAll(svc); d != 0 || c != 0 {
		t.Fatalf("evicted %d datasets, %d sessions after touch", d, c)
	}

	// 90 idle seconds later both are gone, the session via its dataset.
	fc.Advance(90 * time.Second)
	if d, c := evictAll(svc); d != 1 || c != 1 {
		t.Fatalf("evicted %d datasets, %d sessions, want 1 and 1", d, c)
	}
	if status := doJSON(t, "GET", ts.URL+"/v1/datasets/"+ds.ID, nil, nil); status != http.StatusNotFound {
		t.Fatalf("evicted dataset: status %d", status)
	}
	if status := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID, nil, nil); status != http.StatusNotFound {
		t.Fatalf("evicted session: status %d", status)
	}
}

// TestErrorPaths exercises the HTTP error mapping.
func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxSessions: 1})

	if status := doJSON(t, "GET", ts.URL+"/v1/datasets/ds_nope", nil, nil); status != http.StatusNotFound {
		t.Errorf("unknown dataset: status %d", status)
	}
	if status := doJSON(t, "POST", ts.URL+"/v1/datasets?name=x", strings.NewReader(paperCSV), nil); status != http.StatusBadRequest {
		t.Errorf("missing key param: status %d", status)
	}
	if status := doJSON(t, "POST", ts.URL+"/v1/datasets?key=nope", strings.NewReader(paperCSV), nil); status != http.StatusBadRequest {
		t.Errorf("bad key column: status %d", status)
	}

	ds := uploadPaperDataset(t, ts.URL)
	if status := doJSON(t, "POST", ts.URL+"/v1/datasets/"+ds.ID+"/sessions", strings.NewReader(`{"column":"Nope"}`), nil); status != http.StatusBadRequest {
		t.Errorf("unknown column: status %d", status)
	}

	sess := openSession(t, ts.URL, ds.ID, "Name")

	// Same column twice → conflict; session cap (MaxSessions=1) → 429.
	if status := doJSON(t, "POST", ts.URL+"/v1/datasets/"+ds.ID+"/sessions", strings.NewReader(`{"column":"Name"}`), nil); status != http.StatusTooManyRequests && status != http.StatusConflict {
		t.Errorf("second session: status %d", status)
	}

	if _, status := decide(t, ts.URL, sess.ID, 999, "approve"); status != http.StatusConflict {
		t.Errorf("unknown group id: status %d", status)
	}
	if _, status := decide(t, ts.URL, sess.ID, 0, "maybe"); status != http.StatusBadRequest {
		t.Errorf("bad decision: status %d", status)
	}
	if _, status := decide(t, ts.URL, "cs_nope", 0, "approve"); status != http.StatusNotFound {
		t.Errorf("unknown session: status %d", status)
	}

	// A decided group cannot be decided twice.
	g, ok := nextGroup(t, ts.URL, sess.ID)
	if !ok {
		t.Fatal("no groups for double-decision check")
	}
	if _, status := decide(t, ts.URL, sess.ID, g.ID, "reject"); status != http.StatusOK {
		t.Fatalf("first decision: status %d", status)
	}
	if _, status := decide(t, ts.URL, sess.ID, g.ID, "approve"); status != http.StatusConflict {
		t.Errorf("double decision: status %d", status)
	}

	// Deleting the session frees its column and its session slot.
	if status := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+sess.ID, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete session: status %d", status)
	}
	reopened := openSession(t, ts.URL, ds.ID, "Name")
	if reopened.ID == sess.ID {
		t.Error("reopened session reused the old id")
	}

	// Deleting the dataset closes its sessions.
	if status := doJSON(t, "DELETE", ts.URL+"/v1/datasets/"+ds.ID, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete dataset: status %d", status)
	}
	if status := doJSON(t, "GET", ts.URL+"/v1/sessions/"+reopened.ID, nil, nil); status != http.StatusNotFound {
		t.Errorf("session after dataset delete: status %d", status)
	}
}

// TestHealthz covers the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var out map[string]string
	if status := doJSON(t, "GET", ts.URL+"/healthz", nil, &out); status != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz: status %d, body %v", status, out)
	}
}

func TestRegistry(t *testing.T) {
	fc := newFakeClock(time.Unix(1700000000, 0))
	r := newRegistry[int]("x", 4, time.Minute, fc)
	var assigned string
	a := r.add(1, func(id string) { assigned = id })
	b := r.add(2, nil)
	if a == b {
		t.Fatal("duplicate ids")
	}
	if assigned != a {
		t.Fatalf("assign callback got %q, add returned %q", assigned, a)
	}
	if !strings.HasPrefix(a, "x_") {
		t.Fatalf("id %q lacks prefix", a)
	}
	if got := r.list(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("list = %v", got)
	}
	if v, ok := r.get(a); !ok || v != 1 {
		t.Fatalf("get(a) = %d, %v", v, ok)
	}
	fc.Advance(2 * time.Minute)
	var exp []string
	for i := 0; i < r.numShards(); i++ {
		exp = append(exp, r.expiredShard(i)...)
	}
	if len(exp) != 2 {
		t.Fatalf("expired = %v, want both", exp)
	}
	if _, ok := r.remove(a); !ok {
		t.Fatal("remove(a) failed")
	}
	if _, ok := r.get(a); ok {
		t.Fatal("removed id still resolves")
	}
	if r.size() != 1 {
		t.Fatalf("size = %d", r.size())
	}
}
