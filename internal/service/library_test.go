package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/tenant"
)

// reviewAll drives a session to exhaustion over HTTP, deciding every
// group with the given verdict function (review index and group ->
// decision string). It returns the decisions made, in review order.
func reviewAll(t *testing.T, base, sid string, verdict func(i int, g goldrec.GroupState) string) []string {
	t.Helper()
	var made []string
	for i := 0; ; i++ {
		g, ok := nextGroup(t, base, sid)
		if !ok {
			return made
		}
		d := verdict(i, g)
		if _, status := decide(t, base, sid, g.ID, d); status != http.StatusOK {
			t.Fatalf("decision %d (%s) on group %d: status %d", i, d, g.ID, status)
		}
		made = append(made, d)
	}
}

// getLibrary fetches GET /v1/library.
func getLibrary(t *testing.T, base string) LibraryInfo {
	t.Helper()
	var info LibraryInfo
	if status := doJSON(t, "GET", base+"/v1/library", nil, &info); status != http.StatusOK {
		t.Fatalf("get library: status %d", status)
	}
	return info
}

// reviewState fetches GET /v1/sessions/{id}/state.
func reviewState(t *testing.T, base, sid string) goldrec.ReviewState {
	t.Helper()
	var st goldrec.ReviewState
	if status := doJSON(t, "GET", base+"/v1/sessions/"+sid+"/state", nil, &st); status != http.StatusOK {
		t.Fatalf("get review state: status %d", status)
	}
	return st
}

// TestWarmStartSecondUpload is the end-to-end warm-start scenario: a
// reviewer uploads a dataset, reviews its Name column (approving only
// the first group, so exactly one program becomes a prior), then
// uploads the same data again. The second session must open warm —
// the groups covered by the approved library program come pre-decided
// — with the approve-rate prior seeded above the cold-start 0.5, on
// the groups page and the budget plan alike, while the unapproved
// programs' groups still surface as cold work.
func TestWarmStartSecondUpload(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// Round 1: review the Name column, teaching the library. Only the
	// first deterministic program seen is approved (every time the
	// stream re-offers it); the rest stay ineligible — fuzzy programs
	// (Prefix/Suffix) can never replay as warm priors.
	ds1 := uploadPaperDataset(t, ts.URL)
	sess1 := openSession(t, ts.URL, ds1.ID, "Name")
	var taught string
	made := reviewAll(t, ts.URL, sess1.ID, func(i int, g goldrec.GroupState) string {
		deterministic := !strings.Contains(g.Program, "Prefix(") && !strings.Contains(g.Program, "Suffix(")
		if taught == "" && g.Program != "" && deterministic {
			taught = g.Program
		}
		if g.Program == taught {
			return "approve"
		}
		return "reject"
	})
	if len(made) < 2 {
		t.Fatalf("first review made only %d decision(s), need at least 2", len(made))
	}

	lib := getLibrary(t, ts.URL)
	if len(lib.Programs) == 0 || lib.Eligible == 0 {
		t.Fatalf("library after first review: %d programs, %d eligible; want both > 0", len(lib.Programs), lib.Eligible)
	}
	eligibleDisplay := make(map[string]bool)
	for _, p := range lib.Programs {
		if p.Eligible {
			if p.Approvals < 1 || p.Approvals <= p.Rejections {
				t.Fatalf("program %q eligible with approvals=%d rejections=%d", p.Key, p.Approvals, p.Rejections)
			}
			eligibleDisplay[p.Display] = true
		}
	}

	// Round 2: the same data again. The session must open warm.
	ds2 := uploadPaperDataset(t, ts.URL)
	sess2 := openSession(t, ts.URL, ds2.ID, "Name")

	var page GroupPage
	if status := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess2.ID+"/groups?limit=1&wait=true", nil, &page); status != http.StatusOK {
		t.Fatalf("groups page: status %d", status)
	}
	if page.ApproveRate <= 0.5 {
		t.Fatalf("groups page approve rate %v not seeded above the cold 0.5", page.ApproveRate)
	}

	// The plan page works from the same seeded prior. The cold groups
	// the library could not cover keep the session in the plan.
	var plan BudgetPlan
	if status := doJSON(t, "GET", ts.URL+"/v1/datasets/"+ds2.ID+"/plan?budget=100", nil, &plan); status != http.StatusOK {
		t.Fatalf("plan: status %d", status)
	}
	planned := false
	for _, col := range plan.Columns {
		if col.SessionID != sess2.ID {
			continue
		}
		planned = true
		if col.ApproveRate <= 0.5 {
			t.Fatalf("plan approve rate %v for warm session not seeded above 0.5", col.ApproveRate)
		}
	}
	if !planned {
		t.Fatal("warm session missing from the budget plan despite cold pending groups")
	}

	// Finish the remaining cold groups, then audit coverage: of the
	// groups whose program the library holds as an eligible prior, at
	// least 80% must have been pre-decided.
	reviewAll(t, ts.URL, sess2.ID, func(int, goldrec.GroupState) string { return "approve" })
	st := reviewState(t, ts.URL, sess2.ID)
	if st.Stats.WarmGroups == 0 {
		t.Fatal("second upload opened cold: no warm groups")
	}
	warm, covered := 0, 0
	for _, g := range st.Groups {
		if g.Warm {
			warm++
			if g.Decision != goldrec.Approved {
				t.Fatalf("warm group %d decision = %v, want Approved", g.ID, g.Decision)
			}
			if !eligibleDisplay[g.Program] {
				t.Fatalf("warm group %d program %q is not an eligible library program", g.ID, g.Program)
			}
		}
		if eligibleDisplay[g.Program] {
			covered++
		}
	}
	if warm != st.Stats.WarmGroups {
		t.Fatalf("state has %d warm groups, stats say %d", warm, st.Stats.WarmGroups)
	}
	if covered == 0 || float64(warm) < 0.8*float64(covered) {
		t.Fatalf("warm start pre-decided %d of %d covered groups, want >= 80%%", warm, covered)
	}

	// The unapproved programs must not have been pre-applied: the
	// session still surfaced cold work for the reviewer.
	if warm == len(st.Groups) {
		t.Fatal("every group came warm; the unapproved programs should have left cold work")
	}
}

// TestLibraryDeleteForgets verifies DELETE /v1/library: the memory is
// purged and the next upload opens cold again.
func TestLibraryDeleteForgets(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	ds1 := uploadPaperDataset(t, ts.URL)
	sess1 := openSession(t, ts.URL, ds1.ID, "Name")
	reviewAll(t, ts.URL, sess1.ID, func(int, goldrec.GroupState) string { return "approve" })
	if lib := getLibrary(t, ts.URL); len(lib.Programs) == 0 {
		t.Fatal("library empty after a fully approved review")
	}

	if status := doJSON(t, "DELETE", ts.URL+"/v1/library", nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete library: status %d", status)
	}
	if lib := getLibrary(t, ts.URL); len(lib.Programs) != 0 || lib.Eligible != 0 {
		t.Fatalf("library after delete: %+v, want empty", lib)
	}

	ds2 := uploadPaperDataset(t, ts.URL)
	sess2 := openSession(t, ts.URL, ds2.ID, "Name")
	g, ok := nextGroup(t, ts.URL, sess2.ID)
	if !ok {
		t.Fatal("post-delete session exhausted before issuing any group")
	}
	if g.Warm {
		t.Fatal("post-delete session issued a warm group")
	}
	st := reviewState(t, ts.URL, sess2.ID)
	if st.Stats.WarmGroups != 0 {
		t.Fatalf("post-delete session opened warm: %d warm groups", st.Stats.WarmGroups)
	}
}

// TestWarmStartCrashRestart reviews one upload to completion, opens a
// warm session over a second upload, then kills and reboots the whole
// service: the restored warm session and the library must come back
// byte-identical, with the warm session's replay driven by the frozen
// OpWarm record rather than the live library.
func TestWarmStartCrashRestart(t *testing.T) {
	const prefetch = 2
	dir := storeDir(t)
	svc := bootService(t, dir, prefetch)

	ds1, err := svc.As("").CreateDataset("paper", "key", "", strings.NewReader(paperCSV))
	if err != nil {
		t.Fatal(err)
	}
	sess1, err := svc.As("").OpenSession(ds1.ID, "Name")
	if err != nil {
		t.Fatal(err)
	}
	for {
		id, ok := nextUndecided(t, svc, sess1.ID)
		if !ok {
			break
		}
		if _, err := svc.As("").Decide(sess1.ID, id, goldrec.Approved); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, svc, sess1.ID, prefetch)

	ds2, err := svc.As("").CreateDataset("paper2", "key", "", strings.NewReader(paperCSV))
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := svc.As("").OpenSession(ds2.ID, "Name")
	if err != nil {
		t.Fatal(err)
	}
	preKill := quiesce(t, svc, sess2.ID, prefetch)
	if preKill.Stats.WarmGroups == 0 {
		t.Fatal("second upload opened cold before the crash")
	}
	preLib := mustJSON(t, svc.As("").Library())

	// Crash between library appends and between WAL appends: nothing
	// below gets a chance to flush beyond what each ack made durable.
	killService(svc)

	svc = bootService(t, dir, prefetch)
	defer killService(svc)
	restored := quiesce(t, svc, sess2.ID, prefetch)
	if got, want := mustJSON(t, restored), mustJSON(t, preKill); !bytes.Equal(got, want) {
		t.Fatalf("restored warm session diverged\n got: %s\nwant: %s", got, want)
	}
	if got := mustJSON(t, svc.As("").Library()); !bytes.Equal(got, preLib) {
		t.Fatalf("restored library diverged\n got: %s\nwant: %s", got, preLib)
	}

	// The session keeps working after restore: finish the review.
	for {
		id, ok := nextUndecided(t, svc, sess2.ID)
		if !ok {
			break
		}
		if _, err := svc.As("").Decide(sess2.ID, id, goldrec.Approved); err != nil {
			t.Fatal(err)
		}
	}
	final := quiesce(t, svc, sess2.ID, prefetch)
	if !final.Exhausted {
		t.Fatal("restored session never exhausted")
	}
}

// TestLibraryCrashBetweenDecisions kills and reboots the service after
// every single decision of a review, asserting after each reboot that
// the replayed per-tenant program stats are byte-identical to the
// pre-kill library. Runs under GOLDREC_TEST_SHARDS like the rest of
// the crash suite.
func TestLibraryCrashBetweenDecisions(t *testing.T) {
	const prefetch = 2
	dir := storeDir(t)
	svc := bootService(t, dir, prefetch)

	ds, err := svc.As("").CreateDataset("paper", "key", "", strings.NewReader(paperCSV))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.As("").OpenSession(ds.ID, "Name")
	if err != nil {
		t.Fatal(err)
	}
	sessID := sess.ID

	for i := 0; ; i++ {
		quiesce(t, svc, sessID, prefetch)
		preKill := mustJSON(t, svc.As("").Library())
		killService(svc)

		svc = bootService(t, dir, prefetch)
		if got := mustJSON(t, svc.As("").Library()); !bytes.Equal(got, preKill) {
			t.Fatalf("decision %d: replayed library diverged\n got: %s\nwant: %s", i, got, preKill)
		}

		id, ok := nextUndecided(t, svc, sessID)
		if !ok {
			break
		}
		if _, err := svc.As("").Decide(sessID, id, scriptedDecision(i)); err != nil {
			t.Fatalf("decision %d on group %d: %v", i, id, err)
		}
	}
	defer killService(svc)

	lib := svc.As("").Library()
	if len(lib.Programs) == 0 {
		t.Fatal("library empty after a reviewed column")
	}
}

// doAs performs a request authenticated with a specific API key ("" =
// no credentials).
func doAs(t *testing.T, key, method, url string, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// TestTenantLibraryIsolation runs two tenants through independent
// reviews and verifies each sees only its own memory, that deleting a
// tenant purges its library, and that the sibling's survives intact.
func TestTenantLibraryIsolation(t *testing.T) {
	reg, err := tenant.Open(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, Options{Tenants: reg, AdminKey: testAdminKey})

	mint := func(name string) (id, key string) {
		t.Helper()
		var resp TenantKeyResponse
		status := doAs(t, testAdminKey, "POST", ts.URL+"/v1/tenants", fmt.Sprintf(`{"name":%q}`, name), &resp)
		if status != http.StatusCreated {
			t.Fatalf("create tenant %s: status %d", name, status)
		}
		return resp.Tenant.ID, resp.Key
	}
	idA, keyA := mint("alpha")
	idB, keyB := mint("beta")

	// Each tenant uploads and fully reviews its own copy of the data.
	teach := func(key string) {
		t.Helper()
		var ds DatasetInfo
		if status := doAs(t, key, "POST", ts.URL+"/v1/datasets?name=paper&key=key", paperCSV, &ds); status != http.StatusCreated {
			t.Fatalf("upload: status %d", status)
		}
		var sess SessionInfo
		if status := doAs(t, key, "POST", ts.URL+"/v1/datasets/"+ds.ID+"/sessions", `{"column":"Name"}`, &sess); status != http.StatusCreated {
			t.Fatalf("open session: status %d", status)
		}
		for {
			var page GroupPage
			if status := doAs(t, key, "GET", ts.URL+"/v1/sessions/"+sess.ID+"/groups?limit=1&wait=true", "", &page); status != http.StatusOK {
				t.Fatalf("groups: status %d", status)
			}
			if len(page.Groups) == 0 {
				if page.Status == StatusExhausted {
					return
				}
				continue
			}
			body := fmt.Sprintf(`{"group_id":%d,"decision":"approve"}`, page.Groups[0].ID)
			if status := doAs(t, key, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/decisions", body, nil); status != http.StatusOK {
				t.Fatalf("decide: status %d", status)
			}
		}
	}
	teach(keyA)
	teach(keyB)

	// No key, no library.
	if status := doAs(t, "", "GET", ts.URL+"/v1/library", "", nil); status != http.StatusUnauthorized {
		t.Fatalf("unauthenticated library read: status %d, want 401", status)
	}

	var libA, libB LibraryInfo
	if status := doAs(t, keyA, "GET", ts.URL+"/v1/library", "", &libA); status != http.StatusOK {
		t.Fatalf("tenant A library: status %d", status)
	}
	if status := doAs(t, keyB, "GET", ts.URL+"/v1/library", "", &libB); status != http.StatusOK {
		t.Fatalf("tenant B library: status %d", status)
	}
	if len(libA.Programs) == 0 || len(libB.Programs) == 0 {
		t.Fatalf("tenant libraries empty after reviews: A=%d B=%d", len(libA.Programs), len(libB.Programs))
	}
	// The admin key addresses the open-mode library, which no tenant
	// review touched.
	var adminLib LibraryInfo
	if status := doAs(t, testAdminKey, "GET", ts.URL+"/v1/library", "", &adminLib); status != http.StatusOK {
		t.Fatalf("admin library: status %d", status)
	}
	if len(adminLib.Programs) != 0 {
		t.Fatalf("tenant reviews leaked %d program(s) into the unscoped library", len(adminLib.Programs))
	}

	// Deleting tenant A purges A's library; B's survives untouched.
	if status := doAs(t, testAdminKey, "DELETE", ts.URL+"/v1/tenants/"+idA, "", nil); status != http.StatusNoContent {
		t.Fatalf("delete tenant A: status %d", status)
	}
	if n := svc.library.For(idA).Len(); n != 0 {
		t.Fatalf("tenant A library survived tenant deletion with %d program(s)", n)
	}
	if got, want := len(svc.library.For(idB).List()), len(libB.Programs); got != want {
		t.Fatalf("tenant B library changed by A's deletion: %d programs, want %d", got, want)
	}
}
