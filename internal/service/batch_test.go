package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	goldrec "github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/store"
)

// pendingN long-polls the dataset-scoped groups route until n
// undecided groups are buffered (n <= prefetch), returning them oldest
// first.
func pendingN(t *testing.T, base, dsID, sid string, n int) []goldrec.GroupState {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var page GroupPage
		status := doJSON(t, "GET", fmt.Sprintf("%s/v1/datasets/%s/sessions/%s/groups?limit=%d&wait=true", base, dsID, sid, n), nil, &page)
		if status != http.StatusOK {
			t.Fatalf("fetch groups: status %d", status)
		}
		if len(page.Groups) >= n {
			return page.Groups[:n]
		}
		if page.Status == StatusExhausted {
			t.Fatalf("stream exhausted with %d group(s) buffered, need %d", len(page.Groups), n)
		}
	}
	t.Fatalf("session %s: %d pending groups never buffered", sid, n)
	return nil
}

func postBatch(t *testing.T, base, dsID, sid, body string, out any) int {
	t.Helper()
	return doJSON(t, "POST", base+"/v1/datasets/"+dsID+"/sessions/"+sid+"/decisions",
		strings.NewReader(body), out)
}

// TestBatchDecisions drives the happy path of the batched ingest route:
// two pending groups decided in one POST, per-decision results in
// request order, and the decided groups gone from the pending buffer.
func TestBatchDecisions(t *testing.T) {
	_, ts := newTestServer(t, Options{Prefetch: 2})
	ds := uploadPaperDataset(t, ts.URL)
	sess := openSession(t, ts.URL, ds.ID, "Name")
	groups := pendingN(t, ts.URL, ds.ID, sess.ID, 2)

	body := fmt.Sprintf(`{"decisions":[{"group_id":%d,"decision":"approve"},{"group_id":%d,"decision":"reject"}]}`,
		groups[0].ID, groups[1].ID)
	var res BatchDecisionsResult
	if status := postBatch(t, ts.URL, ds.ID, sess.ID, body, &res); status != http.StatusOK {
		t.Fatalf("batch decisions: status %d", status)
	}
	if len(res.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(res.Results))
	}
	if res.Results[0].GroupID != groups[0].ID || res.Results[0].Decision != goldrec.Approved {
		t.Errorf("result 0 = group %d %s, want group %d approve",
			res.Results[0].GroupID, res.Results[0].Decision, groups[0].ID)
	}
	if res.Results[1].GroupID != groups[1].ID || res.Results[1].Decision != goldrec.Rejected {
		t.Errorf("result 1 = group %d %s, want group %d reject",
			res.Results[1].GroupID, res.Results[1].Decision, groups[1].ID)
	}
	if res.Status == "" {
		t.Error("batch result missing session status")
	}
	if res.Stats.GroupsApplied < 1 {
		t.Errorf("stats report %d applied groups, want >= 1 after an approve", res.Stats.GroupsApplied)
	}

	// The decided groups must not be offered again.
	var page GroupPage
	if status := doJSON(t, "GET", ts.URL+"/v1/datasets/"+ds.ID+"/sessions/"+sess.ID+"/groups", nil, &page); status != http.StatusOK {
		t.Fatalf("refetch groups: status %d", status)
	}
	for _, g := range page.Groups {
		if g.ID == groups[0].ID || g.ID == groups[1].ID {
			t.Errorf("decided group %d still pending", g.ID)
		}
	}
}

// TestBatchDecisionsValidationRejectsAll exercises the whole-batch
// validation contract: any bad entry rejects the entire submission with
// the unified error envelope, and nothing is applied.
func TestBatchDecisionsValidationRejectsAll(t *testing.T) {
	_, ts := newTestServer(t, Options{Prefetch: 2})
	ds := uploadPaperDataset(t, ts.URL)
	sess := openSession(t, ts.URL, ds.ID, "Name")
	groups := pendingN(t, ts.URL, ds.ID, sess.ID, 2)
	g0, g1 := groups[0].ID, groups[1].ID

	cases := []struct {
		name     string
		dsID     string
		body     string
		wantCode int
		wantSlug string
	}{
		{"duplicate group", ds.ID,
			fmt.Sprintf(`{"decisions":[{"group_id":%d,"decision":"approve"},{"group_id":%d,"decision":"reject"}]}`, g0, g0),
			http.StatusConflict, "conflict"},
		{"unknown group", ds.ID,
			fmt.Sprintf(`{"decisions":[{"group_id":%d,"decision":"approve"},{"group_id":999999,"decision":"reject"}]}`, g0),
			http.StatusConflict, "conflict"},
		{"invalid decision", ds.ID,
			fmt.Sprintf(`{"decisions":[{"group_id":%d,"decision":"maybe"}]}`, g0),
			http.StatusBadRequest, "bad_request"},
		{"empty batch", ds.ID, `{"decisions":[]}`,
			http.StatusBadRequest, "bad_request"},
		{"wrong dataset", "ds_0000000000", fmt.Sprintf(`{"decisions":[{"group_id":%d,"decision":"approve"}]}`, g0),
			http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		var envelope map[string]any
		status := postBatch(t, ts.URL, tc.dsID, sess.ID, tc.body, &envelope)
		if status != tc.wantCode {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.wantCode)
		}
		if envelope["code"] != tc.wantSlug {
			t.Errorf("%s: code %v, want %q", tc.name, envelope["code"], tc.wantSlug)
		}
		if msg, _ := envelope["error"].(string); msg == "" {
			t.Errorf("%s: envelope has no error message", tc.name)
		}
		if id, _ := envelope["request_id"].(string); !strings.HasPrefix(id, "req_") {
			t.Errorf("%s: envelope request_id = %v, want req_ id", tc.name, envelope["request_id"])
		}
	}

	// Oversized batches are refused before validation even starts.
	var sb strings.Builder
	sb.WriteString(`{"decisions":[`)
	for i := 0; i <= maxBatchDecisions; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"group_id":%d,"decision":"approve"}`, i)
	}
	sb.WriteString(`]}`)
	if status := postBatch(t, ts.URL, ds.ID, sess.ID, sb.String(), nil); status != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", status)
	}

	// Nothing was applied: both groups are still pending and still
	// individually decidable.
	var page GroupPage
	if status := doJSON(t, "GET", ts.URL+"/v1/datasets/"+ds.ID+"/sessions/"+sess.ID+"/groups?limit=2", nil, &page); status != http.StatusOK {
		t.Fatalf("refetch groups: status %d", status)
	}
	still := map[int]bool{}
	for _, g := range page.Groups {
		still[g.ID] = true
	}
	if !still[g0] || !still[g1] {
		t.Fatalf("rejected batches applied something: pending %v, want both %d and %d", still, g0, g1)
	}
	if _, status := decide(t, ts.URL, sess.ID, g0, "approve"); status != http.StatusOK {
		t.Fatalf("group %d not decidable after rejected batches: status %d", g0, status)
	}
}

// gateStore holds a recovering session in its initializing state:
// WAL replay parks until the gate opens, so the session is visible but
// has nothing reviewable — exactly the window a long poll spans.
type gateStore struct {
	store.Store
	gate chan struct{}
}

func (g *gateStore) ReplayWAL(ctx context.Context, datasetID, sessionID string, fn func(store.WALRecord) error) error {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return ctx.Err()
	}
	return g.Store.ReplayWAL(ctx, datasetID, sessionID, fn)
}

// TestGroupsLongPoll204: a duration-form wait that expires with nothing
// reviewable answers 204 No Content, and a parked long poll wakes as
// soon as a group becomes available.
func TestGroupsLongPoll204(t *testing.T) {
	const prefetch = 2
	dir := t.TempDir()

	// Seed a session with issued-but-undecided groups, then crash.
	svc := bootService(t, dir, prefetch)
	ds, err := svc.As("").CreateDataset("paper", "key", "", strings.NewReader(paperCSV))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.As("").OpenSession(ds.ID, "Name")
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, svc, sess.ID, prefetch)
	killService(svc)

	// Reboot behind a gated store: recovery registers the session, but
	// its replay — and with it the restored pending buffer — is parked.
	fsStore, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gs := &gateStore{Store: fsStore, gate: make(chan struct{})}
	var once sync.Once
	open := func() { once.Do(func() { close(gs.gate) }) }
	svc2 := New(Options{Prefetch: prefetch, Store: gs, Shards: testShards(t)})
	if _, _, err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc2.Handler())
	t.Cleanup(func() { ts.Close(); killService(svc2) })
	t.Cleanup(open) // registered last: unblock replay before teardown

	url := ts.URL + "/v1/datasets/" + ds.ID + "/sessions/" + sess.ID + "/groups?wait="

	// Nothing can be issued while the gate is shut: the poll times out
	// into 204 (no body — pass a nil decode target).
	start := time.Now()
	if status := doJSON(t, "GET", url+"150ms", nil, nil); status != http.StatusNoContent {
		t.Fatalf("gated long poll: status %d, want 204", status)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("long poll returned after %v, want >= the 150ms wait", elapsed)
	}

	// Park a fresh long poll, then open the gate: the poll must wake
	// with a group well before its 30s budget.
	type pollResult struct {
		status int
		page   GroupPage
		err    error
	}
	got := make(chan pollResult, 1)
	go func() {
		req, err := http.NewRequest("GET", url+"30s", nil)
		if err != nil {
			got <- pollResult{err: err}
			return
		}
		if testAuth {
			req.Header.Set("Authorization", "Bearer "+testAdminKey)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			got <- pollResult{err: err}
			return
		}
		defer resp.Body.Close()
		var page GroupPage
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
				got <- pollResult{err: err}
				return
			}
		}
		got <- pollResult{status: resp.StatusCode, page: page}
	}()

	time.Sleep(50 * time.Millisecond)
	open()
	select {
	case res := <-got:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.status != http.StatusOK {
			t.Fatalf("woken long poll: status %d, want 200", res.status)
		}
		if len(res.page.Groups) == 0 {
			t.Fatal("woken long poll returned no groups")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll still parked 10s after the gate opened")
	}
}

// TestBatchDecisionsCrashRecovery is the batched twin of
// TestCrashBetweenEveryDecision: the whole review proceeds in batches
// of up to two decisions, with a kill and reboot between every batch.
// Each restored ReviewState must be byte-identical to the pre-kill
// state, and the finished review must export exactly what an
// uninterrupted serial run produces — a batch is just a denser WAL
// encoding of the same decision sequence.
func TestBatchDecisionsCrashRecovery(t *testing.T) {
	const prefetch = 2
	wantState, wantRecords, wantGolden := uninterruptedRun(t, "Name")

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
	dsID, sessID := ds.ID, sess.ID

	for i := 0; ; {
		preKill := quiesce(t, svc, sessID, prefetch)
		killService(svc)

		svc = bootService(t, dir, prefetch)
		restored := quiesce(t, svc, sessID, prefetch)
		if got, want := mustJSON(t, restored), mustJSON(t, preKill); !bytes.Equal(got, want) {
			t.Fatalf("batch %d: restored state diverged\n got: %s\nwant: %s", i, got, want)
		}

		var ids []int
		for _, g := range restored.Groups {
			if g.Decision == goldrec.Pending {
				ids = append(ids, g.ID)
			}
		}
		if len(ids) == 0 {
			break
		}
		reqs := make([]DecisionRequest, len(ids))
		for j, gid := range ids {
			reqs[j] = DecisionRequest{GroupID: gid, Decision: scriptedDecision(i + j).String()}
		}
		res, err := svc.As("").DecideBatch(dsID, sessID, reqs)
		if err != nil {
			t.Fatalf("batch %d (%v): %v", i, ids, err)
		}
		if len(res.Results) != len(ids) {
			t.Fatalf("batch %d: %d results for %d decisions", i, len(res.Results), len(ids))
		}
		i += len(ids)
	}
	defer killService(svc)

	final := quiesce(t, svc, sessID, prefetch)
	if got, want := mustJSON(t, final), mustJSON(t, wantState); !bytes.Equal(got, want) {
		t.Fatalf("final state diverged from uninterrupted run\n got: %s\nwant: %s", got, want)
	}
	records, err := svc.As("").Export(dsID, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, records), mustJSON(t, wantRecords); !bytes.Equal(got, want) {
		t.Fatalf("standardized export diverged\n got: %s\nwant: %s", got, want)
	}
	golden, err := svc.As("").Export(dsID, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, golden), mustJSON(t, wantGolden); !bytes.Equal(got, want) {
		t.Fatalf("golden export diverged\n got: %s\nwant: %s", got, want)
	}
}

// TestBatchCrashTornTail: a crash that tears the tail off a batch's WAL
// write must recover the clean prefix — the first decision of the batch
// survives, the second is offered for review again.
func TestBatchCrashTornTail(t *testing.T) {
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
	st := quiesce(t, svc, sess.ID, prefetch)
	var ids []int
	for _, g := range st.Groups {
		if g.Decision == goldrec.Pending {
			ids = append(ids, g.ID)
		}
	}
	if len(ids) < 2 {
		t.Fatalf("only %d pending groups, need 2", len(ids))
	}
	if _, err := svc.As("").DecideBatch(ds.ID, sess.ID, []DecisionRequest{
		{GroupID: ids[0], Decision: "approve"},
		{GroupID: ids[1], Decision: "reject"},
	}); err != nil {
		t.Fatal(err)
	}
	killService(svc)

	// Tear the batch's second decide record: cut the WAL mid-record,
	// losing its closing brace and newline (and anything the generator
	// appended after it — issue records replay re-derives).
	walPath := filepath.Join(dir, "datasets", ds.ID, "sessions", sess.ID, "wal.jsonl")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	target := []byte(fmt.Sprintf(`{"op":"decide","group":%d,"decision":"reject"}`, ids[1]))
	idx := bytes.Index(raw, target)
	if idx < 0 {
		t.Fatalf("decide record for group %d not found in WAL %q", ids[1], raw)
	}
	if err := os.WriteFile(walPath, raw[:idx+len(target)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	svc = bootService(t, dir, prefetch)
	defer killService(svc)
	restored := quiesce(t, svc, sess.ID, prefetch)
	decided := map[int]goldrec.Decision{}
	for _, g := range restored.Groups {
		decided[g.ID] = g.Decision
	}
	if decided[ids[0]] != goldrec.Approved {
		t.Errorf("group %d = %s after torn-tail recovery, want approve (durable prefix)", ids[0], decided[ids[0]])
	}
	if decided[ids[1]] != goldrec.Pending {
		t.Errorf("group %d = %s after torn-tail recovery, want pending (torn record dropped)", ids[1], decided[ids[1]])
	}
	// The torn group must be decidable again on the recovered service.
	if _, err := svc.As("").Decide(sess.ID, ids[1], goldrec.Rejected); err != nil {
		t.Errorf("re-deciding torn group %d: %v", ids[1], err)
	}
}
