package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/store"
)

// storeDir returns a directory for a test's store. When
// GOLDREC_STORE_ARTIFACTS is set (CI does this), the directory lives
// under it and survives the test, so a failed recovery test leaves its
// snapshots and WALs behind as a debuggable artifact.
func storeDir(t *testing.T) string {
	t.Helper()
	if root := os.Getenv("GOLDREC_STORE_ARTIFACTS"); root != "" {
		name := strings.NewReplacer("/", "_", " ", "_").Replace(t.Name())
		dir := filepath.Join(root, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// testShards returns the registry shard count for the recovery suite:
// GOLDREC_TEST_SHARDS when set (CI runs the suite with 1 and 16), else
// the service default. Durable state is shard-agnostic, so every value
// must produce identical recoveries.
func testShards(t *testing.T) int {
	t.Helper()
	v := os.Getenv("GOLDREC_TEST_SHARDS")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("bad GOLDREC_TEST_SHARDS=%q", v)
	}
	return n
}

// bootService opens (or reopens) a persistent service over dir and
// recovers whatever the store holds. The caller kills it with
// killService to simulate a crash.
func bootService(t *testing.T, dir string, prefetch int) *Service {
	t.Helper()
	fsStore, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Prefetch: prefetch, Store: fsStore, Shards: testShards(t)})
	if _, _, err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	return svc
}

// killService tears a service down without any graceful state flush.
// Decisions are durable at acknowledgement time, so this is equivalent
// to a crash at the moment of the last acknowledged request.
func killService(svc *Service) {
	st := svc.store
	svc.Close()
	st.Close()
}

// quiesce polls until the session's generator has settled: the group
// stream is exhausted, or the pending buffer is full (the generator
// blocks at prefetch). Only in this state is ReviewState deterministic,
// which is what makes byte-identical restore assertable.
func quiesce(t *testing.T, svc *Service, sessionID string, prefetch int) goldrec.ReviewState {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := svc.ReviewState(sessionID)
		if err != nil {
			t.Fatal(err)
		}
		undecided := 0
		for _, g := range st.Groups {
			if g.Decision == goldrec.Pending {
				undecided++
			}
		}
		if st.Exhausted || undecided == prefetch {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session %s never quiesced", sessionID)
	return goldrec.ReviewState{}
}

// nextUndecided returns the oldest pending group id, waiting for the
// generator if necessary; ok is false once the stream is exhausted and
// fully decided.
func nextUndecided(t *testing.T, svc *Service, sessionID string) (int, bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		page, err := svc.PendingGroups(sessionID, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Groups) > 0 {
			return page.Groups[0].ID, true
		}
		if page.Status == StatusExhausted {
			return 0, false
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session %s: no group within deadline", sessionID)
	return 0, false
}

// scriptedDecision returns the deterministic decision for the i-th
// reviewed group, cycling approve / reject / approve-backward.
func scriptedDecision(i int) goldrec.Decision {
	switch i % 3 {
	case 0:
		return goldrec.Approved
	case 1:
		return goldrec.Rejected
	default:
		return goldrec.ApprovedBackward
	}
}

// uninterruptedRun reviews one column of the paper dataset start to
// finish on a memory-only service with the scripted decisions and
// returns the review state and both exports — the reference a crashed
// and recovered run must reproduce.
func uninterruptedRun(t *testing.T, column string) (goldrec.ReviewState, ExportData, ExportData) {
	t.Helper()
	svc := New(Options{Prefetch: 2})
	defer svc.Close()
	ds, err := svc.CreateDataset("paper", "key", "", strings.NewReader(paperCSV))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.OpenSession(ds.ID, column)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		id, ok := nextUndecided(t, svc, sess.ID)
		if !ok {
			break
		}
		if _, err := svc.Decide(sess.ID, id, scriptedDecision(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := quiesce(t, svc, sess.ID, 2)
	records, err := svc.Export(ds.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := svc.Export(ds.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	return st, records, golden
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCrashBetweenEveryDecision is the recovery crash test: it reviews
// the paper dataset's Name column while killing and rebooting the
// service between every single decision, asserting after each reboot
// that the restored ReviewState is byte-identical to the pre-kill
// state, and finally that the completed review exports exactly what an
// uninterrupted run produces.
func TestCrashBetweenEveryDecision(t *testing.T) {
	const prefetch = 2
	wantState, wantRecords, wantGolden := uninterruptedRun(t, "Name")

	dir := storeDir(t)
	svc := bootService(t, dir, prefetch)
	ds, err := svc.CreateDataset("paper", "key", "", strings.NewReader(paperCSV))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.OpenSession(ds.ID, "Name")
	if err != nil {
		t.Fatal(err)
	}
	dsID, sessID := ds.ID, sess.ID

	for i := 0; ; i++ {
		preKill := quiesce(t, svc, sessID, prefetch)
		killService(svc)

		svc = bootService(t, dir, prefetch)
		restored := quiesce(t, svc, sessID, prefetch)
		if got, want := mustJSON(t, restored), mustJSON(t, preKill); !bytes.Equal(got, want) {
			t.Fatalf("decision %d: restored state diverged\n got: %s\nwant: %s", i, got, want)
		}

		id, ok := nextUndecided(t, svc, sessID)
		if !ok {
			break
		}
		if _, err := svc.Decide(sessID, id, scriptedDecision(i)); err != nil {
			t.Fatalf("decision %d on group %d: %v", i, id, err)
		}
	}
	defer killService(svc)

	final := quiesce(t, svc, sessID, prefetch)
	if got, want := mustJSON(t, final), mustJSON(t, wantState); !bytes.Equal(got, want) {
		t.Fatalf("final state diverged from uninterrupted run\n got: %s\nwant: %s", got, want)
	}
	records, err := svc.Export(dsID, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, records), mustJSON(t, wantRecords); !bytes.Equal(got, want) {
		t.Fatalf("standardized export diverged\n got: %s\nwant: %s", got, want)
	}
	golden, err := svc.Export(dsID, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, golden), mustJSON(t, wantGolden); !bytes.Equal(got, want) {
		t.Fatalf("golden export diverged\n got: %s\nwant: %s", got, want)
	}
}

// TestRestartOverHTTP drives the crash-and-continue scenario through
// the real HTTP surface: upload, decide a few groups, tear the whole
// stack down, boot a fresh server over the same store, continue the
// review to completion, and export.
func TestRestartOverHTTP(t *testing.T) {
	const prefetch = 2
	_, wantRecords, wantGolden := uninterruptedRun(t, "Name")

	dir := storeDir(t)
	svc := bootService(t, dir, prefetch)
	ts := httptest.NewServer(svc.Handler())

	ds := uploadPaperDataset(t, ts.URL)
	sess := openSession(t, ts.URL, ds.ID, "Name")
	reviewed := 0
	for ; reviewed < 2; reviewed++ {
		g, ok := nextGroup(t, ts.URL, sess.ID)
		if !ok {
			t.Fatalf("stream ended after %d groups", reviewed)
		}
		if _, status := decide(t, ts.URL, sess.ID, g.ID, scriptedDecision(reviewed).String()); status != http.StatusOK {
			t.Fatalf("decision %d: status %d", reviewed, status)
		}
	}
	ts.Close()
	killService(svc)

	// Reboot: same ids, same state, review continues where it stopped.
	svc = bootService(t, dir, prefetch)
	defer killService(svc)
	ts = httptest.NewServer(svc.Handler())
	defer ts.Close()

	var info SessionInfo
	if status := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID, nil, &info); status != http.StatusOK {
		t.Fatalf("restored session: status %d", status)
	}
	if info.DatasetID != ds.ID || info.Column != "Name" {
		t.Fatalf("restored session info = %+v", info)
	}
	for {
		g, ok := nextGroup(t, ts.URL, sess.ID)
		if !ok {
			break
		}
		if _, status := decide(t, ts.URL, sess.ID, g.ID, scriptedDecision(reviewed).String()); status != http.StatusOK {
			t.Fatalf("post-restart decision %d: status %d", reviewed, status)
		}
		reviewed++
	}

	var records, golden ExportData
	if status := doJSON(t, "GET", ts.URL+"/v1/datasets/"+ds.ID+"/records", nil, &records); status != http.StatusOK {
		t.Fatalf("records: status %d", status)
	}
	if status := doJSON(t, "GET", ts.URL+"/v1/datasets/"+ds.ID+"/golden", nil, &golden); status != http.StatusOK {
		t.Fatalf("golden: status %d", status)
	}
	if got, want := mustJSON(t, records), mustJSON(t, wantRecords); !bytes.Equal(got, want) {
		t.Fatalf("standardized export diverged\n got: %s\nwant: %s", got, want)
	}
	if got, want := mustJSON(t, golden), mustJSON(t, wantGolden); !bytes.Equal(got, want) {
		t.Fatalf("golden export diverged\n got: %s\nwant: %s", got, want)
	}
}

// TestPassivationReloadsOnTouch verifies TTL eviction with a store is
// passivation: the evicted dataset and session come back transparently
// on the next API touch instead of 404ing, with review state intact.
func TestPassivationReloadsOnTouch(t *testing.T) {
	fc := newFakeClock(time.Unix(1700000000, 0))
	fsStore, err := store.OpenFS(storeDir(t), store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The huge JanitorInterval keeps janitor ticks (driven by the same
	// fake clock) from racing the direct EvictExpired calls below.
	svc := New(Options{TTL: time.Minute, JanitorInterval: 24 * time.Hour, Prefetch: 2, Store: fsStore, clock: fc, Shards: testShards(t)})
	defer func() { svc.Close(); fsStore.Close() }()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ds := uploadPaperDataset(t, ts.URL)
	sess := openSession(t, ts.URL, ds.ID, "Name")
	gid, ok := nextUndecided(t, svc, sess.ID)
	if !ok {
		t.Fatal("no group to decide")
	}
	if _, err := svc.Decide(sess.ID, gid, goldrec.Approved); err != nil {
		t.Fatal(err)
	}
	preEvict := quiesce(t, svc, sess.ID, 2)

	fc.Advance(2 * time.Minute)
	if d, c := svc.EvictExpired(); d != 1 || c != 1 {
		t.Fatalf("evicted %d datasets, %d sessions, want 1 and 1", d, c)
	}

	// While passivated, the dataset still shows up in listings.
	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if status := doJSON(t, "GET", ts.URL+"/v1/datasets", nil, &list); status != http.StatusOK {
		t.Fatalf("list during passivation: status %d", status)
	}
	if len(list.Datasets) != 1 || !list.Datasets[0].Passive || list.Datasets[0].ID != ds.ID {
		t.Fatalf("passive listing = %+v", list.Datasets)
	}

	// The session is transparently reloaded on touch — not 404.
	var info SessionInfo
	if status := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID, nil, &info); status != http.StatusOK {
		t.Fatalf("evicted session fetch: status %d, want 200", status)
	}
	restored := quiesce(t, svc, sess.ID, 2)
	if got, want := mustJSON(t, restored), mustJSON(t, preEvict); !bytes.Equal(got, want) {
		t.Fatalf("state after passivation reload diverged\n got: %s\nwant: %s", got, want)
	}
	// And the dataset rides along.
	if status := doJSON(t, "GET", ts.URL+"/v1/datasets/"+ds.ID, nil, nil); status != http.StatusOK {
		t.Fatalf("dataset after reload: status %d", status)
	}

	// A second eviction cycle exercises reload-from-already-restored.
	fc.Advance(2 * time.Minute)
	if d, _ := svc.EvictExpired(); d != 1 {
		t.Fatalf("second eviction: %d datasets", d)
	}
	if status := doJSON(t, "GET", ts.URL+"/v1/datasets/"+ds.ID, nil, nil); status != http.StatusOK {
		t.Fatalf("dataset after second reload: status %d", status)
	}
}

// TestPassivationDatasetMismatchNoRestore checks that the
// dataset-scoped session routes resolve the dataset part of the address
// before any side effect: addressing a passivated session through
// another dataset's id (live-less or unknown) answers 404 on the plain
// page, the long poll, the SSE stream and the batch decision route, and
// leaves every dataset passive.
func TestPassivationDatasetMismatchNoRestore(t *testing.T) {
	fc := newFakeClock(time.Unix(1700000000, 0))
	fsStore, err := store.OpenFS(storeDir(t), store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{TTL: time.Minute, JanitorInterval: 24 * time.Hour, Prefetch: 2, Store: fsStore, clock: fc, Shards: testShards(t)})
	defer func() { svc.Close(); fsStore.Close() }()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ds := uploadPaperDataset(t, ts.URL)
	other := uploadPaperDataset(t, ts.URL)
	sess := openSession(t, ts.URL, ds.ID, "Name")
	quiesce(t, svc, sess.ID, 2)
	fc.Advance(2 * time.Minute)
	if d, c := svc.EvictExpired(); d != 2 || c != 1 {
		t.Fatalf("evicted %d datasets, %d sessions, want 2 and 1", d, c)
	}

	assertPassive := func(after string) {
		t.Helper()
		var list struct {
			Datasets []DatasetInfo `json:"datasets"`
		}
		if status := doJSON(t, "GET", ts.URL+"/v1/datasets", nil, &list); status != http.StatusOK {
			t.Fatalf("list: status %d", status)
		}
		if len(list.Datasets) != 2 {
			t.Fatalf("listing = %+v, want 2 datasets", list.Datasets)
		}
		for _, d := range list.Datasets {
			if !d.Passive {
				t.Fatalf("%s restored dataset %s: %+v", after, d.ID, d)
			}
		}
	}
	for _, dsID := range []string{other.ID, "ds_nope"} {
		base := ts.URL + "/v1/datasets/" + dsID + "/sessions/" + sess.ID
		for _, tc := range []struct {
			name, method, url, accept, body string
		}{
			{"page", "GET", base + "/groups", "", ""},
			{"long poll", "GET", base + "/groups?wait=1s", "", ""},
			{"sse", "GET", base + "/groups", "text/event-stream", ""},
			{"batch", "POST", base + "/decisions", "", `{"decisions":[{"group_id":0,"decision":"approve"}]}`},
		} {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			req, err := http.NewRequestWithContext(ctx, tc.method, tc.url, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s via %s: %v", tc.name, dsID, err)
			}
			resp.Body.Close()
			cancel()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("%s via %s: status %d, want 404", tc.name, dsID, resp.StatusCode)
			}
			assertPassive(tc.name + " via " + dsID)
		}
	}
}

// TestCompactionFoldsFinishedSession finishes a whole column and checks
// the WAL is folded away: the snapshot advances a version, the WAL file
// is gone, and a rebooted service still serves the final ReviewState
// from the archive and exports the standardized data.
func TestCompactionFoldsFinishedSession(t *testing.T) {
	const prefetch = 2
	dir := storeDir(t)
	svc := bootService(t, dir, prefetch)
	ds, err := svc.CreateDataset("paper", "key", "", strings.NewReader(paperCSV))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.OpenSession(ds.ID, "Name")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		id, ok := nextUndecided(t, svc, sess.ID)
		if !ok {
			break
		}
		if _, err := svc.Decide(sess.ID, id, scriptedDecision(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := quiesce(t, svc, sess.ID, prefetch)
	wantRecords, err := svc.Export(ds.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	// Compaction runs on the finishing decision (or the generator's
	// exhaustion); give the slower path a moment.
	sessDir := filepath.Join(dir, "datasets", ds.ID, "sessions", sess.ID)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(sessDir, "wal.jsonl")); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("WAL never compacted away")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(sessDir, "state.json")); err != nil {
		t.Fatalf("archived state missing: %v", err)
	}
	killService(svc)

	svc = bootService(t, dir, prefetch)
	defer killService(svc)
	got, err := svc.ReviewState(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON, wantJSON := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("archived state diverged\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
	info, err := svc.GetSession(sess.ID)
	if err != nil || info.Status != StatusExhausted {
		t.Fatalf("restored compacted session = %+v, %v", info, err)
	}
	// Deciding against a compacted session is a conflict, not a crash.
	if _, err := svc.Decide(sess.ID, 0, goldrec.Approved); err == nil {
		t.Fatal("decide on compacted session succeeded")
	}
	gotRecords, err := svc.Export(ds.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, gotRecords), mustJSON(t, wantRecords); !bytes.Equal(a, b) {
		t.Fatalf("export after compacted reboot diverged\n got: %s\nwant: %s", a, b)
	}
}

// TestDeleteSessionFoldsAppliedWork deletes a session mid-review and
// verifies its applied decisions survive a restart (folded into the
// snapshot), the column is free for a new session, and the durable
// session is gone.
func TestDeleteSessionFoldsAppliedWork(t *testing.T) {
	const prefetch = 2
	dir := storeDir(t)
	svc := bootService(t, dir, prefetch)
	ds, err := svc.CreateDataset("paper", "key", "", strings.NewReader(paperCSV))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.OpenSession(ds.ID, "Name")
	if err != nil {
		t.Fatal(err)
	}
	// Approve one group so there is applied work to fold.
	gid, ok := nextUndecided(t, svc, sess.ID)
	if !ok {
		t.Fatal("no groups")
	}
	if _, err := svc.Decide(sess.ID, gid, goldrec.Approved); err != nil {
		t.Fatal(err)
	}
	wantRecords, err := svc.Export(ds.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteSession(sess.ID); err != nil {
		t.Fatal(err)
	}
	killService(svc)

	svc = bootService(t, dir, prefetch)
	defer killService(svc)
	if _, err := svc.GetSession(sess.ID); err == nil {
		t.Fatal("deleted session restored")
	}
	gotRecords, err := svc.Export(ds.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, gotRecords), mustJSON(t, wantRecords); !bytes.Equal(a, b) {
		t.Fatalf("applied work lost on delete+restart\n got: %s\nwant: %s", a, b)
	}
	// The column is free again.
	if _, err := svc.OpenSession(ds.ID, "Name"); err != nil {
		t.Fatalf("reopening deleted column: %v", err)
	}
}

// TestDeleteDatasetPurgesStore verifies explicit dataset deletion is
// permanent: nothing is restorable afterwards, even via direct session
// lookup.
func TestDeleteDatasetPurgesStore(t *testing.T) {
	dir := storeDir(t)
	svc := bootService(t, dir, 2)
	ds, err := svc.CreateDataset("paper", "key", "", strings.NewReader(paperCSV))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.OpenSession(ds.ID, "Name")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteDataset(ds.ID); err != nil {
		t.Fatal(err)
	}
	killService(svc)

	svc = bootService(t, dir, 2)
	defer killService(svc)
	if _, err := svc.GetDataset(ds.ID); err == nil {
		t.Fatal("deleted dataset restored")
	}
	if _, err := svc.GetSession(sess.ID); err == nil {
		t.Fatal("session of deleted dataset restored")
	}
	if list := svc.ListDatasets(); len(list) != 0 {
		t.Fatalf("datasets after purge = %v", list)
	}
}

// TestRecoverConcurrentColumns crashes a dataset with two mid-review
// column sessions and verifies both restore and finish correctly.
func TestRecoverConcurrentColumns(t *testing.T) {
	const prefetch = 2
	dir := storeDir(t)
	svc := bootService(t, dir, prefetch)
	ds, err := svc.CreateDataset("paper", "key", "", strings.NewReader(paperCSV))
	if err != nil {
		t.Fatal(err)
	}
	columns := []string{"Name", "Address"}
	states := make(map[string]goldrec.ReviewState)
	ids := make(map[string]string)
	for _, col := range columns {
		sess, err := svc.OpenSession(ds.ID, col)
		if err != nil {
			t.Fatal(err)
		}
		ids[col] = sess.ID
		gid, ok := nextUndecided(t, svc, sess.ID)
		if !ok {
			t.Fatalf("%s: no groups", col)
		}
		if _, err := svc.Decide(sess.ID, gid, goldrec.Approved); err != nil {
			t.Fatal(err)
		}
		states[col] = quiesce(t, svc, sess.ID, prefetch)
	}
	killService(svc)

	svc = bootService(t, dir, prefetch)
	defer killService(svc)
	for _, col := range columns {
		restored := quiesce(t, svc, ids[col], prefetch)
		if got, want := mustJSON(t, restored), mustJSON(t, states[col]); !bytes.Equal(got, want) {
			t.Fatalf("column %s state diverged\n got: %s\nwant: %s", col, got, want)
		}
	}
	// Both sessions continue independently to exhaustion.
	for _, col := range columns {
		for i := 1; ; i++ {
			gid, ok := nextUndecided(t, svc, ids[col])
			if !ok {
				break
			}
			if _, err := svc.Decide(ids[col], gid, scriptedDecision(i)); err != nil {
				t.Fatalf("%s decision %d: %v", col, i, err)
			}
		}
	}
	if _, err := svc.Export(ds.ID, true); err != nil {
		t.Fatal(err)
	}
}

// TestUploadTooLarge covers the streaming upload cap.
func TestUploadTooLarge(t *testing.T) {
	svc := New(Options{MaxUploadBytes: 16})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	status := doJSON(t, "POST", ts.URL+"/v1/datasets?name=big&key=key", strings.NewReader(paperCSV), nil)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", status)
	}
}
