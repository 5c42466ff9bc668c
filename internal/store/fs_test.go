package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/goldrec/goldrec/table"
)

func testDataset() *table.Dataset {
	return &table.Dataset{
		Name:  "paper",
		Attrs: []string{"Name", "Address"},
		Clusters: []table.Cluster{
			{Key: "C1", Records: []table.Record{
				{Values: []string{"Mary Lee", "9 St, 02141 Wisconsin"}},
				{Values: []string{"M. Lee", "9th St, 02141 WI"}},
			}},
			{Key: "C2", Records: []table.Record{
				{Source: "s1", Values: []string{"James Smith", "3rd E Ave, 33990 California"}},
			}},
		},
	}
}

func openTestFS(t *testing.T) *FS {
	t.Helper()
	s, err := OpenFS(filepath.Join(t.TempDir(), "store"), FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestFSDatasetRoundTrip(t *testing.T) {
	s := openTestFS(t)
	ds := testDataset()
	meta := DatasetMeta{ID: "ds_0a1b", Name: "paper", KeyCol: "key", Created: time.Unix(1700000000, 0).UTC()}
	if err := s.PutDataset(context.Background(), meta, ds); err != nil {
		t.Fatal(err)
	}

	gotMeta, gotDS, err := s.LoadDataset("ds_0a1b")
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	if gotDS.Name != ds.Name || len(gotDS.Clusters) != 2 {
		t.Fatalf("dataset = %+v", gotDS)
	}
	if got := gotDS.Clusters[1].Records[0]; got.Source != "s1" || got.Values[1] != "3rd E Ave, 33990 California" {
		t.Fatalf("record round-trip = %+v", got)
	}

	list, err := s.ListDatasets()
	if err != nil || len(list) != 1 || list[0].ID != "ds_0a1b" {
		t.Fatalf("list = %v, %v", list, err)
	}

	if err := s.DeleteDataset("ds_0a1b"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadDataset("ds_0a1b"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("load after delete: %v", err)
	}
	if err := s.DeleteDataset("ds_0a1b"); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

func TestFSRejectsBadIDs(t *testing.T) {
	s := openTestFS(t)
	for _, id := range []string{"", "../etc", "ds_..", "ds_XYZ", "nope", "ds_1/../.."} {
		if err := s.PutDataset(context.Background(), DatasetMeta{ID: id}, testDataset()); err == nil {
			t.Errorf("PutDataset accepted id %q", id)
		}
		if _, _, err := s.LoadDataset(id); err == nil {
			t.Errorf("LoadDataset accepted id %q", id)
		}
		if err := s.AppendWAL(context.Background(), "ds_0a", id, WALRecord{Op: OpIssue}); err == nil {
			t.Errorf("AppendWAL accepted session id %q", id)
		}
		// On the lookup paths a malformed id is a miss, not an internal
		// failure: the service maps ErrNotExist to 404, anything else to
		// a 500 the client would read as "retry me".
		if _, _, err := s.LoadDataset(id); !errors.Is(err, ErrNotExist) {
			t.Errorf("LoadDataset(%q) = %v, want ErrNotExist", id, err)
		}
		if _, err := s.FindSession(id); !errors.Is(err, ErrNotExist) {
			t.Errorf("FindSession(%q) = %v, want ErrNotExist", id, err)
		}
	}
}

func TestFSSessionsAndWAL(t *testing.T) {
	s := openTestFS(t)
	if err := s.PutDataset(context.Background(), DatasetMeta{ID: "ds_0a", Name: "d", KeyCol: "k"}, testDataset()); err != nil {
		t.Fatal(err)
	}
	sm := SessionMeta{ID: "cs_01", DatasetID: "ds_0a", Column: "Name", Created: time.Unix(1700000001, 0).UTC()}
	if err := s.PutSession(sm); err != nil {
		t.Fatal(err)
	}

	recs := []WALRecord{
		{Op: OpIssue, GroupID: 0},
		{Op: OpIssue, GroupID: 1},
		{Op: OpDecide, GroupID: 0, Decision: "approve"},
		{Op: OpDecide, GroupID: 1, Decision: "reject"},
	}
	for _, r := range recs {
		if err := s.AppendWAL(context.Background(), "ds_0a", "cs_01", r); err != nil {
			t.Fatal(err)
		}
	}

	var got []WALRecord
	if err := s.ReplayWAL(context.Background(), "ds_0a", "cs_01", func(r WALRecord) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Op != recs[i].Op || got[i].GroupID != recs[i].GroupID ||
			got[i].Decision != recs[i].Decision || !bytes.Equal(got[i].Warm, recs[i].Warm) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}

	// Replay of a session with no WAL is empty, not an error.
	if err := s.PutSession(SessionMeta{ID: "cs_02", DatasetID: "ds_0a", Column: "Address"}); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplayWAL(context.Background(), "ds_0a", "cs_02", func(WALRecord) error {
		t.Fatal("unexpected record")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	list, err := s.ListSessions("ds_0a")
	if err != nil || len(list) != 2 {
		t.Fatalf("sessions = %v, %v", list, err)
	}
	found, err := s.FindSession("cs_01")
	if err != nil || found.DatasetID != "ds_0a" || found.Column != "Name" {
		t.Fatalf("find = %+v, %v", found, err)
	}
	if _, err := s.FindSession("cs_ff"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("find missing: %v", err)
	}

	if err := s.DeleteSession("ds_0a", "cs_01"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FindSession("cs_01"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("find after delete: %v", err)
	}
}

// TestFSReplayTornTail simulates a crash mid-append: a partial final
// line is dropped, while corruption mid-file is reported.
func TestFSReplayTornTail(t *testing.T) {
	s := openTestFS(t)
	if err := s.PutDataset(context.Background(), DatasetMeta{ID: "ds_0a", KeyCol: "k"}, testDataset()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSession(SessionMeta{ID: "cs_01", DatasetID: "ds_0a", Column: "Name"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendWAL(context.Background(), "ds_0a", "cs_01", WALRecord{Op: OpIssue, GroupID: 0}); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(s.root, "datasets", "ds_0a", "sessions", "cs_01", "wal.jsonl")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"decide","gro`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var got []WALRecord
	if err := s.ReplayWAL(context.Background(), "ds_0a", "cs_01", func(r WALRecord) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("torn tail should be dropped, got %v", err)
	}
	if len(got) != 1 || got[0].Op != OpIssue {
		t.Fatalf("replayed %v, want just the issue record", got)
	}

	// Appending after the torn tail must not merge with it: the next
	// handle open truncates the torn bytes first.
	if err := s.CloseWAL("ds_0a", "cs_01"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendWAL(context.Background(), "ds_0a", "cs_01", WALRecord{Op: OpDecide, GroupID: 0, Decision: "approve"}); err != nil {
		t.Fatal(err)
	}
	got = nil
	if err := s.ReplayWAL(context.Background(), "ds_0a", "cs_01", func(r WALRecord) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("replay after repaired append: %v", err)
	}
	if len(got) != 2 || got[1].Op != OpDecide || got[1].GroupID != 0 || got[1].Decision != "approve" {
		t.Fatalf("replay after repaired append = %v", got)
	}

	// Corruption that is *not* the final line is an error.
	if err := os.WriteFile(wal, []byte("garbage\n{\"op\":\"issue\",\"group\":0}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplayWAL(context.Background(), "ds_0a", "cs_01", func(WALRecord) error { return nil }); err == nil {
		t.Fatal("mid-file corruption not reported")
	}
}

// TestFSConcurrentCompaction compacts two sessions of one dataset in
// parallel many times; both folds must survive (the per-dataset lock
// prevents the write-same-version race).
func TestFSConcurrentCompaction(t *testing.T) {
	s := openTestFS(t)
	if err := s.PutDataset(context.Background(), DatasetMeta{ID: "ds_0a", KeyCol: "k"}, testDataset()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSession(SessionMeta{ID: "cs_01", DatasetID: "ds_0a", Column: "Name"}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSession(SessionMeta{ID: "cs_02", DatasetID: "ds_0a", Column: "Address"}); err != nil {
		t.Fatal(err)
	}
	names := [][]string{{"N", "N"}, {"N"}}
	addrs := [][]string{{"A", "A"}, {"A"}}
	errc := make(chan error, 2)
	go func() { errc <- s.CompactSession("ds_0a", "cs_01", 0, names, []byte(`{}`)) }()
	go func() { errc <- s.CompactSession("ds_0a", "cs_02", 1, addrs, []byte(`{}`)) }()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	_, ds, err := s.LoadDataset("ds_0a")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Clusters[0].Records[0].Values[0] != "N" || ds.Clusters[0].Records[0].Values[1] != "A" {
		t.Fatalf("a concurrent fold was lost: %+v", ds.Clusters[0].Records[0])
	}
	for _, id := range []string{"cs_01", "cs_02"} {
		if sm, err := s.FindSession(id); err != nil || !sm.Compacted {
			t.Fatalf("session %s after concurrent compaction = %+v, %v", id, sm, err)
		}
	}
}

func TestFSCompactSession(t *testing.T) {
	s := openTestFS(t)
	ds := testDataset()
	if err := s.PutDataset(context.Background(), DatasetMeta{ID: "ds_0a", KeyCol: "k"}, ds); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSession(SessionMeta{ID: "cs_01", DatasetID: "ds_0a", Column: "Name"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendWAL(context.Background(), "ds_0a", "cs_01", WALRecord{Op: OpIssue, GroupID: 0}); err != nil {
		t.Fatal(err)
	}

	// Fold standardized Name values (column 0) into the snapshot.
	values := [][]string{{"Mary Lee", "Mary Lee"}, {"James Smith"}}
	state := []byte(`{"dataset":"paper","column":"Name"}`)
	if err := s.CompactSession("ds_0a", "cs_01", 0, values, state); err != nil {
		t.Fatal(err)
	}

	_, got, err := s.LoadDataset("ds_0a")
	if err != nil {
		t.Fatal(err)
	}
	if v := got.Clusters[0].Records[1].Values[0]; v != "Mary Lee" {
		t.Fatalf("folded value = %q, want %q", v, "Mary Lee")
	}
	if v := got.Clusters[0].Records[1].Values[1]; v != "9th St, 02141 WI" {
		t.Fatalf("untouched column changed: %q", v)
	}

	// The WAL is gone, the meta reads compacted, the state is archived.
	if err := s.ReplayWAL(context.Background(), "ds_0a", "cs_01", func(WALRecord) error {
		t.Fatal("WAL survived compaction")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sm, err := s.FindSession("cs_01")
	if err != nil || !sm.Compacted {
		t.Fatalf("meta after compaction = %+v, %v", sm, err)
	}
	raw, err := s.LoadSessionState("ds_0a", "cs_01")
	if err != nil || string(raw) != string(state) {
		t.Fatalf("archived state = %q, %v", raw, err)
	}

	// Old snapshot versions are pruned; only the latest remains.
	entries, _ := os.ReadDir(filepath.Join(s.root, "datasets", "ds_0a"))
	snaps := 0
	for _, e := range entries {
		if snapshotPattern.MatchString(e.Name()) {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("snapshot files after compaction = %d, want 1", snaps)
	}

	// A second session compacting its own column preserves the first fold.
	if err := s.PutSession(SessionMeta{ID: "cs_02", DatasetID: "ds_0a", Column: "Address"}); err != nil {
		t.Fatal(err)
	}
	addr := [][]string{{"9th St, 02141 WI", "9th St, 02141 WI"}, {"3 E Avenue, 33990 CA"}}
	if err := s.CompactSession("ds_0a", "cs_02", 1, addr, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	_, got, err = s.LoadDataset("ds_0a")
	if err != nil {
		t.Fatal(err)
	}
	if got.Clusters[0].Records[1].Values[0] != "Mary Lee" || got.Clusters[0].Records[0].Values[1] != "9th St, 02141 WI" {
		t.Fatalf("second fold lost the first: %+v", got.Clusters[0])
	}
}

// TestFSCompactCommitPoint verifies the folded set in the snapshot —
// not the WAL's absence or the meta flag — decides compaction: a
// leftover WAL plus an un-flipped meta (crash between the snapshot
// write and the cleanup steps) must still read as compacted.
func TestFSCompactCommitPoint(t *testing.T) {
	s := openTestFS(t)
	if err := s.PutDataset(context.Background(), DatasetMeta{ID: "ds_0a", KeyCol: "k"}, testDataset()); err != nil {
		t.Fatal(err)
	}
	sm := SessionMeta{ID: "cs_01", DatasetID: "ds_0a", Column: "Name"}
	if err := s.PutSession(sm); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendWAL(context.Background(), "ds_0a", "cs_01", WALRecord{Op: OpIssue, GroupID: 0}); err != nil {
		t.Fatal(err)
	}
	values := [][]string{{"a", "a"}, {"b"}}
	if err := s.CompactSession("ds_0a", "cs_01", 0, values, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: resurrect a WAL and revert the meta flag.
	if err := s.AppendWAL(context.Background(), "ds_0a", "cs_01", WALRecord{Op: OpIssue, GroupID: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSession(sm); err != nil { // Compacted=false again
		t.Fatal(err)
	}

	got, err := s.FindSession("cs_01")
	if err != nil || !got.Compacted {
		t.Fatalf("folded-set overlay missing: %+v, %v", got, err)
	}
	list, err := s.ListSessions("ds_0a")
	if err != nil || len(list) != 1 || !list[0].Compacted {
		t.Fatalf("list overlay missing: %+v, %v", list, err)
	}
}

func TestFSSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := OpenFS(dir, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutDataset(context.Background(), DatasetMeta{ID: "ds_0a", KeyCol: "k"}, testDataset()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSession(SessionMeta{ID: "cs_01", DatasetID: "ds_0a", Column: "Name"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendWAL(context.Background(), "ds_0a", "cs_01", WALRecord{Op: OpIssue, GroupID: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFS(dir, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var n int
	if err := s2.ReplayWAL(context.Background(), "ds_0a", "cs_01", func(WALRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records after reopen, want 1", n)
	}
	// Appending after reopen continues the same log.
	if err := s2.AppendWAL(context.Background(), "ds_0a", "cs_01", WALRecord{Op: OpDecide, GroupID: 0, Decision: "reject"}); err != nil {
		t.Fatal(err)
	}
	n = 0
	if err := s2.ReplayWAL(context.Background(), "ds_0a", "cs_01", func(WALRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d records, want 2", n)
	}
}

// TestTenantPersistence covers the tenant snapshot + change-log
// primitives: replay order, snapshot put clearing the log it
// subsumes, torn-tail tolerance, and the Null backend's no-ops.
func TestTenantPersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	replay := func() []string {
		t.Helper()
		var got []string
		if err := s.ReplayLog(TenantLog, "", func(data []byte) error {
			got = append(got, string(data))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}

	if got := replay(); len(got) != 0 {
		t.Fatalf("empty store replayed changes %v", got)
	}

	// Appends replay in order.
	for _, rec := range []string{`{"op":"put","id":"a"}`, `{"op":"put","id":"b"}`, `{"op":"delete","id":"a"}`} {
		if err := s.AppendLog(TenantLog, "", []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if got := replay(); len(got) != 3 || got[0] != `{"op":"put","id":"a"}` || got[2] != `{"op":"delete","id":"a"}` {
		t.Fatalf("replayed changes = %v", got)
	}

	// A rewrite to one state record replaces the log.
	const state = `{"version":1,"tenants":[]}`
	if _, err := s.RewriteLog(TenantLog, "", [][]byte{[]byte(state)}); err != nil {
		t.Fatal(err)
	}
	if got := replay(); len(got) != 1 || got[0] != state {
		t.Fatalf("replay after rewrite = %v, want [%s]", got, state)
	}

	// A torn final record (crash mid-append) is dropped; earlier
	// records still replay, and the next process's first append
	// repairs the tail.
	if err := s.AppendLog(TenantLog, "", []byte(`{"op":"put","id":"c"}`)); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "tenants", "changes.jsonl")
	appendTorn(t, logPath, `{"op":"put","i`)
	if got := replay(); len(got) != 2 || got[1] != `{"op":"put","id":"c"}` {
		t.Fatalf("replay with torn tail = %v", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = OpenFS(dir, FSOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendLog(TenantLog, "", []byte(`{"op":"put","id":"d"}`)); err != nil {
		t.Fatal(err)
	}
	if got := replay(); len(got) != 3 || got[2] != `{"op":"put","id":"d"}` {
		t.Fatalf("replay after tail repair = %v", got)
	}

	// Corruption anywhere but the tail is an error.
	if err := os.WriteFile(logPath, []byte("not json\n"+`{"op":"put","id":"e"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplayLog(TenantLog, "", func([]byte) error { return nil }); err == nil {
		t.Fatal("mid-log corruption replayed silently")
	}
	// The tenant log is a singleton: it takes no id.
	if err := s.AppendLog(TenantLog, "tn_01", []byte(`{}`)); err == nil {
		t.Fatal("AppendLog(TenantLog) accepted an id")
	}

	// Null: writes vanish, reads find nothing.
	var n Null
	if size, err := n.RewriteLog(TenantLog, "", [][]byte{[]byte("x")}); size != 0 || err != nil {
		t.Fatalf("Null.RewriteLog = %d, %v", size, err)
	}
	if err := n.AppendLog(TenantLog, "", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := n.ReplayLog(TenantLog, "", func([]byte) error {
		t.Fatal("Null replayed a change")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
