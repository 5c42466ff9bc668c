package store

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestJournalCompactsByRewrite: the compactEvery-th record a journal's
// log holds rewrites it to the one record state returns, counting
// records a replay read, and no snapshot file is written.
func TestJournalCompactsByRewrite(t *testing.T) {
	dir := t.TempDir()
	s := openLogFS(t, dir)
	calls := 0
	state := func() any {
		calls++
		return map[string]int{"version": 1, "calls": calls}
	}
	j := NewJournal(s, LibraryLog, "tn_01")
	for i := 1; i < compactEvery; i++ {
		if err := j.Append(map[string]int{"n": i}, state); err != nil {
			t.Fatal(err)
		}
	}
	if got := replayKeyed(t, s, LibraryLog, "tn_01"); len(got) != compactEvery-1 || calls != 0 {
		t.Fatalf("after %d appends: %d records, %d state calls; want no compaction", compactEvery-1, len(got), calls)
	}
	if err := j.Append(map[string]int{"n": compactEvery}, state); err != nil {
		t.Fatal(err)
	}
	if got, want := replayKeyed(t, s, LibraryLog, "tn_01"), []string{`{"calls":1,"version":1}`}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after %d appends: log = %v, want %v", compactEvery, got, want)
	}
	if got := replayKeyed(t, s, LibraryLog, ""); len(got) != 0 {
		t.Fatalf("compaction touched the open-mode log: %v", got)
	}

	// A reopened journal counts the state record it replays.
	j = NewJournal(s, LibraryLog, "tn_01")
	n := 0
	if err := j.Replay(func([]byte) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("replay = %d records, %v; want 1", n, err)
	}
	for i := 1; i < compactEvery; i++ {
		if err := j.Append(map[string]int{"n": i}, state); err != nil {
			t.Fatal(err)
		}
	}
	if got := replayKeyed(t, s, LibraryLog, "tn_01"); len(got) != 1 || calls != 2 {
		t.Fatalf("reopened journal: %d records, %d state calls; want 1 and 2", len(got), calls)
	}
}

// rewriteFails is a store whose rewrites fail until it is healed.
type rewriteFails struct {
	Null
	healed   bool
	appends  int
	rewrites int
}

func (s *rewriteFails) AppendLog(LogKind, string, ...[]byte) error {
	s.appends++
	return nil
}

func (s *rewriteFails) RewriteLog(LogKind, string, [][]byte) (int64, error) {
	s.rewrites++
	if !s.healed {
		return 0, errors.New("disk full")
	}
	return 1, nil
}

// TestJournalRetriesFailedCompaction: a failed rewrite does not fail
// the append it follows — that record is durable — and the next append
// tries again.
func TestJournalRetriesFailedCompaction(t *testing.T) {
	st := &rewriteFails{}
	j := NewJournal(st, TenantLog, "")
	state := func() any { return "state" }
	for i := 0; i < compactEvery+1; i++ {
		if err := j.Append(fmt.Sprint(i), state); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if st.rewrites != 2 {
		t.Fatalf("%d rewrites after two appends at the threshold, want 2", st.rewrites)
	}
	st.healed = true
	if err := j.Append("x", state); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("y", state); err != nil {
		t.Fatal(err)
	}
	if st.rewrites != 3 || st.appends != compactEvery+3 {
		t.Fatalf("%d rewrites, %d appends; want 3 and %d", st.rewrites, st.appends, compactEvery+3)
	}
}
