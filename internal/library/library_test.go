package library

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/goldrec/goldrec/internal/dsl"
	"github.com/goldrec/goldrec/internal/store"
)

var (
	progConst = dsl.Program{dsl.ConstantStr{S: "N/A"}}
	progTrim  = dsl.Program{dsl.SubStr{L: dsl.ConstPos{K: 1}, R: dsl.ConstPos{K: -2}}}
	progFuzzy = dsl.Program{dsl.Prefix{Term: dsl.TermDigit, K: 1}} // non-deterministic
)

func openFS(t *testing.T, dir string) store.Store {
	t.Helper()
	s, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRecordAndList(t *testing.T) {
	r, err := Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	l := r.For("tn_01")
	for i := 0; i < 3; i++ {
		if err := l.Record(progConst, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Record(progConst, false); err != nil {
		t.Fatal(err)
	}
	if err := l.Record(progTrim, false); err != nil {
		t.Fatal(err)
	}
	// Empty programs record nothing.
	if err := l.Record(dsl.Program{}, true); err != nil {
		t.Fatal(err)
	}
	got := l.List()
	want := []ProgramStats{
		{Key: dsl.EncodeProgram(progConst), Display: progConst.String(), Approvals: 3, Rejections: 1},
		{Key: dsl.EncodeProgram(progTrim), Display: progTrim.String(), Rejections: 1},
	}
	if want[0].Key > want[1].Key {
		want[0], want[1] = want[1], want[0]
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %+v, want %+v", got, want)
	}
	if l.Len() != 2 || r.TotalPrograms() != 2 {
		t.Fatalf("Len = %d, TotalPrograms = %d, want 2, 2", l.Len(), r.TotalPrograms())
	}
}

func TestPriorsEligibility(t *testing.T) {
	r, err := Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	l := r.For("")
	// Approved once: eligible.
	if err := l.Record(progConst, true); err != nil {
		t.Fatal(err)
	}
	// Rejections >= approvals: contradicted, not offered.
	if err := l.Record(progTrim, true); err != nil {
		t.Fatal(err)
	}
	if err := l.Record(progTrim, false); err != nil {
		t.Fatal(err)
	}
	// Non-deterministic: never offered even when approved.
	if err := l.Record(progFuzzy, true); err != nil {
		t.Fatal(err)
	}
	got := l.Priors()
	if len(got) != 1 || got[0].Key != dsl.EncodeProgram(progConst) {
		t.Fatalf("Priors = %+v, want only %s", got, dsl.EncodeProgram(progConst))
	}
	if got[0].Approvals != 1 || got[0].Rejections != 0 {
		t.Fatalf("Priors counts = %+v", got[0])
	}
	if _, ok := got[0].Program.Run("anything"); !ok {
		t.Fatal("prior program does not run")
	}
	// A later approval flips the contradicted program back on.
	if err := l.Record(progTrim, true); err != nil {
		t.Fatal(err)
	}
	if got := l.Priors(); len(got) != 2 {
		t.Fatalf("Priors after re-approval = %+v, want 2", got)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openFS(t, dir)
	r, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	l := r.For("tn_01")
	for i := 0; i < 5; i++ {
		if err := l.Record(progConst, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.For("").Record(progTrim, true); err != nil {
		t.Fatal(err)
	}
	want := l.List()
	wantOpen := r.For("").List()

	st2 := openFS(t, dir)
	r2, err := Open(st2)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.For("tn_01").List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded List = %+v, want %+v", got, want)
	}
	if got := r2.For("").List(); !reflect.DeepEqual(got, wantOpen) {
		t.Fatalf("reloaded open-mode List = %+v, want %+v", got, wantOpen)
	}
}

// TestCompactionConverges pushes past compactEvery so a snapshot is
// written mid-stream, then reloads: snapshot + any residual log must
// reproduce the live state exactly.
func TestCompactionConverges(t *testing.T) {
	dir := t.TempDir()
	st := openFS(t, dir)
	r, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	l := r.For("tn_01")
	for i := 0; i < compactEvery+7; i++ {
		if err := l.Record(progConst, true); err != nil {
			t.Fatal(err)
		}
		if err := l.Record(progTrim, i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.GetLogSnapshot(store.LibraryLog, "tn_01"); err != nil {
		t.Fatalf("no snapshot after %d changes: %v", 2*(compactEvery+7), err)
	}
	want := l.List()

	r2, err := Open(openFS(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.For("tn_01").List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded List = %+v, want %+v", got, want)
	}
}

// TestTornTailConverges simulates a crash mid-append: the torn record's
// mutation was never acknowledged, so the reloaded library must equal
// the state as of the last acknowledged record.
func TestTornTailConverges(t *testing.T) {
	dir := t.TempDir()
	st := openFS(t, dir)
	r, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	l := r.For("tn_01")
	if err := l.Record(progConst, true); err != nil {
		t.Fatal(err)
	}
	want := l.List()

	path := filepath.Join(dir, "libraries", "tn_01", "changes.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"put","program":{"key":"g1:`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r2, err := Open(openFS(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.For("tn_01").List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded List over torn tail = %+v, want %+v", got, want)
	}
}

func TestDeletePurges(t *testing.T) {
	dir := t.TempDir()
	st := openFS(t, dir)
	r, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.For("tn_01").Record(progConst, true); err != nil {
		t.Fatal(err)
	}
	if err := r.For("tn_02").Record(progTrim, true); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("tn_01"); err != nil {
		t.Fatal(err)
	}
	if n := r.For("tn_01").Len(); n != 0 {
		t.Fatalf("deleted library Len = %d, want 0", n)
	}
	// On disk too: a reload sees nothing for tn_01, tn_02 untouched.
	r2, err := Open(openFS(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if n := r2.For("tn_01").Len(); n != 0 {
		t.Fatalf("reloaded deleted library Len = %d, want 0", n)
	}
	if n := r2.For("tn_02").Len(); n != 1 {
		t.Fatalf("reloaded sibling library Len = %d, want 1", n)
	}
	if err := r.Delete("tn_99"); err != nil {
		t.Fatal(err)
	}
}

// TestRecordRollsBackOnLogFailure: a store that refuses the append must
// leave the in-memory state untouched.
type failStore struct {
	store.Null
	fail bool
}

func (f *failStore) AppendLog(store.LogKind, string, ...[]byte) error {
	if f.fail {
		return errors.New("disk full")
	}
	return nil
}

func TestRecordRollsBackOnLogFailure(t *testing.T) {
	fs := &failStore{}
	r, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	l := r.For("tn_01")
	if err := l.Record(progConst, true); err != nil {
		t.Fatal(err)
	}
	fs.fail = true
	if err := l.Record(progConst, true); err == nil {
		t.Fatal("Record with failing store: want error")
	}
	if err := l.Record(progTrim, true); err == nil {
		t.Fatal("Record of new program with failing store: want error")
	}
	got := l.List()
	if len(got) != 1 || got[0].Approvals != 1 {
		t.Fatalf("state after failed records = %+v, want one program with 1 approval", got)
	}
}

func TestSnapshotShutdownHygiene(t *testing.T) {
	dir := t.TempDir()
	st := openFS(t, dir)
	r, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.For("tn_01").Record(progConst, true); err != nil {
		t.Fatal(err)
	}
	r.Snapshot()
	if _, err := st.GetLogSnapshot(store.LibraryLog, "tn_01"); err != nil {
		t.Fatalf("no snapshot after Snapshot(): %v", err)
	}
	// The change log it subsumed is gone; reload still converges.
	r2, err := Open(openFS(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.For("tn_01").List(); len(got) != 1 || got[0].Approvals != 1 {
		t.Fatalf("reloaded after Snapshot = %+v", got)
	}
}
