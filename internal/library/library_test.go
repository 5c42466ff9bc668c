package library

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/goldrec/goldrec/internal/dsl"
	"github.com/goldrec/goldrec/internal/store"
)

var (
	progConst = dsl.Program{dsl.ConstantStr{S: "N/A"}}
	progTrim  = dsl.Program{dsl.SubStr{L: dsl.ConstPos{K: 1}, R: dsl.ConstPos{K: -2}}}
	progFuzzy = dsl.Program{dsl.Prefix{Term: dsl.TermDigit, K: 1}} // non-deterministic
)

// compactEvery is store.Journal's compaction period: its log is
// rewritten to one state record once it holds this many records.
const compactEvery = 64

// logLines returns the non-blank lines of the file at path (none when
// it is missing).
func logLines(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return out
}

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

// TestCompactionConverges pushes past compactEvery so the log is
// rewritten to a state record mid-stream, then reloads: the state
// record + the records after it must reproduce the live state exactly.
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
	if lines := logLines(t, filepath.Join(dir, "libraries", "tn_01", "changes.jsonl")); len(lines) >= compactEvery || !strings.HasPrefix(lines[0], `{"version":1,`) {
		t.Fatalf("log after %d changes holds %d records; want fewer, a state record first", 2*(compactEvery+7), len(lines))
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

// writeParentDir writes a tenant's library in the parent format by
// hand: snapshot.json beside changes.jsonl.
func writeParentDir(t *testing.T, dir, sub, snapshot string, changes ...string) {
	t.Helper()
	sub = filepath.Join(dir, "libraries", sub)
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "snapshot.json"), []byte(snapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	for _, c := range changes {
		log.WriteString(c + "\n")
	}
	if err := os.WriteFile(filepath.Join(sub, "changes.jsonl"), []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// stats renders one program's stats record.
func stats(p dsl.Program, approvals, rejections int) string {
	return fmt.Sprintf(`{"key":%q,"display":%q,"approvals":%d,"rejections":%d}`, dsl.EncodeProgram(p), p.String(), approvals, rejections)
}

// TestStaleLogConvergence: a change log replayed over a snapshot that
// already holds it — the parent's crash window between its snapshot
// write and its log clear — converges to the snapshot state, and so
// does a snapshot.json left beside a rewritten log — the crash window
// between a rewrite and the snapshot's removal.
func TestStaleLogConvergence(t *testing.T) {
	dir := t.TempDir()
	writeParentDir(t, dir, "tn_01", `{"version":1,"programs":[`+stats(progConst, 2, 0)+`]}`,
		`{"op":"put","program":`+stats(progConst, 1, 0)+`}`,
		`{"op":"put","program":`+stats(progConst, 2, 0)+`}`)
	r, err := Open(openFS(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.For("tn_01").List(); len(got) != 1 || got[0].Approvals != 2 {
		t.Fatalf("after stale-log replay: %+v; want one program with 2 approvals", got)
	}

	dir = t.TempDir()
	writeParentDir(t, dir, "tn_01", `{"version":1,"programs":[`+stats(progConst, 2, 0)+`]}`,
		`{"version":1,"programs":[`+stats(progTrim, 1, 1)+`]}`)
	if r, err = Open(openFS(t, dir)); err != nil {
		t.Fatal(err)
	}
	if got := r.For("tn_01").List(); len(got) != 1 || got[0].Key != dsl.EncodeProgram(progTrim) {
		t.Fatalf("snapshot.json beside a rewritten log: %+v; want only the state record's program", got)
	}
}

// TestRecoverParentFormat: libraries the parent format wrote —
// snapshot.json plus a change log whose head repeats records the
// snapshot already holds — load to exactly the state written, and the
// next compaction leaves no snapshot.json behind.
func TestRecoverParentFormat(t *testing.T) {
	dir := t.TempDir()
	writeParentDir(t, dir, "tn_01", `{"version":1,"programs":[`+stats(progConst, 3, 1)+`,`+stats(progTrim, 0, 2)+`]}`,
		`{"op":"put","program":`+stats(progConst, 2, 1)+`}`, // stale: the snapshot holds these two
		`{"op":"put","program":`+stats(progConst, 3, 1)+`}`,
		`{"op":"put","program":`+stats(progFuzzy, 1, 0)+`}`) // new since the snapshot
	writeParentDir(t, dir, "_open", `{"version":1,"programs":[`+stats(progTrim, 5, 0)+`]}`)

	want := []ProgramStats{
		{Key: dsl.EncodeProgram(progConst), Display: progConst.String(), Approvals: 3, Rejections: 1},
		{Key: dsl.EncodeProgram(progTrim), Display: progTrim.String(), Rejections: 2},
		{Key: dsl.EncodeProgram(progFuzzy), Display: progFuzzy.String(), Approvals: 1},
	}
	sort.Slice(want, func(a, b int) bool { return want[a].Key < want[b].Key })
	wantOpen := []ProgramStats{{Key: dsl.EncodeProgram(progTrim), Display: progTrim.String(), Approvals: 5}}
	r, err := Open(openFS(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	l := r.For("tn_01")
	if got := l.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("parent-format library loaded as\n%+v\nwant\n%+v", got, want)
	}
	if got := r.For("").List(); !reflect.DeepEqual(got, wantOpen) {
		t.Fatalf("parent-format open-mode library loaded as %+v, want %+v", got, wantOpen)
	}

	for i := 0; i < compactEvery; i++ {
		if err := l.Record(progConst, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "libraries", "tn_01", "snapshot.json")); !os.IsNotExist(err) {
		t.Fatalf("snapshot.json survived compaction: %v", err)
	}
	r2, err := Open(openFS(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r2.For("tn_01").List(), l.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded after compaction\n%+v\nwant\n%+v", got, want)
	}
}

// TestCompactionLeavesStateRecord: the compactEvery-th change rewrites
// the log to one state record, and a reload of that one record lists
// the same library.
func TestCompactionLeavesStateRecord(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(openFS(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	l := r.For("tn_01")
	for i := 0; i < compactEvery; i++ {
		if err := l.Record([]dsl.Program{progConst, progTrim}[i%2], i%3 != 0); err != nil {
			t.Fatal(err)
		}
	}
	lines := logLines(t, filepath.Join(dir, "libraries", "tn_01", "changes.jsonl"))
	if len(lines) != 1 || !strings.HasPrefix(lines[0], `{"version":1,"programs":[`) {
		t.Fatalf("log after %d changes = %d records %.60q; want one state record", compactEvery, len(lines), lines)
	}
	r2, err := Open(openFS(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r2.For("tn_01").List(), l.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("state record reloaded as %+v, want %+v", got, want)
	}
}
