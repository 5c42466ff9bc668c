package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func openLogFS(t *testing.T, dir string) *FS {
	t.Helper()
	s, err := OpenFS(dir, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func replayKeyed(t *testing.T, s Store, kind LogKind, id string) []string {
	t.Helper()
	var out []string
	if err := s.ReplayLog(kind, id, func(rec []byte) error {
		out = append(out, string(rec))
		return nil
	}); err != nil {
		t.Fatalf("ReplayLog(%s, %q): %v", kind, id, err)
	}
	return out
}

// appendTorn appends bytes without a trailing newline straight to the
// file at path, as a crash mid-append would leave them.
func appendTorn(t *testing.T, path, torn string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
}

// logCase adapts one log kind — the session WAL or a keyed log — to a
// common append/replay shape.
type logCase struct {
	name   string
	path   func(root string) string // the log file under root
	setup  func(t *testing.T, s *FS)
	append func(s *FS, n int) error
	replay func(s *FS) ([]string, error)
	// record renders record n as the log stores it.
	record func(n int) string
}

func keyedCase(kind LogKind, id, dir, file string) logCase {
	return logCase{
		name:  string(kind),
		path:  func(root string) string { return filepath.Join(root, string(kind), dir, file) },
		setup: func(*testing.T, *FS) {},
		append: func(s *FS, n int) error {
			return s.AppendLog(kind, id, []byte(fmt.Sprintf(`{"n":%d}`, n)))
		},
		replay: func(s *FS) ([]string, error) {
			var out []string
			err := s.ReplayLog(kind, id, func(rec []byte) error {
				out = append(out, string(rec))
				return nil
			})
			return out, err
		},
		record: func(n int) string { return fmt.Sprintf(`{"n":%d}`, n) },
	}
}

var logCases = []logCase{
	{
		name: "wal",
		path: func(root string) string {
			return filepath.Join(root, "datasets", "ds_0a", "sessions", "cs_01", "wal.jsonl")
		},
		setup: func(t *testing.T, s *FS) {
			if err := s.PutDataset(context.Background(), DatasetMeta{ID: "ds_0a", KeyCol: "k"}, testDataset()); err != nil {
				t.Fatal(err)
			}
			if err := s.PutSession(SessionMeta{ID: "cs_01", DatasetID: "ds_0a", Column: "Name"}); err != nil {
				t.Fatal(err)
			}
		},
		append: func(s *FS, n int) error {
			return s.AppendWAL(context.Background(), "ds_0a", "cs_01", WALRecord{Op: OpIssue, GroupID: n})
		},
		replay: func(s *FS) ([]string, error) {
			var out []string
			err := s.ReplayWAL(context.Background(), "ds_0a", "cs_01", func(r WALRecord) error {
				out = append(out, fmt.Sprintf(`{"op":%q,"group":%d}`, r.Op, r.GroupID))
				return nil
			})
			return out, err
		},
		record: func(n int) string { return fmt.Sprintf(`{"op":"issue","group":%d}`, n) },
	},
	keyedCase(TenantLog, "", "", "changes.jsonl"),
	keyedCase(LibraryLog, "tn_01", "tn_01", "changes.jsonl"),
	keyedCase(EventLog, "", openLogDir, "log.jsonl"),
}

// TestTornTailAllLogs crashes every log kind mid-append so that the
// torn final record is itself valid JSON, only missing its newline.
// Replay must drop it, and replay before and after the next append
// must agree on every record that was acknowledged.
func TestTornTailAllLogs(t *testing.T) {
	for _, c := range logCases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenFS(dir, FSOptions{})
			if err != nil {
				t.Fatal(err)
			}
			c.setup(t, s)
			if err := c.append(s, 0); err != nil {
				t.Fatal(err)
			}
			s.Close()
			appendTorn(t, c.path(dir), c.record(1))

			s = openLogFS(t, dir)
			before, err := c.replay(s)
			if err != nil {
				t.Fatal(err)
			}
			if want := []string{c.record(0)}; !reflect.DeepEqual(before, want) {
				t.Fatalf("replay over torn tail = %v, want %v", before, want)
			}
			if err := c.append(s, 2); err != nil {
				t.Fatal(err)
			}
			after, err := c.replay(s)
			if err != nil {
				t.Fatal(err)
			}
			if want := append(before, c.record(2)); !reflect.DeepEqual(after, want) {
				t.Fatalf("replay after the next append = %v, want %v", after, want)
			}
		})
	}
}

// TestFailedWriteDropsHandle checks a failed fsync on any log drops its
// cached handle: the next append reopens the file instead of appending
// through a handle that may sit after torn bytes.
func TestFailedWriteDropsHandle(t *testing.T) {
	for _, c := range logCases {
		t.Run(c.name, func(t *testing.T) {
			s := openLogFS(t, t.TempDir())
			c.setup(t, s)
			if err := c.append(s, 0); err != nil {
				t.Fatal(err)
			}
			s.syncHook = func(*os.File) error { return errors.New("injected: device error") }
			if err := c.append(s, 1); err == nil {
				t.Fatal("append acknowledged despite failed fsync")
			}
			s.syncHook = nil
			s.mu.Lock()
			for key, lf := range s.logs {
				if lf.f != nil {
					t.Errorf("%s: handle still cached after a failed write", key)
				}
			}
			s.mu.Unlock()
			if err := c.append(s, 2); err != nil {
				t.Fatalf("append after failed fsync: %v", err)
			}
		})
	}
}

// TestFSLibrarySnapshotRoundTrip: a snapshot.json that an older
// version left beside a keyed log replays as the log's first record,
// per log (the open-mode library does not bleed into a tenant's), and
// the next rewrite removes it. Until then a rewritten log replays after
// it, which is the crash window between the rewrite's rename and the
// removal.
func TestFSLibrarySnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openLogFS(t, dir)
	writeLegacy := func(id, file, data string) {
		t.Helper()
		sub := id
		if sub == "" {
			sub = openLogDir
		}
		path := filepath.Join(dir, "libraries", sub, file)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeLegacy("tn_01", "snapshot.json", `{"v":1}`)
	writeLegacy("tn_01", "changes.jsonl", `{"n":1}`+"\n")
	writeLegacy("", "snapshot.json", `{"v":2}`)

	if got, want := replayKeyed(t, s, LibraryLog, "tn_01"), []string{`{"v":1}`, `{"n":1}`}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
	if got, want := replayKeyed(t, s, LibraryLog, ""), []string{`{"v":2}`}; !reflect.DeepEqual(got, want) {
		t.Fatalf("open-mode replay = %v, want %v", got, want)
	}
	if ids, err := s.ListLogs(LibraryLog); err != nil || !reflect.DeepEqual(ids, []string{"", "tn_01"}) {
		t.Fatalf("ListLogs = %v, %v", ids, err)
	}

	// The crash window: the rewritten log exists, the snapshot too.
	writeLegacy("tn_01", "changes.jsonl", `{"v":3}`+"\n")
	if got, want := replayKeyed(t, s, LibraryLog, "tn_01"), []string{`{"v":1}`, `{"v":3}`}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replay in the crash window = %v, want %v", got, want)
	}
	if _, err := s.RewriteLog(LibraryLog, "tn_01", [][]byte{[]byte(`{"v":4}`)}); err != nil {
		t.Fatal(err)
	}
	if got, want := replayKeyed(t, s, LibraryLog, "tn_01"), []string{`{"v":4}`}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after rewrite = %v, want %v", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "libraries", "tn_01", "snapshot.json")); !os.IsNotExist(err) {
		t.Fatalf("snapshot.json survived the rewrite: %v", err)
	}
	if got := replayKeyed(t, s, LibraryLog, ""); len(got) != 1 {
		t.Fatalf("rewrite of tn_01 touched the open-mode log: %v", got)
	}

	// A corrupt snapshot is corruption, like a corrupt record.
	writeLegacy("", "snapshot.json", `{"v":`)
	if err := s.ReplayLog(LibraryLog, "", func([]byte) error { return nil }); err == nil {
		t.Fatal("corrupt snapshot.json replayed silently")
	}
}

func TestFSLibraryChangesAppendReplay(t *testing.T) {
	s := openLogFS(t, t.TempDir())

	if got := replayKeyed(t, s, LibraryLog, "tn_01"); len(got) != 0 {
		t.Fatalf("replay of missing log = %v, want empty", got)
	}
	for i := 0; i < 3; i++ {
		if err := s.AppendLog(LibraryLog, "tn_01", []byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{`{"n":0}`, `{"n":1}`, `{"n":2}`}
	if got := replayKeyed(t, s, LibraryLog, "tn_01"); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}

	// A rewrite to one state record replaces the change log.
	if _, err := s.RewriteLog(LibraryLog, "tn_01", [][]byte{[]byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if got := replayKeyed(t, s, LibraryLog, "tn_01"); !reflect.DeepEqual(got, []string{`{}`}) {
		t.Fatalf("replay after rewrite = %v, want [{}]", got)
	}
}

// TestFSLibraryTornTail simulates a crash mid-append: a torn final record
// is dropped on replay and repaired by the first append of the next
// process.
func TestFSLibraryTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()

	if err := s.AppendLog(LibraryLog, "tn_01", []byte(`{"n":0}`)); err != nil {
		t.Fatal(err)
	}
	appendTorn(t, filepath.Join(dir, "libraries", "tn_01", "changes.jsonl"), `{"n":1,"tr`)

	if got := replayKeyed(t, s, LibraryLog, "tn_01"); !reflect.DeepEqual(got, []string{`{"n":0}`}) {
		t.Fatalf("replay over torn tail = %v, want clean prefix", got)
	}
	// A torn tail is a crash artifact, so only a fresh process sees it:
	// reopen the store, whose first append repairs the tail.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = OpenFS(dir, FSOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendLog(LibraryLog, "tn_01", []byte(`{"n":2}`)); err != nil {
		t.Fatal(err)
	}
	want := []string{`{"n":0}`, `{"n":2}`}
	if got := replayKeyed(t, s, LibraryLog, "tn_01"); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after repair = %v, want %v", got, want)
	}
}

func TestFSLibraryListAndDelete(t *testing.T) {
	s := openLogFS(t, t.TempDir())

	if got, err := s.ListLogs(LibraryLog); err != nil || len(got) != 0 {
		t.Fatalf("ListLogs empty = %v, %v", got, err)
	}
	for _, id := range []string{"tn_02", "", "tn_01"} {
		if err := s.AppendLog(LibraryLog, id, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"", "tn_01", "tn_02"}
	if got, err := s.ListLogs(LibraryLog); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ListLogs = %v, %v, want %v", got, err, want)
	}

	if err := s.DeleteLog(LibraryLog, "tn_01"); err != nil {
		t.Fatal(err)
	}
	want = []string{"", "tn_02"}
	if got, _ := s.ListLogs(LibraryLog); !reflect.DeepEqual(got, want) {
		t.Fatalf("ListLogs after delete = %v, want %v", got, want)
	}
	if got := replayKeyed(t, s, LibraryLog, "tn_01"); len(got) != 0 {
		t.Fatalf("replay after delete = %v, want empty", got)
	}
	// Deleting a missing library is not an error.
	if err := s.DeleteLog(LibraryLog, "tn_99"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteLog(LibraryLog, "bad id!"); err == nil {
		t.Fatal("DeleteLog with invalid id: want error")
	}
}

func TestFSEventsAppendReplay(t *testing.T) {
	s := openLogFS(t, t.TempDir())

	if got := replayKeyed(t, s, EventLog, "tn_01"); len(got) != 0 {
		t.Fatalf("replay of missing log = %v, want empty", got)
	}
	// Appends are batched: one call carries several lines.
	if err := s.AppendLog(EventLog, "tn_01", []byte(`{"seq":1}`), []byte(`{"seq":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendLog(EventLog, "tn_01", []byte(`{"seq":3}`)); err != nil {
		t.Fatal(err)
	}
	// An empty batch is a no-op, not an error or an empty fsync.
	if err := s.AppendLog(EventLog, "tn_01"); err != nil {
		t.Fatal(err)
	}
	want := []string{`{"seq":1}`, `{"seq":2}`, `{"seq":3}`}
	if got := replayKeyed(t, s, EventLog, "tn_01"); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
	if err := s.AppendLog(EventLog, "no slash/../escape", []byte(`{}`)); err == nil {
		t.Fatal("AppendLog with invalid tenant id: want error")
	}
}

func TestFSEventsTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()

	if err := s.AppendLog(EventLog, "tn_01", []byte(`{"seq":1}`)); err != nil {
		t.Fatal(err)
	}
	appendTorn(t, filepath.Join(dir, "events", "tn_01", "log.jsonl"), `{"seq":2,"ty`)

	if got := replayKeyed(t, s, EventLog, "tn_01"); !reflect.DeepEqual(got, []string{`{"seq":1}`}) {
		t.Fatalf("replay over torn tail = %v, want clean prefix", got)
	}
	// A torn tail is a crash artifact, so it is only ever seen by a
	// fresh process: reopen the store (the cached append handle repairs
	// the tail when it first opens) and the next append lands on a
	// clean prefix of complete records.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = OpenFS(dir, FSOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendLog(EventLog, "tn_01", []byte(`{"seq":2}`)); err != nil {
		t.Fatal(err)
	}
	want := []string{`{"seq":1}`, `{"seq":2}`}
	if got := replayKeyed(t, s, EventLog, "tn_01"); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after repair = %v, want %v", got, want)
	}
}

func TestFSEventsMidFileCorruptionErrors(t *testing.T) {
	dir := t.TempDir()
	s := openLogFS(t, dir)

	if err := s.AppendLog(EventLog, "tn_01", []byte(`{"seq":1}`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "events", "tn_01", "log.jsonl")
	if err := os.WriteFile(path, []byte("{\"seq\":1}\ngarbage\n{\"seq\":3}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplayLog(EventLog, "tn_01", func([]byte) error { return nil }); err == nil {
		t.Fatal("replay over mid-file corruption: want error (only a torn FINAL record is tolerated)")
	}
}

func TestFSEventsRewrite(t *testing.T) {
	s := openLogFS(t, t.TempDir())

	for i := 1; i <= 4; i++ {
		if err := s.AppendLog(EventLog, "tn_01", []byte(fmt.Sprintf(`{"seq":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction keeps the tail and reports the exact new size.
	kept := [][]byte{[]byte(`{"seq":3}`), []byte(`{"seq":4}`)}
	size, err := s.RewriteLog(EventLog, "tn_01", kept)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(`{"seq":3}`)+1) * 2; size != want {
		t.Fatalf("RewriteLog size = %d, want %d", size, want)
	}
	want := []string{`{"seq":3}`, `{"seq":4}`}
	if got := replayKeyed(t, s, EventLog, "tn_01"); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after rewrite = %v, want %v", got, want)
	}
	// Appends after a rewrite land in the new file, not the replaced
	// inode the old handle pointed at.
	if err := s.AppendLog(EventLog, "tn_01", []byte(`{"seq":5}`)); err != nil {
		t.Fatal(err)
	}
	want = append(want, `{"seq":5}`)
	if got := replayKeyed(t, s, EventLog, "tn_01"); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after rewrite + append = %v, want %v", got, want)
	}
	// Rewriting to nothing leaves an empty (but replayable) log.
	if size, err := s.RewriteLog(EventLog, "tn_01", nil); err != nil || size != 0 {
		t.Fatalf("RewriteLog(nil) = %d, %v", size, err)
	}
	if got := replayKeyed(t, s, EventLog, "tn_01"); len(got) != 0 {
		t.Fatalf("replay after empty rewrite = %v, want empty", got)
	}
}

func TestFSEventsListAndDelete(t *testing.T) {
	s := openLogFS(t, t.TempDir())

	if got, err := s.ListLogs(EventLog); err != nil || len(got) != 0 {
		t.Fatalf("ListLogs empty = %v, %v", got, err)
	}
	for _, id := range []string{"tn_02", "", "tn_01"} {
		if err := s.AppendLog(EventLog, id, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"", "tn_01", "tn_02"}
	if got, err := s.ListLogs(EventLog); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ListLogs = %v, %v, want %v", got, err, want)
	}

	if err := s.DeleteLog(EventLog, "tn_01"); err != nil {
		t.Fatal(err)
	}
	want = []string{"", "tn_02"}
	if got, _ := s.ListLogs(EventLog); !reflect.DeepEqual(got, want) {
		t.Fatalf("ListLogs after delete = %v, want %v", got, want)
	}
	if got := replayKeyed(t, s, EventLog, "tn_01"); len(got) != 0 {
		t.Fatalf("replay after delete = %v, want empty", got)
	}
	if err := s.DeleteLog(EventLog, "tn_99"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteLog(EventLog, "bad id!"); err == nil {
		t.Fatal("DeleteLog with invalid id: want error")
	}
}

// FuzzReplayLog feeds arbitrary file bytes to every log kind's replay.
// Replay must never panic; it yields exactly the complete,
// newline-terminated records (a torn final line is dropped, corruption
// anywhere else is an error); and repairing the tail, as the next
// process's first append does, leaves replay unchanged.
func FuzzReplayLog(f *testing.F) {
	for _, seed := range []string{
		"",
		"\n",
		`{"op":"issue","group":0}` + "\n",
		`{"op":"issue","group":0}` + "\n" + `{"op":"decide","group":0,"decision":"approve"}`,
		`{"n":1}` + "\n" + `{"n":2`,
		"garbage\n" + `{"n":1}` + "\n",
		`{"n":1}` + "\n\n \n" + `"x"` + "\n",
		`{"op":5}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	dir := f.TempDir()
	s, err := OpenFS(dir, FSOptions{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	if err := s.PutSession(SessionMeta{ID: "cs_01", DatasetID: "ds_0a", Column: "c"}); err != nil {
		f.Fatal(err)
	}
	keyed := []LogKind{TenantLog, LibraryLog, EventLog}

	f.Fuzz(func(t *testing.T, raw []byte) {
		// The oracle: the non-blank lines before the last newline.
		var want [][]byte
		valid := true
		for _, line := range bytes.Split(raw[:bytes.LastIndexByte(raw, '\n')+1], []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			valid = valid && json.Valid(line)
			want = append(want, line)
		}
		wantWAL, walValid := []WALRecord(nil), valid
		for _, line := range want {
			var rec WALRecord
			if walValid && json.Unmarshal(line, &rec) != nil {
				walValid = false
			}
			wantWAL = append(wantWAL, rec)
		}

		for _, kind := range keyed {
			key, _ := logKey(kind, "")
			path := filepath.Join(dir, key)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				var got [][]byte
				err := s.ReplayLog(kind, "", func(rec []byte) error {
					got = append(got, append([]byte(nil), rec...))
					return nil
				})
				if valid != (err == nil) {
					t.Fatalf("%s pass %d: replay error %v, want valid=%v", kind, pass, err, valid)
				}
				if valid && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s pass %d: replayed %q, want %q", kind, pass, got, want)
				}
				repair(t, path)
			}
		}

		path := filepath.Join(dir, walKey("ds_0a", "cs_01"))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			var got []WALRecord
			err := s.ReplayWAL(context.Background(), "ds_0a", "cs_01", func(r WALRecord) error {
				got = append(got, r)
				return nil
			})
			if walValid != (err == nil) {
				t.Fatalf("wal pass %d: replay error %v, want valid=%v", pass, err, walValid)
			}
			if walValid && !reflect.DeepEqual(got, wantWAL) {
				t.Fatalf("wal pass %d: replayed %+v, want %+v", pass, got, wantWAL)
			}
			repair(t, path)
		}
	})
}

// repair runs the tail repair a fresh append handle performs.
func repair(t *testing.T, path string) {
	t.Helper()
	f, err := openLog(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestAppendsRaceReplacement drives appends to one log from several
// goroutines while another closes or rewrites it, in both append
// modes. Every append must succeed; closing a WAL's handle must lose
// none of them; and an append that starts after the last rewrite
// returned must land in the new file, not the replaced inode.
func TestAppendsRaceReplacement(t *testing.T) {
	for _, noSync := range []bool{false, true} {
		t.Run(fmt.Sprintf("nosync=%v", noSync), func(t *testing.T) {
			s, err := OpenFS(t.TempDir(), FSOptions{NoSync: noSync})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			logCases[0].setup(t, s)
			const writers, perWriter, replacements = 4, 40, 20
			var rewrites atomic.Int64
			var late sync.Map // event records appended after the last rewrite
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						n := w*1000 + i
						if err := s.AppendWAL(context.Background(), "ds_0a", "cs_01", WALRecord{Op: OpIssue, GroupID: n}); err != nil {
							t.Errorf("wal append %d: %v", n, err)
							return
						}
						after := rewrites.Load() == replacements
						rec := fmt.Sprintf(`{"n":%d}`, n)
						if err := s.AppendLog(EventLog, "", []byte(rec)); err != nil {
							t.Errorf("event append %d: %v", n, err)
							return
						}
						if after {
							late.Store(rec, true)
						}
					}
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < replacements; i++ {
					if err := s.CloseWAL("ds_0a", "cs_01"); err != nil {
						t.Errorf("CloseWAL: %v", err)
					}
					if _, err := s.RewriteLog(EventLog, "", [][]byte{[]byte(`{"n":-1}`)}); err != nil {
						t.Errorf("RewriteLog: %v", err)
					}
					rewrites.Add(1)
				}
			}()
			wg.Wait()

			got := map[int]bool{}
			if err := s.ReplayWAL(context.Background(), "ds_0a", "cs_01", func(r WALRecord) error {
				got[r.GroupID] = true
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != writers*perWriter {
				t.Fatalf("WAL replayed %d distinct records, want %d", len(got), writers*perWriter)
			}
			events := map[string]bool{}
			for _, rec := range replayKeyed(t, s, EventLog, "") {
				events[rec] = true
			}
			late.Range(func(rec, _ any) bool {
				if !events[rec.(string)] {
					t.Errorf("event %s appended after the last rewrite is missing", rec)
				}
				return true
			})
		})
	}
}

// TestReplaceAfterClose checks a closed store refuses appends but still
// deletes and rewrites, as it did before every log shared one cache.
func TestReplaceAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	logCases[0].setup(t, s)
	if err := s.AppendLog(EventLog, "tn_01", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.AppendLog(EventLog, "tn_01", []byte(`{}`)); !errors.Is(err, errClosed) {
		t.Fatalf("AppendLog after Close = %v, want errClosed", err)
	}
	if err := s.CloseWAL("ds_0a", "cs_01"); err != nil {
		t.Fatalf("CloseWAL after Close: %v", err)
	}
	if err := s.DeleteSession("ds_0a", "cs_01"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "datasets", "ds_0a", "sessions", "cs_01")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("session dir after DeleteSession on a closed store: %v", err)
	}
	if err := s.DeleteLog(EventLog, "tn_01"); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.ListLogs(EventLog); len(got) != 0 {
		t.Fatalf("ListLogs after DeleteLog on a closed store = %v", got)
	}
}
