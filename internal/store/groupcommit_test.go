package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openSyncedFS opens a synced store (group committer active) with a
// dataset and session ready for WAL appends.
func openSyncedFS(t *testing.T, opts FSOptions) *FS {
	t.Helper()
	s, err := OpenFS(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.PutDataset(context.Background(), DatasetMeta{ID: "ds_0a", Name: "d", KeyCol: "k"}, benchDataset(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSession(SessionMeta{ID: "cs_01", DatasetID: "ds_0a", Column: "c"}); err != nil {
		t.Fatal(err)
	}
	return s
}

func replayAll(t *testing.T, s Store, dsID, csID string) []WALRecord {
	t.Helper()
	var recs []WALRecord
	if err := s.ReplayWAL(context.Background(), dsID, csID, func(r WALRecord) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

// TestGroupCommitConcurrentAppends drives many writers into one
// session and checks (a) every acknowledged record replays, and (b)
// the committer actually coalesced: with the fsync slowed down, the
// number of fsyncs must come out well below the number of appends.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	s := openSyncedFS(t, FSOptions{})
	var fsyncs atomic.Int64
	s.syncHook = func(f *os.File) error {
		fsyncs.Add(1)
		time.Sleep(2 * time.Millisecond) // a disk-speed fsync, so writers pile up behind it
		return f.Sync()
	}
	const writers, perWriter = 8, 5
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := WALRecord{Op: OpDecide, GroupID: w*perWriter + i, Decision: "approve"}
				if err := s.AppendWAL(context.Background(), "ds_0a", "cs_01", rec); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	recs := replayAll(t, s, "ds_0a", "cs_01")
	if len(recs) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*perWriter)
	}
	seen := make(map[int]bool)
	for _, r := range recs {
		if seen[r.GroupID] {
			t.Fatalf("record %d replayed twice", r.GroupID)
		}
		seen[r.GroupID] = true
	}
	if n := fsyncs.Load(); n >= writers*perWriter {
		t.Fatalf("%d fsyncs for %d appends: no coalescing happened", n, writers*perWriter)
	}
}

// TestGroupCommitOrderingPerWriter checks the committer preserves each
// caller's append order: a writer's own records must replay in the
// order it issued them (cross-writer interleaving is unspecified).
func TestGroupCommitOrderingPerWriter(t *testing.T) {
	s := openSyncedFS(t, FSOptions{})
	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := WALRecord{Op: OpIssue, GroupID: w*1000 + i}
				if err := s.AppendWAL(context.Background(), "ds_0a", "cs_01", rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	last := map[int]int{}
	for _, r := range replayAll(t, s, "ds_0a", "cs_01") {
		w, seq := r.GroupID/1000, r.GroupID%1000
		if prev, ok := last[w]; ok && seq <= prev {
			t.Fatalf("writer %d: record %d replayed after %d", w, seq, prev)
		}
		last[w] = seq
	}
}

// TestBatchAppendWAL checks the vectored AppendWAL: records land in
// order, in one call, and an empty batch is a no-op.
func TestBatchAppendWAL(t *testing.T) {
	s := openSyncedFS(t, FSOptions{})
	batch := []WALRecord{
		{Op: OpIssue, GroupID: 0},
		{Op: OpDecide, GroupID: 0, Decision: "approve"},
		{Op: OpIssue, GroupID: 1},
		{Op: OpDecide, GroupID: 1, Decision: "reject"},
	}
	if err := s.AppendWAL(context.Background(), "ds_0a", "cs_01", batch...); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendWAL(context.Background(), "ds_0a", "cs_01"); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	recs := replayAll(t, s, "ds_0a", "cs_01")
	if len(recs) != len(batch) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(batch))
	}
	for i, r := range recs {
		if r.Op != batch[i].Op || r.GroupID != batch[i].GroupID || r.Decision != batch[i].Decision {
			t.Fatalf("record %d = %+v, want %+v", i, r, batch[i])
		}
	}
}

// TestGroupCommitFsyncFailureFailsAllWaiters injects an fsync failure
// and checks every concurrent waiter whose records shared the batch is
// rejected — after a failed fsync nobody knows whose bytes made it.
func TestGroupCommitFsyncFailureFailsAllWaiters(t *testing.T) {
	s := openSyncedFS(t, FSOptions{})
	var gate sync.WaitGroup
	gate.Add(1)
	s.syncHook = func(f *os.File) error {
		gate.Wait() // hold the first flush until every writer is queued
		return errors.New("injected: device error")
	}
	const writers = 6
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = s.AppendWAL(context.Background(), "ds_0a", "cs_01",
				WALRecord{Op: OpIssue, GroupID: w})
		}(w)
	}
	time.Sleep(50 * time.Millisecond) // let the writers reach the committer
	gate.Done()
	wg.Wait()
	for w, err := range errs {
		if err == nil {
			t.Fatalf("writer %d: append acknowledged despite failed fsync", w)
		}
		if !strings.Contains(err.Error(), "wal sync") && !strings.Contains(err.Error(), "wal append") {
			t.Fatalf("writer %d: unexpected error %v", w, err)
		}
	}
	// The committer must survive the failure: clear the hook and the
	// next append succeeds.
	s.syncHook = nil
	if err := s.AppendWAL(context.Background(), "ds_0a", "cs_01", WALRecord{Op: OpIssue, GroupID: 99}); err != nil {
		t.Fatalf("append after failed batch: %v", err)
	}
}

// TestAppendWALContextCanceled checks both backends and both FS modes
// return ctx.Err() promptly for a dead request — including while a
// stalled fsync would otherwise hold the caller until the flush ends.
func TestAppendWALContextCanceled(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	rec := WALRecord{Op: OpIssue, GroupID: 0}

	t.Run("null", func(t *testing.T) {
		if err := (Null{}).AppendWAL(canceled, "ds_0a", "cs_01", rec); !errors.Is(err, context.Canceled) {
			t.Fatalf("Null.AppendWAL = %v, want context.Canceled", err)
		}
		if err := (Null{}).AppendWAL(canceled, "ds_0a", "cs_01", rec, rec); !errors.Is(err, context.Canceled) {
			t.Fatalf("Null.AppendWAL batch = %v, want context.Canceled", err)
		}
	})
	t.Run("fs-sync", func(t *testing.T) {
		s := openSyncedFS(t, FSOptions{})
		if err := s.AppendWAL(canceled, "ds_0a", "cs_01", rec); !errors.Is(err, context.Canceled) {
			t.Fatalf("AppendWAL = %v, want context.Canceled", err)
		}
	})
	t.Run("fs-nosync", func(t *testing.T) {
		s := openSyncedFS(t, FSOptions{NoSync: true})
		if err := s.AppendWAL(canceled, "ds_0a", "cs_01", rec, rec); !errors.Is(err, context.Canceled) {
			t.Fatalf("AppendWAL batch = %v, want context.Canceled", err)
		}
	})
	t.Run("window-wait", func(t *testing.T) {
		// A lone append whose fsync stalls is already in the flush; a
		// cancellation mid-wait must abandon the wait and return
		// immediately rather than hold the caller until the disk answers.
		s := openSyncedFS(t, FSOptions{})
		release := make(chan struct{})
		s.syncHook = func(f *os.File) error {
			<-release
			return f.Sync()
		}
		defer close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		start := time.Now()
		err := s.AppendWAL(ctx, "ds_0a", "cs_01", rec)
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("canceled append held for %v behind a stalled fsync", elapsed)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("AppendWAL = %v, want context.DeadlineExceeded", err)
		}
	})
}

// TestGroupCommitCloseUnderLoad closes the store while writers are in
// flight: every append must either be durably acknowledged or fail —
// never hang — and Close must be idempotent.
func TestGroupCommitCloseUnderLoad(t *testing.T) {
	s := openSyncedFS(t, FSOptions{})
	var acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				err := s.AppendWAL(context.Background(), "ds_0a", "cs_01", WALRecord{Op: OpIssue, GroupID: w*10000 + i})
				if err != nil {
					return // store closed under us: fine, as long as we got an answer
				}
				acked.Add(1)
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writers hung after Close")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// Every acknowledged record must be durable: reopen and count.
	s2, err := OpenFS(s.root, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if recs := replayAll(t, s2, "ds_0a", "cs_01"); int64(len(recs)) < acked.Load() {
		t.Fatalf("%d records durable, but %d were acknowledged", len(recs), acked.Load())
	}
}

// TestBatchCrashTruncationSweep is the crash-injection sweep for group
// commit: a batch is written, then the WAL is cut at every byte offset
// — simulating a crash anywhere between the buffered write and the
// fsync, including mid-record — and replay must return exactly the
// clean prefix of complete records, never an error, never a mangled
// record.
func TestBatchCrashTruncationSweep(t *testing.T) {
	src := openSyncedFS(t, FSOptions{})
	var batch []WALRecord
	for i := 0; i < 6; i++ {
		batch = append(batch, WALRecord{Op: OpDecide, GroupID: i, Decision: "approve"})
	}
	if err := s0Append(src, batch); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(src.root, "datasets", "ds_0a", "sessions", "cs_01", "wal.jsonl")
	src.Close()
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Complete records end at newline offsets; count how many are whole
	// at each cut.
	for cut := 0; cut <= len(raw); cut++ {
		wantRecords := 0
		for _, b := range raw[:cut] {
			if b == '\n' {
				wantRecords++
			}
		}
		dir := t.TempDir()
		sess := filepath.Join(dir, "datasets", "ds_0a", "sessions", "cs_01")
		if err := os.MkdirAll(sess, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sess, "wal.jsonl"), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFS(dir, FSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		recs := replayAll(t, s, "ds_0a", "cs_01")
		if len(recs) != wantRecords {
			s.Close()
			t.Fatalf("cut at %d/%d: replayed %d records, want %d", cut, len(raw), len(recs), wantRecords)
		}
		for i, r := range recs {
			if r.Op != batch[i].Op || r.GroupID != batch[i].GroupID || r.Decision != batch[i].Decision {
				s.Close()
				t.Fatalf("cut at %d: record %d = %+v, want %+v", cut, i, r, batch[i])
			}
		}
		// The next append over the torn tail must repair it: replay
		// afterwards sees the prefix plus the new record, no corruption.
		if err := s.AppendWAL(context.Background(), "ds_0a", "cs_01", WALRecord{Op: OpIssue, GroupID: 77}); err != nil {
			s.Close()
			t.Fatalf("cut at %d: append over torn tail: %v", cut, err)
		}
		recs = replayAll(t, s, "ds_0a", "cs_01")
		if len(recs) != wantRecords+1 || recs[len(recs)-1].GroupID != 77 {
			s.Close()
			t.Fatalf("cut at %d: after repair replayed %d records (last %+v), want %d with last GroupID 77",
				cut, len(recs), recs[len(recs)-1], wantRecords+1)
		}
		s.Close()
	}
}

// s0Append writes the batch through one AppendWAL call (named helper so the
// sweep reads as: produce a real batched WAL, then cut it up).
func s0Append(s *FS, batch []WALRecord) error {
	return s.AppendWAL(context.Background(), "ds_0a", "cs_01", batch...)
}

// TestGroupCommitCrossSessionBatch checks a single flush spanning two
// sessions' WALs delivers each file's own verdict: an error on one
// file must not fail waiters of the other.
func TestGroupCommitCrossSessionBatch(t *testing.T) {
	s := openSyncedFS(t, FSOptions{})
	if err := s.PutSession(SessionMeta{ID: "cs_02", DatasetID: "ds_0a", Column: "c2"}); err != nil {
		t.Fatal(err)
	}
	// Warm both handles so the failure can be targeted at one file.
	for _, cs := range []string{"cs_01", "cs_02"} {
		if err := s.AppendWAL(context.Background(), "ds_0a", cs, WALRecord{Op: OpIssue, GroupID: 0}); err != nil {
			t.Fatal(err)
		}
	}
	var gate sync.WaitGroup
	gate.Add(1)
	var mu sync.Mutex
	fail := map[string]bool{}
	s.syncHook = func(f *os.File) error {
		gate.Wait()
		mu.Lock()
		bad := strings.Contains(f.Name(), "cs_02")
		fail[f.Name()] = true
		mu.Unlock()
		if bad {
			return errors.New("injected: device error")
		}
		return f.Sync()
	}
	var wg sync.WaitGroup
	var err1, err2 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		err1 = s.AppendWAL(context.Background(), "ds_0a", "cs_01", WALRecord{Op: OpIssue, GroupID: 1})
	}()
	go func() {
		defer wg.Done()
		err2 = s.AppendWAL(context.Background(), "ds_0a", "cs_02", WALRecord{Op: OpIssue, GroupID: 1})
	}()
	time.Sleep(50 * time.Millisecond)
	gate.Done()
	wg.Wait()
	if err1 != nil {
		t.Fatalf("healthy session's append failed: %v", err1)
	}
	if err2 == nil {
		t.Fatal("failing session's append was acknowledged")
	}
}

// TestBatchAppendBadID mirrors the single-append id validation.
func TestBatchAppendBadID(t *testing.T) {
	s := openSyncedFS(t, FSOptions{})
	if err := s.AppendWAL(context.Background(), "ds_0a", "../../etc", WALRecord{Op: OpIssue}, WALRecord{Op: OpIssue}); err == nil {
		t.Fatal("AppendWAL batch accepted a path-traversal session id")
	}
	if err := s.AppendWAL(context.Background(), "nope", "cs_01", WALRecord{Op: OpIssue}, WALRecord{Op: OpIssue}); err == nil {
		t.Fatal("AppendWAL batch accepted an invalid dataset id")
	}
}
