package service

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/store"
)

// TestShardDistribution checks that ids — including adversarially
// sequential ones, which a naive modulo of a trailing counter would
// pile onto a few shards — spread across every shard without a hot
// spot.
func TestShardDistribution(t *testing.T) {
	const (
		shards = 16
		n      = 4096
	)
	fc := newFakeClock(time.Unix(1700000000, 0))
	r := newRegistry[int]("ds", shards, 0, fc)
	for i := 0; i < n; i++ {
		// The shapes real recoveries see: zero-padded sequential ids.
		if !r.addWithID(fmt.Sprintf("ds_%08d", i), i) {
			t.Fatalf("duplicate id at %d", i)
		}
	}
	sizes := r.sizes()
	mean := n / shards
	for i, got := range sizes {
		if got == 0 {
			t.Errorf("shard %d is empty", i)
		}
		if got > 2*mean {
			t.Errorf("shard %d holds %d entries, more than 2x the mean %d", i, got, mean)
		}
	}
	if total := r.size(); total != n {
		t.Fatalf("size = %d, want %d", total, n)
	}

	// Random service-generated ids must spread too.
	r2 := newRegistry[int]("cs", shards, 0, fc)
	for i := 0; i < n; i++ {
		r2.add(i, nil)
	}
	for i, got := range r2.sizes() {
		if got == 0 {
			t.Errorf("random ids: shard %d is empty", i)
		}
		if got > 2*mean {
			t.Errorf("random ids: shard %d holds %d entries (mean %d)", i, got, mean)
		}
	}
}

// twoIDsOnDistinctShards returns two registered ids that hash to
// different shards.
func twoIDsOnDistinctShards(t *testing.T, r *shardedRegistry[int]) (string, string) {
	t.Helper()
	a := r.add(1, nil)
	for i := 0; i < 1000; i++ {
		b := r.add(2, nil)
		if r.shardIndex(b) != r.shardIndex(a) {
			return a, b
		}
		r.remove(b)
	}
	t.Fatal("could not find ids on distinct shards")
	return "", ""
}

// TestSweepDoesNotBlockOtherShards pins down the contention contract:
// while one shard is mid-sweep (its lock held by a slow rangeShard
// consumer), lookups and writes on every other shard proceed.
func TestSweepDoesNotBlockOtherShards(t *testing.T) {
	fc := newFakeClock(time.Unix(1700000000, 0))
	r := newRegistry[int]("x", 8, time.Minute, fc)
	a, b := twoIDsOnDistinctShards(t, r)

	sweeping := make(chan struct{})
	release := make(chan struct{})
	go func() {
		r.rangeShard(r.shardIndex(a), func(string, int) bool {
			close(sweeping)
			<-release // hold shard a's read lock until released
			return true
		})
	}()
	<-sweeping
	defer close(release)

	done := make(chan struct{})
	go func() {
		if _, ok := r.get(b); !ok {
			t.Errorf("get(%s) failed", b)
		}
		r.touch(b)
		if _, ok := r.remove(b); !ok {
			t.Errorf("remove(%s) failed", b)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("operations on another shard blocked behind a sweep")
	}
}

// TestJanitorTicks proves eviction is fully deterministic under the
// injected clock: advancing time past the TTL fires the per-shard
// janitor tickers, and the janitors (not a direct evictAll sweep)
// remove the idle dataset.
func TestJanitorTicks(t *testing.T) {
	fc := newFakeClock(time.Unix(1700000000, 0))
	svc := New(Options{TTL: time.Minute, JanitorInterval: 30 * time.Second, Shards: 4, clock: fc})
	defer svc.Close()

	ds, err := svc.As("").CreateDataset("paper", "key", "", strings.NewReader(paperCSV))
	if err != nil {
		t.Fatal(err)
	}
	// Every per-shard janitor registers one ticker; an advance before
	// registration would fire into nothing.
	deadlineTickers := time.Now().Add(10 * time.Second)
	for fc.tickerCount() < 4 {
		if time.Now().After(deadlineTickers) {
			t.Fatalf("only %d janitor tickers registered", fc.tickerCount())
		}
		time.Sleep(time.Millisecond)
	}
	fc.Advance(2 * time.Minute)
	// Poll via ListDatasets: unlike a GET of the dataset, listing does
	// not refresh the idle timer, so the entry stays expired until a
	// janitor sweeps its shard.
	deadline := time.Now().Add(10 * time.Second)
	for len(svc.As("").ListDatasets()) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("janitor never evicted the idle dataset")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.As("").GetDataset(ds.ID); err == nil {
		t.Fatal("evicted dataset still resolves")
	}
}

// TestRecoverShardCounts rebuilds the same store directory under shard
// counts 1, 4 and 16 and asserts the recovered state is identical:
// shard count is a pure concurrency knob, invisible in durable state.
func TestRecoverShardCounts(t *testing.T) {
	const prefetch = 2
	dir := storeDir(t)

	// Seed: several datasets, one mid-review session each, plus one
	// session driven to exhaustion so a compacted archive is recovered
	// too.
	fsStore, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seed := New(Options{Prefetch: prefetch, Store: fsStore, Shards: 3})
	const datasets = 5
	sessionIDs := make([]string, 0, datasets)
	for i := 0; i < datasets; i++ {
		ds, err := seed.As("").CreateDataset(fmt.Sprintf("paper-%d", i), "key", "", strings.NewReader(paperCSV))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := seed.As("").OpenSession(ds.ID, "Name")
		if err != nil {
			t.Fatal(err)
		}
		sessionIDs = append(sessionIDs, sess.ID)
		if i == 0 {
			// Finish the whole column: this session recovers from its
			// compacted archive instead of a WAL replay.
			for j := 0; ; j++ {
				gid, ok := nextUndecided(t, seed, sess.ID)
				if !ok {
					break
				}
				if _, err := seed.As("").Decide(sess.ID, gid, scriptedDecision(j)); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			gid, ok := nextUndecided(t, seed, sess.ID)
			if !ok {
				t.Fatalf("dataset %d: no groups", i)
			}
			if _, err := seed.As("").Decide(sess.ID, gid, scriptedDecision(i)); err != nil {
				t.Fatal(err)
			}
		}
		quiesce(t, seed, sess.ID, prefetch)
	}
	killService(seed)

	// fingerprint captures everything recovery rebuilds: the dataset
	// listing, each session's quiesced ReviewState, and both exports.
	fingerprint := func(svc *Service) []byte {
		var buf bytes.Buffer
		// Quiesce every session first: exports race a still-replaying
		// generator otherwise, and replay completion is the recovery
		// property under test.
		sorted := append([]string(nil), sessionIDs...)
		sort.Strings(sorted)
		for _, id := range sorted {
			buf.Write(mustJSON(t, quiesce(t, svc, id, prefetch)))
		}
		infos := svc.As("").ListDatasets()
		sort.Slice(infos, func(a, b int) bool { return infos[a].ID < infos[b].ID })
		for _, info := range infos {
			buf.Write(mustJSON(t, info))
			records, err := svc.As("").Export(info.ID, false)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(mustJSON(t, records))
		}
		return buf.Bytes()
	}

	var want []byte
	for _, shards := range []int{1, 4, 16} {
		fsStore, err := store.OpenFS(dir, store.FSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Options{Prefetch: prefetch, Store: fsStore, Shards: shards})
		if svc.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", svc.Shards(), shards)
		}
		nds, nsess, err := svc.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if nds != datasets || nsess != datasets {
			t.Fatalf("shards=%d: recovered %d datasets, %d sessions, want %d and %d",
				shards, nds, nsess, datasets, datasets)
		}
		got := fingerprint(svc)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: recovered state diverged from shards=1", shards)
		}
		killService(svc)
	}
}

// TestDecideCrossShardIsolation opens sessions on two datasets and
// verifies a decision on one proceeds while the other dataset's shard
// is mid-eviction — the end-to-end version of the registry-level sweep
// test, run under -race in CI.
func TestDecideCrossShardIsolation(t *testing.T) {
	fc := newFakeClock(time.Unix(1700000000, 0))
	svc := New(Options{Prefetch: 2, Shards: 8, TTL: time.Hour, clock: fc})
	defer svc.Close()

	var sessions []string
	for i := 0; i < 4; i++ {
		ds, err := svc.As("").CreateDataset(fmt.Sprintf("d%d", i), "key", "", strings.NewReader(paperCSV))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := svc.As("").OpenSession(ds.ID, "Name")
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess.ID)
	}
	// Sweep every shard (nothing is expired) while deciding on every
	// session; with -race this also proves the paths are data-race
	// free against each other.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			evictAll(svc)
		}
	}()
	for i, id := range sessions {
		gid, ok := nextUndecided(t, svc, id)
		if !ok {
			t.Fatalf("session %d: no groups", i)
		}
		if _, err := svc.As("").Decide(id, gid, goldrec.Approved); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if d, c := evictAll(svc); d != 0 || c != 0 {
		t.Fatalf("sweep with fresh entries evicted %d datasets, %d sessions", d, c)
	}
}
