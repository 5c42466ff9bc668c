package service

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/events"
	"github.com/goldrec/goldrec/internal/obs"
	"github.com/goldrec/goldrec/internal/obs/trace"
	"github.com/goldrec/goldrec/internal/store"
	"github.com/goldrec/goldrec/internal/tenant"
)

// mustOpenFS opens a filesystem store or fails the benchmark.
func mustOpenFS(b *testing.B, dir string) *store.FS {
	b.Helper()
	st, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// The service benchmarks quantify what registry sharding buys under
// multi-dataset load. They raise GOMAXPROCS to at least benchProcs so
// the lock contention the service would see on a real multi-core box is
// reproduced even on small CI runners; results feed BENCH_service.json
// and the CI bench gate (docs/ci.md).
const benchProcs = 8

// raiseProcs bumps GOMAXPROCS for the benchmark and returns a restore
// function.
func raiseProcs(n int) func() {
	old := runtime.GOMAXPROCS(0)
	if old >= n {
		return func() {}
	}
	runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(old) }
}

// benchFirstGroup waits for the session's generator to issue its first
// group and returns the group id.
func benchFirstGroup(svc *Service, sessionID string) (int, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		page, _, _, err := svc.As("").waitPage("", sessionID, 1, nil)
		if err != nil {
			return 0, err
		}
		if len(page.Groups) > 0 {
			return page.Groups[0].ID, nil
		}
		if page.Status == StatusExhausted || page.Status == StatusStalled {
			return 0, fmt.Errorf("session %s: %s with no groups", sessionID, page.Status)
		}
		time.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("session %s: no group within deadline", sessionID)
}

// BenchmarkConcurrentDecide is the hot-path contention benchmark: 8
// datasets, 8 goroutines per dataset, every goroutine driving the
// service-layer Decide path (session lookup, dataset touch, session
// mutex, group validation) against its own dataset. The decision
// targets an already-decided group, so the call is rejected after full
// validation and the stream never exhausts: what is measured is the
// per-request routing and locking the registries impose — exactly the
// part sharding parallelizes — not the engine's apply cost. With one
// shard every lookup serializes on one lock pair; with 8, distinct
// datasets almost never share one.
func BenchmarkConcurrentDecide(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			defer raiseProcs(benchProcs)()
			svc := New(Options{Shards: shards, Prefetch: 2})
			defer svc.Close()
			const datasets = 8
			type target struct {
				sess string
				gid  int
			}
			targets := make([]target, datasets)
			for i := range targets {
				ds, err := svc.As("").CreateDataset(fmt.Sprintf("bench-%d", i), "key", "", strings.NewReader(paperCSV))
				if err != nil {
					b.Fatal(err)
				}
				sess, err := svc.As("").OpenSession(ds.ID, "Name")
				if err != nil {
					b.Fatal(err)
				}
				gid, err := benchFirstGroup(svc, sess.ID)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := svc.As("").Decide(sess.ID, gid, goldrec.Rejected); err != nil {
					b.Fatal(err)
				}
				targets[i] = target{sess: sess.ID, gid: gid}
			}
			var next atomic.Int64
			b.SetParallelism((datasets * 8) / runtime.GOMAXPROCS(0))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				tg := targets[int(next.Add(1)-1)%datasets]
				for pb.Next() {
					if _, err := svc.As("").Decide(tg.sess, tg.gid, goldrec.Approved); !errors.Is(err, ErrConflict) {
						b.Fatalf("Decide = %v, want ErrConflict", err)
					}
				}
			})
		})
	}
}

// BenchmarkReviewChurn measures the full dataset lifecycle under
// concurrency: upload, open a column session, decide the first group,
// export, delete. Unlike BenchmarkConcurrentDecide this includes the
// engine's candidate generation, so per-op cost is dominated by real
// work; the shard axis shows the registries stay out of the way.
func BenchmarkReviewChurn(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			defer raiseProcs(benchProcs)()
			svc := New(Options{Shards: shards, Prefetch: 2})
			defer svc.Close()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					ds, err := svc.As("").CreateDataset("churn", "key", "", strings.NewReader(paperCSV))
					if err != nil {
						b.Fatal(err)
					}
					sess, err := svc.As("").OpenSession(ds.ID, "Name")
					if err != nil {
						b.Fatal(err)
					}
					gid, err := benchFirstGroup(svc, sess.ID)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := svc.As("").Decide(sess.ID, gid, goldrec.Rejected); err != nil {
						b.Fatal(err)
					}
					if _, err := svc.As("").Export(ds.ID, false); err != nil {
						b.Fatal(err)
					}
					if err := svc.As("").DeleteDataset(ds.ID); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// legacyRegistry replicates the pre-sharding registry this PR replaced:
// one RWMutex over one map, with get taking the exclusive lock (the
// idle timestamp was a plain field) and expiry scanning the whole map
// under the read lock. It exists only as the benchmark baseline the
// sharded numbers are gated against.
type legacyRegistry struct {
	mu    sync.RWMutex
	items map[string]*legacyItem
	ttl   time.Duration
	clock Clock
}

type legacyItem struct {
	val      int
	lastUsed time.Time
}

func newLegacyRegistry(ttl time.Duration, clock Clock) *legacyRegistry {
	return &legacyRegistry{items: make(map[string]*legacyItem), ttl: ttl, clock: clock}
}

func (r *legacyRegistry) add(id string, v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.items[id] = &legacyItem{val: v, lastUsed: r.clock.Now()}
}

func (r *legacyRegistry) get(id string) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	it, ok := r.items[id]
	if !ok {
		return 0, false
	}
	it.lastUsed = r.clock.Now()
	return it.val, true
}

func (r *legacyRegistry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.items, id)
}

func (r *legacyRegistry) expired() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cutoff := r.clock.Now().Add(-r.ttl)
	var ids []string
	for id, it := range r.items {
		if it.lastUsed.Before(cutoff) {
			ids = append(ids, id)
		}
	}
	return ids
}

// BenchmarkRegistryUnderSweep is the headline comparison against the
// replaced design: 8 goroutines performing the per-request registry
// pattern (session get + dataset touch) while a janitor continuously
// sweeps for expired entries over a 64k-entry registry. In the legacy
// single-lock registry every lookup takes the exclusive lock and the
// sweep holds the read lock for the full scan, so lookups stall behind
// whole-map sweeps; in the sharded registry lookups are read-locked,
// timestamps are atomic, and a sweep only ever holds one shard.
func BenchmarkRegistryUnderSweep(b *testing.B) {
	const n = 65536
	run := func(b *testing.B, get func(i int), sweep func()) {
		defer raiseProcs(benchProcs)()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					sweep()
				}
			}
		}()
		var seed atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(seed.Add(7919))
			for pb.Next() {
				get(i % n)
				i++
			}
		})
		b.StopTimer()
		close(stop)
		wg.Wait()
	}
	fc := newFakeClock(time.Unix(1700000000, 0))

	b.Run("legacy", func(b *testing.B) {
		r := newLegacyRegistry(time.Hour, fc)
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("cs_%08d", i)
			r.add(ids[i], i)
		}
		run(b,
			func(i int) {
				if _, ok := r.get(ids[i]); !ok {
					b.Fatal("live id missing")
				}
			},
			func() {
				if exp := r.expired(); exp != nil {
					b.Fatal("unexpected expiry")
				}
			})
	})
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			r := newRegistry[int]("cs", shards, time.Hour, fc)
			ids := make([]string, 0, n)
			for i := 0; i < n; i++ {
				ids = append(ids, r.add(i, nil))
			}
			run(b,
				func(i int) {
					if _, ok := r.get(ids[i]); !ok {
						b.Fatal("live id missing")
					}
				},
				func() {
					for s := 0; s < r.numShards(); s++ {
						if exp := r.expiredShard(s); exp != nil {
							b.Fatal("unexpected expiry")
						}
					}
				})
		})
	}
}

// BenchmarkRegistryGetTouch is the registry microbenchmark: concurrent
// id lookups (each refreshing the idle timestamp) over a populated
// registry, the operation every API request performs twice (session
// get + dataset touch).
func BenchmarkRegistryGetTouch(b *testing.B) {
	for _, shards := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			defer raiseProcs(benchProcs)()
			fc := newFakeClock(time.Unix(1700000000, 0))
			r := newRegistry[int]("cs", shards, time.Hour, fc)
			const n = 16384
			ids := make([]string, 0, n)
			for i := 0; i < n; i++ {
				ids = append(ids, r.add(i, nil))
			}
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(seed.Add(7919)) // distinct stride per goroutine
				for pb.Next() {
					if _, ok := r.get(ids[i%n]); !ok {
						b.Fatal("live id missing")
					}
					i++
				}
			})
		})
	}
}

// BenchmarkJanitorSweepUnderLoad measures one full TTL sweep (all
// shards, none expired) over a 64k-entry registry while mixed
// get/add/remove traffic runs on every shard — the background cost a
// janitor pass imposes on a loaded server. Per-shard sweeps hold one
// shard's lock at a time, so reader and writer throughput (reported as
// load-ops/s) survives the sweep.
func BenchmarkJanitorSweepUnderLoad(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			defer raiseProcs(benchProcs)()
			fc := newFakeClock(time.Unix(1700000000, 0))
			r := newRegistry[int]("cs", shards, time.Hour, fc)
			const n = 65536
			ids := make([]string, 0, n)
			for i := 0; i < n; i++ {
				ids = append(ids, r.add(i, nil))
			}
			stop := make(chan struct{})
			var loadOps atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if i%16 == 0 {
							id := r.add(i, nil)
							r.remove(id)
						} else {
							r.get(ids[i%n])
						}
						loadOps.Add(1)
						i += 7919
					}
				}(g)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := 0; s < r.numShards(); s++ {
					if exp := r.expiredShard(s); exp != nil {
						b.Fatalf("nothing should expire, got %d ids", len(exp))
					}
				}
			}
			b.StopTimer()
			elapsed := b.Elapsed()
			close(stop)
			wg.Wait()
			if s := elapsed.Seconds(); s > 0 {
				b.ReportMetric(float64(loadOps.Load())/s, "load-ops/s")
			}
		})
	}
}

// BenchmarkPlan measures the budget planner's hot path: collecting
// every live session's pending groups shard by shard, pricing them by
// expected gain, and ranking a cross-column allocation. The fixture is
// 8 mid-review datasets with both columns under review and all groups
// pending, so each plan walks the full candidate pool; the shard axis
// confirms collection stays contention-free. Gated by CI: a regression
// here means the planner started blocking sessions or copying too
// much.
func BenchmarkPlan(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			defer raiseProcs(benchProcs)()
			svc := New(Options{Shards: shards, Prefetch: 1 << 20})
			defer svc.Close()
			const datasets = 8
			var sessions []string
			for i := 0; i < datasets; i++ {
				ds, err := svc.As("").CreateDataset(fmt.Sprintf("bench-%d", i), "key", "", strings.NewReader(paperCSV))
				if err != nil {
					b.Fatal(err)
				}
				for _, col := range []string{"Name", "Address"} {
					sess, err := svc.As("").OpenSession(ds.ID, col)
					if err != nil {
						b.Fatal(err)
					}
					sessions = append(sessions, sess.ID)
				}
			}
			// Wait for every generator to exhaust with all groups
			// pending, the planner's worst (and steady-state) case.
			deadline := time.Now().Add(60 * time.Second)
			for _, id := range sessions {
				for {
					st, err := svc.As("").ReviewState(id)
					if err != nil {
						b.Fatal(err)
					}
					if st.Exhausted {
						break
					}
					if time.Now().After(deadline) {
						b.Fatalf("session %s never exhausted", id)
					}
					time.Sleep(time.Millisecond)
				}
			}
			probe, err := svc.As("").Plan(1 << 20)
			if err != nil {
				b.Fatal(err)
			}
			if probe.Pending == 0 {
				b.Fatal("no pending groups to plan over")
			}
			budget := probe.Pending / 2
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					plan, err := svc.As("").Plan(budget)
					if err != nil {
						b.Fatal(err)
					}
					if plan.Allocated != budget {
						b.Fatalf("allocated %d, want %d", plan.Allocated, budget)
					}
				}
			})
		})
	}
}

// BenchmarkAuthMiddleware prices the per-request cost of the auth
// layer on a cheap, hot endpoint (dataset info: two registry reads plus
// a small JSON encode). The off/on delta is what tenancy adds to every
// request — one SHA-256 of the presented key, a constant-time digest
// scan, and a context value — and the CI gate holds it to the same 25%
// band as the other hot paths. Sub-benchmarks: auth off, the admin key
// (digest compare only), and a tenant key (registry scan + ownership
// filter on the dataset lookup).
func BenchmarkAuthMiddleware(b *testing.B) {
	run := func(b *testing.B, svc *Service, key, dsID string) {
		defer raiseProcs(benchProcs)()
		h := svc.Handler()
		path := "/v1/datasets/" + dsID
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				req := httptest.NewRequest("GET", path, nil)
				if key != "" {
					req.Header.Set("Authorization", "Bearer "+key)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
		})
	}

	b.Run("off", func(b *testing.B) {
		svc := New(Options{})
		defer svc.Close()
		ds, err := svc.As("").CreateDataset("bench", "key", "", strings.NewReader(paperCSV))
		if err != nil {
			b.Fatal(err)
		}
		run(b, svc, "", ds.ID)
	})
	const adminKey = "bench-admin-key-0123456789abcdef"
	b.Run("admin", func(b *testing.B) {
		reg, err := tenant.Open(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		svc := New(Options{Tenants: reg, AdminKey: adminKey})
		defer svc.Close()
		ds, err := svc.As("").CreateDataset("bench", "key", "", strings.NewReader(paperCSV))
		if err != nil {
			b.Fatal(err)
		}
		run(b, svc, adminKey, ds.ID)
	})
	b.Run("tenant", func(b *testing.B) {
		reg, err := tenant.Open(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		info, key, err := reg.Create("bench", tenant.Quotas{})
		if err != nil {
			b.Fatal(err)
		}
		svc := New(Options{Tenants: reg, AdminKey: adminKey})
		defer svc.Close()
		ds, err := svc.As(info.ID).CreateDataset("bench", "key", "", strings.NewReader(paperCSV))
		if err != nil {
			b.Fatal(err)
		}
		run(b, svc, key, ds.ID)
	})
}

// BenchmarkObsOverhead prices the observability layer itself: the same
// hot HTTP decide path (full middleware + validation, rejected as a
// conflict so the stream never drains) with instrumentation fully on —
// live registry plus a JSON request logger writing to io.Discard — and
// fully off (noop registry, no logger). The on/off delta is the
// per-request cost of request-id generation, route normalization, the
// counter bumps, the latency histogram and the structured log line.
// The instrumented leg joins the CI gate like the other hot paths.
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, opts Options) {
		defer raiseProcs(benchProcs)()
		opts.Prefetch = 2
		svc := New(opts)
		defer svc.Close()
		ds, err := svc.As("").CreateDataset("bench", "key", "", strings.NewReader(paperCSV))
		if err != nil {
			b.Fatal(err)
		}
		sess, err := svc.As("").OpenSession(ds.ID, "Name")
		if err != nil {
			b.Fatal(err)
		}
		gid, err := benchFirstGroup(svc, sess.ID)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.As("").Decide(sess.ID, gid, goldrec.Rejected); err != nil {
			b.Fatal(err)
		}
		h := svc.Handler()
		path := "/v1/sessions/" + sess.ID + "/decisions"
		body := fmt.Sprintf(`{"group_id":%d,"decision":"approve"}`, gid)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				req := httptest.NewRequest("POST", path, strings.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusConflict {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
	b.Run("on", func(b *testing.B) {
		run(b, Options{Logger: obs.NewLogger(io.Discard, obs.LogJSON, slog.LevelInfo)})
	})
	b.Run("off", func(b *testing.B) {
		run(b, Options{Metrics: obs.Noop()})
	})
}

// BenchmarkTraceOverhead prices the span tracer on the same hot HTTP
// decide path as BenchmarkObsOverhead: the "on" leg runs the fully
// instrumented stack plus a live tracer — a root span per request with
// traceparent generation, annotations, tail classification and ring
// insertion — and the "off" leg runs the identical stack with tracing
// nil (every span call is a nil no-op). The on leg joins the CI gate:
// tracing every request must stay within a whisker of free.
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(b *testing.B, opts Options) {
		defer raiseProcs(benchProcs)()
		opts.Prefetch = 2
		opts.Logger = obs.NewLogger(io.Discard, obs.LogJSON, slog.LevelInfo)
		svc := New(opts)
		defer svc.Close()
		ds, err := svc.As("").CreateDataset("bench", "key", "", strings.NewReader(paperCSV))
		if err != nil {
			b.Fatal(err)
		}
		sess, err := svc.As("").OpenSession(ds.ID, "Name")
		if err != nil {
			b.Fatal(err)
		}
		gid, err := benchFirstGroup(svc, sess.ID)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.As("").Decide(sess.ID, gid, goldrec.Rejected); err != nil {
			b.Fatal(err)
		}
		h := svc.Handler()
		path := "/v1/sessions/" + sess.ID + "/decisions"
		body := fmt.Sprintf(`{"group_id":%d,"decision":"approve"}`, gid)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				req := httptest.NewRequest("POST", path, strings.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusConflict {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
	b.Run("on", func(b *testing.B) {
		run(b, Options{Tracer: trace.New(trace.Options{})})
	})
	b.Run("off", func(b *testing.B) {
		run(b, Options{})
	})
}

// BenchmarkTenantScopedPlan is BenchmarkPlan under multi-tenancy: 4
// tenants each owning 2 mid-review datasets (both columns, all groups
// pending), planning as one tenant. The scoped collection walks every
// shard but filters by owner during the walk, so the cost scales with
// the tenant's own sessions, not the whole fleet's — and stays
// contention-free across shard counts, which is what the CI gate
// checks.
func BenchmarkTenantScopedPlan(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			defer raiseProcs(benchProcs)()
			reg, err := tenant.Open(nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			svc := New(Options{Shards: shards, Prefetch: 1 << 20, Tenants: reg})
			defer svc.Close()
			const tenants = 4
			var owners []string
			var sessions []string
			for i := 0; i < tenants; i++ {
				info, _, err := reg.Create(fmt.Sprintf("bench-%d", i), tenant.Quotas{})
				if err != nil {
					b.Fatal(err)
				}
				owners = append(owners, info.ID)
				for j := 0; j < 2; j++ {
					ds, err := svc.As(info.ID).CreateDataset(fmt.Sprintf("t%d-ds%d", i, j), "key", "", strings.NewReader(paperCSV))
					if err != nil {
						b.Fatal(err)
					}
					for _, col := range []string{"Name", "Address"} {
						sess, err := svc.As(info.ID).OpenSession(ds.ID, col)
						if err != nil {
							b.Fatal(err)
						}
						sessions = append(sessions, sess.ID)
					}
				}
			}
			deadline := time.Now().Add(60 * time.Second)
			for _, id := range sessions {
				for {
					st, err := svc.As("").ReviewState(id)
					if err != nil {
						b.Fatal(err)
					}
					if st.Exhausted {
						break
					}
					if time.Now().After(deadline) {
						b.Fatalf("session %s never exhausted", id)
					}
					time.Sleep(time.Millisecond)
				}
			}
			victim := svc.As(owners[0])
			probe, err := victim.Plan(1 << 20)
			if err != nil {
				b.Fatal(err)
			}
			if probe.Pending == 0 {
				b.Fatal("no pending groups to plan over")
			}
			global, err := svc.As("").Plan(1 << 20)
			if err != nil {
				b.Fatal(err)
			}
			if global.Pending <= probe.Pending {
				b.Fatal("scoping did not reduce the candidate pool")
			}
			budget := probe.Pending / 2
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					plan, err := victim.Plan(budget)
					if err != nil {
						b.Fatal(err)
					}
					if plan.Allocated != budget {
						b.Fatalf("allocated %d, want %d", plan.Allocated, budget)
					}
				}
			})
		})
	}
}

// BenchmarkRecover measures boot-time recovery of a store directory
// holding several mid-review datasets — parallelized across shards, so
// the shard axis is the recovery-concurrency axis.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	seedStore := mustOpenFS(b, dir)
	seed := New(Options{Prefetch: 2, Store: seedStore})
	const datasets = 6
	for i := 0; i < datasets; i++ {
		ds, err := seed.As("").CreateDataset(fmt.Sprintf("bench-%d", i), "key", "", strings.NewReader(paperCSV))
		if err != nil {
			b.Fatal(err)
		}
		sess, err := seed.As("").OpenSession(ds.ID, "Name")
		if err != nil {
			b.Fatal(err)
		}
		gid, err := benchFirstGroup(seed, sess.ID)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := seed.As("").Decide(sess.ID, gid, goldrec.Approved); err != nil {
			b.Fatal(err)
		}
	}
	seed.Close()
	seedStore.Close()

	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			defer raiseProcs(benchProcs)()
			for i := 0; i < b.N; i++ {
				st := mustOpenFS(b, dir)
				svc := New(Options{Prefetch: 2, Store: st, Shards: shards})
				nds, _, err := svc.Recover()
				if err != nil {
					b.Fatal(err)
				}
				if nds != datasets {
					b.Fatalf("recovered %d datasets, want %d", nds, datasets)
				}
				b.StopTimer()
				svc.Close()
				st.Close()
				b.StartTimer()
			}
		})
	}
}

// benchExhaust waits until the session's generator has exhausted the
// group stream.
func benchExhaust(svc *Service, sessionID string) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := svc.As("").ReviewState(sessionID)
		if err != nil {
			return err
		}
		if st.Exhausted {
			return nil
		}
		time.Sleep(50 * time.Microsecond)
	}
	return fmt.Errorf("session %s never exhausted", sessionID)
}

// BenchmarkWarmStartUpload prices what the transformation library saves
// on a repeat upload: one iteration uploads the paper dataset, opens
// the Name session and waits for the group stream to exhaust. The cold
// leg runs with an empty library, so the engine graphs and groups every
// candidate and all groups await human review; the warm leg first
// teaches the library by fully approving one review, so the session
// pre-applies the remembered programs at open and the reviewer-facing
// stream is (near) empty. The CI gate holds warm to <= 0.5x cold —
// warm-start must keep paying for itself end to end, not just in
// pre-decided counts.
func BenchmarkWarmStartUpload(b *testing.B) {
	run := func(b *testing.B, teach bool) {
		defer raiseProcs(benchProcs)()
		svc := New(Options{Prefetch: 1 << 20})
		defer svc.Close()
		if teach {
			ds, err := svc.As("").CreateDataset("teach", "key", "", strings.NewReader(paperCSV))
			if err != nil {
				b.Fatal(err)
			}
			sess, err := svc.As("").OpenSession(ds.ID, "Name")
			if err != nil {
				b.Fatal(err)
			}
			for {
				page, _, _, err := svc.As("").waitPage("", sess.ID, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(page.Groups) == 0 {
					if page.Status == StatusExhausted {
						break
					}
					time.Sleep(50 * time.Microsecond)
					continue
				}
				if _, err := svc.As("").Decide(sess.ID, page.Groups[0].ID, goldrec.Approved); err != nil {
					b.Fatal(err)
				}
			}
			if err := svc.As("").DeleteDataset(ds.ID); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds, err := svc.As("").CreateDataset(fmt.Sprintf("up-%d", i), "key", "", strings.NewReader(paperCSV))
			if err != nil {
				b.Fatal(err)
			}
			sess, err := svc.As("").OpenSession(ds.ID, "Name")
			if err != nil {
				b.Fatal(err)
			}
			if err := benchExhaust(svc, sess.ID); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			st, err := svc.As("").ReviewState(sess.ID)
			if err != nil {
				b.Fatal(err)
			}
			if teach && st.Stats.WarmGroups == 0 {
				b.Fatal("taught library pre-decided nothing")
			}
			if !teach && st.Stats.WarmGroups != 0 {
				b.Fatal("cold leg unexpectedly opened warm")
			}
			if err := svc.As("").DeleteDataset(ds.ID); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, false) })
	b.Run("warm", func(b *testing.B) { run(b, true) })
}

// BenchmarkEventsOverhead prices the audit/event log on the real
// decide hot path: each timed op is one authenticated-shape HTTP POST
// that records a fresh decision, which on the "on" leg emits
// decision.recorded and library.taught into a durably-backed event log
// and on the "off" leg hits the nil-log no-ops. Fetching the next
// undecided group, waiting for the generator to park, and rebuilding
// sessions as they exhaust all happen off-timer, so the quotient
// isolates what emission adds to a decide.
// The event store runs NoSync like the gated WAL benchmarks — the
// flusher's sync is off the decide path by construction, and on a
// small runner a disk-bound background fsync would measure the disk,
// not the bus. Emission is a ring push, a fan-out of non-blocking
// channel sends and a queue append — never a durable write — and the
// checked-in baseline reads on/off 1.02. CI gates the same-run ratio
// at on/off <= 1.35 all the same: each timed decide also wakes the
// generator and, on the on leg only, the event flusher, and on a
// 2-vCPU runner their contention for the CPUs swings the ratio between
// 1.11 and 1.30 from run to run. The bound catches a durable write or
// a blocking send on the decide path, not a few percent of drift.
func BenchmarkEventsOverhead(b *testing.B) {
	run := func(b *testing.B, withEvents bool) {
		defer raiseProcs(benchProcs)()
		opts := Options{Prefetch: 4}
		var el *events.Log
		if withEvents {
			fsStore, err := store.OpenFS(b.TempDir(), store.FSOptions{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer fsStore.Close()
			el, err = events.Open(events.Options{Store: fsStore})
			if err != nil {
				b.Fatal(err)
			}
			defer el.Close()
			opts.Events = el
		}
		svc := New(opts)
		defer svc.Close()
		h := svc.Handler()
		builds := 0
		var sid string
		openSess := func() {
			builds++
			ds, err := svc.As("").CreateDataset(fmt.Sprintf("bench%d", builds), "key", "", strings.NewReader(paperCSV))
			if err != nil {
				b.Fatal(err)
			}
			sess, err := svc.As("").OpenSession(ds.ID, "Name")
			if err != nil {
				b.Fatal(err)
			}
			sid = sess.ID
		}
		// parked reports whether the generator has stopped: out of
		// NextGroup with a full buffer or an exhausted stream. A decide
		// admitted earlier would wait out the generator's next engine
		// step inside the timed window.
		parked := func() bool {
			cs, ok := svc.sessions.peek(sid)
			if !ok {
				b.Fatalf("session %s vanished", sid)
			}
			cs.mu.Lock()
			defer cs.mu.Unlock()
			return !cs.busy && (cs.exhausted || len(cs.pending) >= cs.prefetch)
		}
		next := func() (int, bool) {
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				if parked() {
					st, err := svc.As("").ReviewState(sid)
					if err != nil {
						b.Fatal(err)
					}
					for _, g := range st.Groups {
						if g.Decision == goldrec.Pending {
							return g.ID, true
						}
					}
					if st.Exhausted {
						return 0, false
					}
				}
				time.Sleep(50 * time.Microsecond)
			}
			b.Fatal("no reviewable group within deadline")
			return 0, false
		}
		openSess()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Drain the flusher off-timer: on a one-core runner its
			// background encode+append would otherwise preempt random
			// timed windows, measuring scheduler luck instead of what
			// emission itself adds to the handler.
			if el != nil {
				el.Flush()
			}
			gid, ok := next()
			if !ok {
				openSess()
				if gid, ok = next(); !ok {
					b.Fatal("fresh session already exhausted")
				}
			}
			// Reject rather than approve: approvals would make the
			// programs warm-start priors and every rebuilt session would
			// open with nothing left to review. Rejections still emit
			// decision.recorded and library.taught on the on leg.
			body := fmt.Sprintf(`{"group_id":%d,"decision":"reject"}`, gid)
			req := httptest.NewRequest("POST", "/v1/sessions/"+sid+"/decisions", strings.NewReader(body))
			rec := httptest.NewRecorder()
			b.StartTimer()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
	}
	b.Run("on", func(b *testing.B) { run(b, true) })
	b.Run("off", func(b *testing.B) { run(b, false) })
}
