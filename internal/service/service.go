// Package service implements goldrecd's HTTP consolidation service: a
// managed registry of uploaded datasets and per-column review sessions,
// exposing the paper's largest-group-first verification loop
// (Algorithm 1) to remote reviewers over JSON.
//
// The service model maps the library onto long-lived server state:
//
//   - A dataset is an uploaded clustered CSV wrapped in a
//     goldrec.Consolidator, addressed by an opaque id.
//   - A column session owns the review of one column. Candidate
//     generation and incremental grouping run in a background
//     goroutine that keeps a small buffer of pending groups ahead of
//     the reviewer, so group discovery overlaps with human review
//     latency instead of blocking each fetch.
//   - Decisions arrive by group id (goldrec.Session.Decide), so
//     reviewers need no in-process pointers and can reconnect at any
//     time (goldrec.Session.ReviewState rebuilds their view).
//
// Concurrency: the registries are sharded — ids hash to one of N
// shards (Options.Shards, default GOMAXPROCS), each with its own
// RWMutex, id→entry map and TTL janitor — so traffic on distinct
// datasets or sessions almost never contends on a shared lock, and an
// eviction sweep of one shard never blocks lookups on another. Each
// column session guards its state with its own mutex, which the
// generator releases while the engine computes the next group (see
// columnSession); and a per-dataset RWMutex lets sessions on distinct
// columns apply concurrently (read side) while golden-record export
// (write side) sees a quiescent dataset.
//
// Multi-tenancy: with Options.Tenants set, every request authenticates
// with an API key and runs inside a Scope — datasets and sessions carry
// their owning tenant, every lookup, listing and plan filters by it
// (foreign ids read as 404), and the registry's quotas (datasets,
// sessions, upload bytes) and decisions/sec token buckets are enforced
// with 403/413/429. Without it the service behaves exactly as before
// tenancy existed: one implicit, unlimited, unauthenticated principal.
//
// Durability: every state transition is persisted through a store.Store
// before it is acknowledged — uploads snapshot the dataset, session
// opens record their meta, and each decision is appended to the
// session's write-ahead log before the apply. With a persistent store,
// TTL eviction is passivation: the in-memory state is dropped (it is
// already durable) and transparently rebuilt from snapshot + WAL replay
// on the next touch; restarts rebuild everything the same way
// (Recover). With the default store.Null, eviction deletes, exactly as
// before persistence existed. Datasets passivate as a unit — a session
// is only ever evicted together with its dataset, because WAL replay
// reconstructs a session by regenerating its groups against the
// snapshot's column values.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/events"
	"github.com/goldrec/goldrec/internal/library"
	"github.com/goldrec/goldrec/internal/obs"
	"github.com/goldrec/goldrec/internal/obs/trace"
	"github.com/goldrec/goldrec/internal/store"
	"github.com/goldrec/goldrec/internal/tenant"
	"github.com/goldrec/goldrec/table"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrNotFound means the dataset or session id is unknown (or was
	// evicted).
	ErrNotFound = errors.New("not found")
	// ErrConflict means the request collides with live state (for
	// example, a second session on a column under review).
	ErrConflict = errors.New("conflict")
	// ErrLimit means the -max-sessions cap is reached.
	ErrLimit = errors.New("session limit reached")
	// ErrClosed means the service is shutting down.
	ErrClosed = errors.New("service closed")
	// ErrStorage means the persistence backend failed; the request was
	// not durably recorded and must be retried.
	ErrStorage = errors.New("storage failure")
)

const (
	defaultPrefetch = 8
	defaultTTL      = 30 * time.Minute
)

// Options configure a Service.
type Options struct {
	// TTL evicts datasets and sessions idle longer than this
	// (0 = 30m; negative = never evict).
	TTL time.Duration
	// MaxSessions caps live column sessions across all datasets
	// (0 = unlimited).
	MaxSessions int
	// Prefetch is how many undecided groups a session's generator
	// keeps ready ahead of the reviewer (0 = 8).
	Prefetch int
	// Logf, when set, receives one line per notable event.
	Logf func(format string, args ...any)
	// JanitorInterval is how often the eviction janitor runs
	// (0 = TTL/4, only meaningful with a positive TTL).
	JanitorInterval time.Duration
	// Store persists datasets and decision WALs (nil = store.Null:
	// nothing persists and eviction deletes). The service does not
	// close the store; its owner does, after Close.
	Store store.Store
	// MaxUploadBytes caps the request body of a dataset upload
	// (0 = unlimited).
	MaxUploadBytes int64
	// Shards is how many lock shards each registry is partitioned into
	// (0 = GOMAXPROCS). Traffic on distinct datasets contends only when
	// their ids hash to the same shard; each shard gets its own TTL
	// janitor. Shard count does not affect durable state: the same
	// store directory recovers identically under any value.
	Shards int

	// Tenants enables multi-tenant operation: every /v1 request must
	// authenticate with an API key, datasets and sessions are owned by
	// (and visible only to) the tenant that created them, and the
	// registry's quotas and decision rate limits are enforced. nil =
	// open mode, the pre-tenancy behavior: no authentication, every
	// caller unscoped.
	Tenants *tenant.Registry
	// AdminKey is the bootstrap admin API key. A request presenting it
	// is unscoped (sees every tenant's data) and may call the
	// /v1/tenants admin API. Only its SHA-256 is retained after New.
	// Meaningful only with Tenants set.
	AdminKey string

	// Metrics is the observability registry the service records into
	// (nil = a private registry, still served on /metrics/prometheus).
	// Pass obs.Noop() to disable instrumentation entirely.
	Metrics *obs.Registry
	// Logger receives one structured record per HTTP request, with
	// request id, tenant and route attached from the request context
	// (nil = no request logging).
	Logger *slog.Logger
	// Tracer records request-scoped span traces into its flight
	// recorder: the middleware opens a root span per request (honoring
	// an inbound W3C traceparent header), the engine and store layers
	// attach phase and durability spans, and completed traces are
	// retained tail-first per route (recent/slow/errored). nil = no
	// tracing, at zero per-request cost. Mount Tracer.Handler() on a
	// private listener to browse the recorder.
	Tracer *trace.Tracer

	// Events is the audit/event log every mutating operation publishes
	// into, exposed live on GET /v1/events. The service does not own it
	// (like Store): its owner opens it before New and closes it after
	// Close. nil = events disabled, every emission a no-op.
	Events *events.Log

	// BuildInfo identifies the running binary (ldflags-stamped version
	// and commit); surfaced on /healthz and in the startup log.
	BuildInfo BuildInfo

	// SSEHeartbeat is how often an idle SSE stream writes a heartbeat
	// comment so intermediaries keep the connection open (0 = 15s).
	SSEHeartbeat time.Duration

	// clock substitutes time in tests (nil = wall clock).
	clock Clock
}

// BuildInfo identifies the running binary.
type BuildInfo struct {
	Version string `json:"version,omitempty"`
	Commit  string `json:"commit,omitempty"`
}

// Service owns the dataset and session registries.
type Service struct {
	opts     Options
	store    store.Store
	clock    Clock
	datasets *shardedRegistry[*dataset]
	sessions *shardedRegistry[*columnSession]
	metrics  *serviceMetrics
	logger   *slog.Logger
	tracer   *trace.Tracer
	events   *events.Log

	// library is the per-tenant durable transformation memory: every
	// acknowledged verdict is recorded into the owning tenant's library,
	// and session opens consult it for warm-start priors.
	library *library.Registry

	// ready flips once the owner finishes startup recovery (MarkReady);
	// /readyz serves 503 until then, while /healthz stays live.
	ready atomic.Bool

	// adminHash is the SHA-256 of Options.AdminKey; hasAdmin marks it
	// valid (so an empty AdminKey can never authenticate).
	adminHash [sha256.Size]byte
	hasAdmin  bool

	mu     sync.Mutex // guards closed and the session-count check-and-add
	closed bool

	// drain closes when graceful shutdown begins (BeginDrain): every
	// open SSE stream sends a close event and returns, and long-polling
	// group fetches cancel their waits, so the HTTP server's Shutdown
	// deadline is spent on real work, not parked connections.
	drain     chan struct{}
	drainOnce sync.Once

	// admitMu serializes one tenant's resource admissions (dataset and
	// session creates) so a quota check-and-register is atomic per
	// tenant: two concurrent creates cannot both pass the same last
	// quota slot. Keyed by tenant id; guarded by mu. Lock ordering:
	// admission mutex before mu.
	admitMu map[string]*sync.Mutex

	// restoreMu serializes passivation misses so one goroutine rebuilds
	// a dataset while the others wait and then find it live. One mutex
	// per dataset shard: restores of datasets on distinct shards (and
	// boot-time recovery goroutines) proceed in parallel.
	restoreMu []sync.Mutex

	janitorStop chan struct{}
	janitorDone sync.WaitGroup
}

// New returns a ready Service and starts its eviction janitor (when the
// TTL is positive). Call Close to stop it.
func New(opts Options) *Service {
	if opts.TTL == 0 {
		opts.TTL = defaultTTL
	}
	if opts.TTL < 0 {
		opts.TTL = 0
	}
	if opts.Prefetch <= 0 {
		opts.Prefetch = defaultPrefetch
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.clock == nil {
		opts.clock = realClock{}
	}
	if opts.Store == nil {
		opts.Store = store.Null{}
	}
	if opts.Shards <= 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// Library load failures must not hold the whole service down (same
	// stance as dataset recovery): log and start with an empty memory —
	// the snapshots and change logs stay on disk for a later boot.
	lib, err := library.Open(opts.Store)
	if err != nil {
		opts.Logf("library: load failed, starting empty: %v", err)
		lib, _ = library.Open(nil)
	}
	s := &Service{
		opts:      opts,
		store:     opts.Store,
		clock:     opts.clock,
		datasets:  newRegistry[*dataset]("ds", opts.Shards, opts.TTL, opts.clock),
		sessions:  newRegistry[*columnSession]("cs", opts.Shards, opts.TTL, opts.clock),
		metrics:   newServiceMetrics(reg),
		logger:    opts.Logger,
		tracer:    opts.Tracer,
		events:    opts.Events,
		drain:     make(chan struct{}),
		library:   lib,
		restoreMu: make([]sync.Mutex, opts.Shards),
		admitMu:   make(map[string]*sync.Mutex),
	}
	if opts.AdminKey != "" {
		s.adminHash = sha256.Sum256([]byte(opts.AdminKey))
		s.hasAdmin = true
		s.opts.AdminKey = "" // only the hash is needed past this point
	}
	if opts.TTL > 0 {
		interval := opts.JanitorInterval
		if interval <= 0 {
			interval = opts.TTL / 4
		}
		s.janitorStop = make(chan struct{})
		// One janitor per shard: a sweep only ever holds one shard's
		// lock, so eviction on a cold shard never stalls a hot one.
		for i := 0; i < opts.Shards; i++ {
			s.janitorDone.Add(1)
			go s.janitor(i, interval)
		}
	}
	return s
}

// Shards returns the registries' shard count.
func (s *Service) Shards() int { return s.opts.Shards }

// MarkReady flips /readyz to 200. The daemon calls it after Recover()
// completes; a service that never recovers anything may call it
// immediately after New.
func (s *Service) MarkReady() { s.ready.Store(true) }

// Ready reports whether MarkReady has been called.
func (s *Service) Ready() bool { return s.ready.Load() }

// BeginDrain starts graceful shutdown of the streaming endpoints:
// every open SSE stream writes a close event and returns, long-polling
// group fetches wake and answer immediately. Idempotent; Close calls
// it too. The daemon calls it right before http.Server.Shutdown so the
// drain deadline is not spent waiting out parked streams.
func (s *Service) BeginDrain() {
	s.drainOnce.Do(func() { close(s.drain) })
}

// Draining reports whether BeginDrain has been called.
func (s *Service) Draining() bool { return chanClosed(s.drain) }

// Close stops the janitor and every session generator. In-flight HTTP
// requests against removed sessions fail with ErrNotFound.
func (s *Service) Close() {
	s.BeginDrain()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	if s.janitorStop != nil {
		close(s.janitorStop)
		s.janitorDone.Wait()
	}
	for _, cs := range s.sessions.list() {
		s.closeSession(cs)
	}
	for _, d := range s.datasets.list() {
		s.datasets.remove(d.id)
	}
	// Shutdown hygiene: fold every tenant's library change log into a
	// fresh snapshot (recovery never requires it, but boots load faster).
	s.library.Snapshot()
}

// janitor sweeps one shard of both registries on its own ticker.
func (s *Service) janitor(shard int, interval time.Duration) {
	defer s.janitorDone.Done()
	t := s.clock.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C():
			ds, cs := s.evictExpiredShard(shard)
			if ds+cs > 0 {
				s.opts.Logf("janitor[%d]: evicted %d dataset(s), %d session(s)", shard, ds, cs)
			}
		}
	}
}

// EvictExpired removes idle state and reports how many datasets and
// sessions went. The semantics depend on the store:
//
//   - Memory-only (store.Null): eviction is deletion, and idle sessions
//     are evicted individually (an abandoned session must not pin its
//     column and -max-sessions slot forever just because its dataset
//     stays hot).
//   - Persistent store: eviction is passivation — state stays on disk
//     and the next touch restores it — and a dataset passivates as a
//     unit with its sessions. Sessions are never passivated alone: WAL
//     replay rebuilds a session against the snapshot's column values,
//     which a still-live, already-mutated dataset does not have.
//     (Session touches refresh the dataset, so an idle dataset implies
//     idle sessions.)
//
// The per-shard janitors call evictExpiredShard periodically; tests
// call EvictExpired (a full sweep) directly with a fake clock.
func (s *Service) EvictExpired() (datasetsEvicted, sessionsEvicted int) {
	for i := 0; i < s.opts.Shards; i++ {
		ds, cs := s.evictExpiredShard(i)
		datasetsEvicted += ds
		sessionsEvicted += cs
	}
	return datasetsEvicted, sessionsEvicted
}

// evictExpiredShard sweeps shard i of both registries. A dataset's
// sessions are found through its own column→session table rather than
// a scan of the whole session registry, so evicting one dataset is
// O(its sessions), never O(all sessions).
func (s *Service) evictExpiredShard(i int) (datasetsEvicted, sessionsEvicted int) {
	if !s.persistent() {
		for _, id := range s.sessions.expiredShard(i) {
			if cs, ok := s.sessions.get(id); ok {
				s.closeSession(cs)
				sessionsEvicted++
			}
		}
	}
	for _, id := range s.datasets.expiredShard(i) {
		d, ok := s.datasets.remove(id)
		if !ok {
			continue
		}
		datasetsEvicted++
		// A dataset takes its sessions with it. Their decision WALs are
		// already durable (appends precede acknowledgements), so
		// passivation writes nothing.
		for _, cs := range s.datasetSessions(d) {
			s.closeSession(cs)
			sessionsEvicted++
		}
	}
	return datasetsEvicted, sessionsEvicted
}

// datasetSessions returns the live sessions registered on d's columns.
func (s *Service) datasetSessions(d *dataset) []*columnSession {
	d.mu.Lock()
	ids := make([]string, 0, len(d.columns))
	for _, sid := range d.columns {
		ids = append(ids, sid)
	}
	d.mu.Unlock()
	sort.Strings(ids)
	out := make([]*columnSession, 0, len(ids))
	for _, sid := range ids {
		if cs, ok := s.sessions.get(sid); ok {
			out = append(out, cs)
		}
	}
	return out
}

// persistent reports whether evicted state is restorable from the
// store.
func (s *Service) persistent() bool {
	_, null := s.store.(store.Null)
	return !null
}

// dataset wraps one uploaded Consolidator.
type dataset struct {
	id      string
	created time.Time
	keyCol  string
	// owner is the id of the tenant the dataset belongs to ("" = open
	// mode or admin-created: unowned, visible only to unscoped callers).
	owner string
	cons  *goldrec.Consolidator

	// applyMu orders column writes against whole-dataset reads:
	// sessions hold the read side while applying (distinct columns
	// never conflict), exports hold the write side so they see a
	// quiescent dataset.
	applyMu sync.RWMutex

	// mu guards columns, the one-session-per-column invariant.
	mu      sync.Mutex
	columns map[int]string // column index → owning session id
}

// columnSession owns the review of one column. All fields below mu are
// guarded by it; cond is signaled whenever pending, exhausted, closed,
// busy or sess change.
//
// The generator runs the engine (NextGroupCtx) with mu released and
// busy set, so readers never wait on the engine: group pages, the plan
// and info read only the fields mu guards (plus ApproveRate and the
// groups' RemainingSites, which only Decide mutates). Everything else
// that touches sess waits for busy to clear, and decisions wait further
// for the generator to park (awaitParkedLocked), which keeps the group
// sequence — and so the WAL — a function of the decisions alone.
type columnSession struct {
	id        string
	datasetID string
	column    string
	col       int
	// owner mirrors the dataset's owning tenant: a session is always
	// owned by (and counted against) its dataset's tenant.
	owner string
	d     *dataset
	// resume makes the generator replay the session's WAL (restoring a
	// passivated or pre-restart session) before producing new groups.
	resume bool

	mu   sync.Mutex
	cond *sync.Cond
	// rev counts state changes a groups reader could observe (pending,
	// status). SSE group streams hold the last rev they rendered and
	// wait for it to move — bumpLocked is the only writer.
	rev       uint64
	sess      *goldrec.Session // nil until candidate generation finishes
	pending   []*goldrec.Group // issued, undecided, oldest first
	exhausted bool
	closed    bool
	// busy means the generator is inside sess.NextGroupCtx with mu
	// released; sess must not be touched until it clears.
	busy bool
	// stats snapshots sess.Stats() after every publish, issue,
	// exhaustion and decision (or holds the archive's), so info never
	// reads counters the generator bumps while busy.
	stats goldrec.SessionStats
	// stalled means the generator stopped because the store rejected an
	// issue append; see StatusStalled.
	stalled bool
	// compacted means this session's decisions were folded into the
	// dataset snapshot and its WAL deleted.
	compacted bool
	// archived replaces sess for a session restored after compaction:
	// the final ReviewState is served from the archive and no further
	// decisions are possible.
	archived *goldrec.ReviewState
}

// createDataset ingests a clustered CSV (key column identifies
// clusters; optional source column populates Record.Source) and
// registers it under the owning tenant ("" = unowned). The context
// carries the request's trace span, if any.
func (s *Service) createDataset(ctx context.Context, owner, name, keyCol, srcCol string, csv io.Reader) (DatasetInfo, error) {
	if err := s.alive(); err != nil {
		return DatasetInfo{}, err
	}
	if name == "" {
		name = "dataset"
	}
	if keyCol == "" {
		return DatasetInfo{}, fmt.Errorf("missing key column name")
	}
	// Parse before any admission lock: the body read is paced by the
	// client's network, and holding the tenant's lock across it would
	// let one slow upload freeze the tenant's whole write path.
	ds, err := table.ReadCSV(csv, name, keyCol, srcCol)
	if err != nil {
		return DatasetInfo{}, err
	}
	cons, err := goldrec.New(ds)
	if err != nil {
		return DatasetInfo{}, err
	}
	d := &dataset{
		created: s.clock.Now(),
		keyCol:  keyCol,
		owner:   owner,
		cons:    cons,
		columns: make(map[int]string),
	}
	if owner != "" {
		// The admission lock covers only check-and-register: once the
		// dataset is in the registry it counts against the quota, so the
		// slot is reserved and the (slow) snapshot write can happen
		// outside the lock.
		mu := s.admissionLock(owner)
		mu.Lock()
		if q, ok := s.quotasFor(owner); ok && q.MaxDatasets > 0 {
			if n := s.ownedDatasetCount(owner); n >= q.MaxDatasets {
				mu.Unlock()
				return DatasetInfo{}, fmt.Errorf("%w: dataset quota reached (max %d)", ErrQuota, q.MaxDatasets)
			}
		}
		s.datasets.add(d, func(id string) { d.id = id })
		mu.Unlock()
	} else {
		s.datasets.add(d, func(id string) { d.id = id })
	}
	// Snapshot before acknowledging, and before any session can mutate
	// the dataset: this version-1 snapshot is what every session WAL
	// replays over.
	meta := store.DatasetMeta{ID: d.id, Name: ds.Name, KeyCol: keyCol, Created: d.created, Owner: owner}
	if err := s.store.PutDataset(ctx, meta, ds); err != nil {
		s.datasets.remove(d.id)
		return DatasetInfo{}, fmt.Errorf("%w: snapshotting dataset: %v", ErrStorage, err)
	}
	s.opts.Logf("dataset %s: %q ingested (%d clusters, %d records)",
		d.id, name, len(ds.Clusters), ds.NumRecords())
	s.emitEvent(ctx, events.Event{
		Type:    events.TypeDatasetUploaded,
		Tenant:  owner,
		Dataset: d.id,
		Data: map[string]any{
			"name":     ds.Name,
			"clusters": len(ds.Clusters),
			"records":  ds.NumRecords(),
		},
	})
	return s.datasetInfo(d), nil
}

// getDataset returns a live dataset, transparently reactivating a
// passivated one from the store.
func (s *Service) getDataset(id string) (*dataset, error) {
	if d, ok := s.datasets.get(id); ok {
		return d, nil
	}
	d, _, err := s.restoreDataset(id)
	return d, err
}

// lookupDataset is getDataset plus tenant visibility: when owner is
// set, a dataset belonging to anyone else reads as missing — 404,
// never 403, so ids cannot be probed across tenants. The ownership is
// resolved BEFORE any side effect (no idle-timer refresh, no
// passivation restore): a foreign probe must not keep the victim's
// dataset alive or pull it back into memory.
func (s *Service) lookupDataset(owner, id string) (*dataset, error) {
	if owner != "" {
		if d, ok := s.datasets.peek(id); ok {
			if d.owner != owner {
				return nil, fmt.Errorf("dataset %s: %w", id, ErrNotFound)
			}
		} else if m, ok := s.storedDatasetMeta(id); !ok || m.Owner != owner {
			return nil, fmt.Errorf("dataset %s: %w", id, ErrNotFound)
		}
	}
	d, err := s.getDataset(id)
	if err != nil {
		return nil, err
	}
	if owner != "" && d.owner != owner {
		return nil, fmt.Errorf("dataset %s: %w", id, ErrNotFound)
	}
	return d, nil
}

// getDatasetInfo returns a dataset's info and refreshes its idle timer.
func (s *Service) getDatasetInfo(owner, id string) (DatasetInfo, error) {
	d, err := s.lookupDataset(owner, id)
	if err != nil {
		return DatasetInfo{}, err
	}
	return s.datasetInfo(d), nil
}

// listDatasets returns the owner-visible live datasets in creation
// order, followed by any passivated datasets still restorable from the
// store (marked Passive, with only their meta fields populated —
// restoring each just to count its clusters would defeat passivation).
// An empty owner sees everything.
func (s *Service) listDatasets(owner string) []DatasetInfo {
	ds := s.datasets.list()
	out := make([]DatasetInfo, 0, len(ds))
	live := make(map[string]bool, len(ds))
	for _, d := range ds {
		live[d.id] = true
		if owner != "" && d.owner != owner {
			continue
		}
		out = append(out, s.datasetInfo(d))
	}
	metas, err := s.store.ListDatasets()
	if err != nil {
		s.opts.Logf("listing stored datasets: %v", err)
		return out
	}
	for _, m := range metas {
		if live[m.ID] || (owner != "" && m.Owner != owner) {
			continue
		}
		out = append(out, DatasetInfo{ID: m.ID, Name: m.Name, Created: m.Created, Passive: true})
	}
	return out
}

// deleteDataset removes a dataset and closes its sessions. Unlike
// eviction, deletion purges the durable state too: a deleted dataset is
// gone for good. It holds the dataset's shard restore lock so a
// concurrent touch of one of the dataset's ids cannot resurrect it from
// the store between the in-memory remove and the durable purge.
func (s *Service) deleteDataset(owner, id string) error {
	mu := &s.restoreMu[s.datasets.shardIndex(id)]
	mu.Lock()
	defer mu.Unlock()
	if owner != "" {
		// Resolve ownership before removing anything: a foreign id must
		// read as missing with no side effects. Live entries answer from
		// memory; passivated ones from the store meta.
		if d, ok := s.datasets.get(id); ok {
			if d.owner != owner {
				return fmt.Errorf("dataset %s: %w", id, ErrNotFound)
			}
		} else if m, ok := s.storedDatasetMeta(id); !ok || m.Owner != owner {
			return fmt.Errorf("dataset %s: %w", id, ErrNotFound)
		}
	}
	_, live := s.datasets.remove(id)
	if !live {
		// Not in memory — it may still be a passivated dataset in the
		// store, which DELETE must also purge.
		if _, ok := s.storedDatasetMeta(id); !ok {
			return fmt.Errorf("dataset %s: %w", id, ErrNotFound)
		}
	}
	// Deletion is a cold path, so a full scan (shard by shard, no
	// cross-shard lock) is an acceptable safety net: it also catches a
	// session whose dataset entry is already gone.
	var victims []*columnSession
	s.sessions.rangeAll(func(_ string, cs *columnSession) bool {
		if cs.datasetID == id {
			victims = append(victims, cs)
		}
		return true
	})
	for _, cs := range victims {
		s.closeSession(cs)
	}
	if err := s.store.DeleteDataset(id); err != nil {
		return fmt.Errorf("%w: deleting dataset %s: %v", ErrStorage, id, err)
	}
	s.opts.Logf("dataset %s: deleted", id)
	return nil
}

// ownedDatasetCount counts the datasets a tenant owns: live ones via a
// lock-free-ish shard walk (no info building), passivated ones via one
// pass over the store's meta listing. The store scan is inherent to
// the Store interface (no per-owner index yet) but runs only on
// quota-limited uploads.
func (s *Service) ownedDatasetCount(owner string) int {
	n := 0
	live := make(map[string]bool)
	s.datasets.rangeAll(func(id string, d *dataset) bool {
		live[id] = true
		if d.owner == owner {
			n++
		}
		return true
	})
	metas, err := s.store.ListDatasets()
	if err != nil {
		s.opts.Logf("listing stored datasets: %v", err)
		return n
	}
	for _, m := range metas {
		if !live[m.ID] && m.Owner == owner {
			n++
		}
	}
	return n
}

// storedDatasetMeta returns the store's meta for a dataset, if any. It
// scans the (small) meta listing; deletes are rare enough that a
// dedicated point lookup has not been worth widening the Store
// interface for.
func (s *Service) storedDatasetMeta(id string) (store.DatasetMeta, bool) {
	metas, err := s.store.ListDatasets()
	if err != nil {
		return store.DatasetMeta{}, false
	}
	for _, m := range metas {
		if m.ID == id {
			return m, true
		}
	}
	return store.DatasetMeta{}, false
}

func (s *Service) datasetInfo(d *dataset) DatasetInfo {
	ds := d.cons.Dataset()
	d.mu.Lock()
	sessions := make([]string, 0, len(d.columns))
	for _, sid := range d.columns {
		sessions = append(sessions, sid)
	}
	d.mu.Unlock()
	sort.Strings(sessions)
	return DatasetInfo{
		ID:       d.id,
		Name:     ds.Name,
		Attrs:    append([]string(nil), ds.Attrs...),
		Clusters: len(ds.Clusters),
		Records:  ds.NumRecords(),
		Created:  d.created,
		Sessions: sessions,
	}
}

// openSession starts reviewing one column of a dataset. Candidate
// generation and grouping run in a background goroutine; the call
// returns as soon as the session is registered. The session belongs to
// the dataset's tenant, whose MaxSessions quota it counts against
// (even when an unscoped admin opens it).
//
// The context carries the opening request's trace span: the generator
// goroutine detaches it (span only, no cancellation) so the engine's
// context_prep/graph_build/group_search work records on the trace of
// the request that opened the session, even though the goroutine
// outlives it.
func (s *Service) openSession(ctx context.Context, owner, datasetID, column string) (SessionInfo, error) {
	if err := s.alive(); err != nil {
		return SessionInfo{}, err
	}
	d, err := s.lookupDataset(owner, datasetID)
	if err != nil {
		return SessionInfo{}, err
	}
	col := d.cons.Dataset().ColumnIndex(column)
	if col < 0 {
		return SessionInfo{}, fmt.Errorf("dataset %s has no column %q", datasetID, column)
	}
	if subject := d.owner; subject != "" {
		mu := s.admissionLock(subject)
		mu.Lock()
		defer mu.Unlock()
		if q, ok := s.quotasFor(subject); ok && q.MaxSessions > 0 {
			if n := s.ownedLiveSessions(subject); n >= q.MaxSessions {
				return SessionInfo{}, fmt.Errorf("%w: session quota reached (max %d)", ErrQuota, q.MaxSessions)
			}
		}
	}

	s.mu.Lock()
	// Re-check closed under the same hold that registers the session:
	// a session slipping in after Close() listed the live ones would
	// leak its generator goroutine forever.
	if s.closed {
		s.mu.Unlock()
		return SessionInfo{}, ErrClosed
	}
	if s.opts.MaxSessions > 0 && s.sessions.size() >= s.opts.MaxSessions {
		s.mu.Unlock()
		return SessionInfo{}, fmt.Errorf("%w (max %d)", ErrLimit, s.opts.MaxSessions)
	}
	cs := &columnSession{datasetID: datasetID, column: column, col: col, owner: d.owner, d: d}
	cs.cond = sync.NewCond(&cs.mu)
	d.mu.Lock()
	if owner, busy := d.columns[col]; busy {
		d.mu.Unlock()
		s.mu.Unlock()
		return SessionInfo{}, fmt.Errorf("column %q is under review by session %s: %w", column, owner, ErrConflict)
	}
	s.sessions.add(cs, func(id string) { cs.id = id })
	d.columns[col] = cs.id
	d.mu.Unlock()
	s.mu.Unlock()

	// Persist the session before its generator can append WAL records
	// (the store needs the session registered to accept appends). A
	// session that cannot be persisted must not run.
	meta := store.SessionMeta{ID: cs.id, DatasetID: datasetID, Column: column, Created: s.clock.Now(), Owner: cs.owner}
	if err := s.store.PutSession(meta); err != nil {
		s.closeSession(cs)
		return SessionInfo{}, fmt.Errorf("%w: persisting session: %v", ErrStorage, err)
	}

	// Detach keeps only the trace span; re-attach the request info and
	// principal so group.ready events the generator emits carry the
	// opening request's id, trace, and actor.
	runCtx := trace.Detach(ctx)
	if info, ok := obs.RequestFrom(ctx); ok {
		runCtx = obs.WithRequest(runCtx, info)
	}
	if p, ok := ctx.Value(principalCtxKey{}).(principal); ok {
		runCtx = context.WithValue(runCtx, principalCtxKey{}, p)
	}
	// Emit before the generator starts so session.opened always
	// precedes the session's first group.ready in the event sequence.
	s.emitEvent(ctx, events.Event{
		Type:    events.TypeSessionOpened,
		Tenant:  cs.owner,
		Dataset: datasetID,
		Session: cs.id,
		Data:    map[string]any{"column": column},
	})
	go cs.run(runCtx, s)
	s.opts.Logf("session %s: opened on dataset %s column %q", cs.id, datasetID, column)
	return cs.info(), nil
}

// run is the session's background producer: build the goldrec.Session
// (candidate generation), replay the WAL when resuming, then keep up to
// prefetch undecided groups buffered ahead of the reviewer. Every new
// group is logged to the WAL before it becomes visible, so the durable
// log always describes a prefix of the in-memory state.
//
// ctx carries only the opening request's trace span (already detached
// by openSession): spans the generator records — engine phases, WAL
// issue appends — attach to that trace until its span cap, which is
// how "why was upload→first-group slow?" stays answerable even though
// the work happens here, after the HTTP response.
func (cs *columnSession) run(ctx context.Context, s *Service) {
	logf := s.opts.Logf
	openedAt := time.Now()
	// Resolve the warm-start context before building the session: fresh
	// sessions freeze the library's current priors into the WAL's first
	// record, resuming ones read that frozen record back — either way
	// the engine below is built from exactly what the WAL describes.
	warm, err := cs.openWarm(ctx, s)
	if err != nil {
		logf("session %s: reading warm-start record failed, closing session: %v", cs.id, err)
		s.closeSession(cs)
		return
	}
	// Keep a pristine copy of a resuming session's column: a failed
	// replay must roll the live dataset back, or the half-replayed
	// column would diverge from what the store will rebuild after a
	// restart. Captured before the session build, because warm
	// pre-application already mutates the column there.
	var pristine [][]string
	if cs.resume {
		cs.d.applyMu.RLock()
		pristine = columnValues(cs.d.cons.Dataset(), cs.col)
		cs.d.applyMu.RUnlock()
	}
	if warm != nil {
		// Warm pre-application writes the column at build time, so the
		// build joins the apply side of the dataset lock (exports must
		// not read a half-pre-applied column).
		cs.d.applyMu.RLock()
	}
	sess, err := cs.d.cons.ColumnIndexWarmCtx(ctx, cs.col, warm)
	if warm != nil {
		cs.d.applyMu.RUnlock()
	}
	if err != nil {
		// Unreachable in practice: the column index was validated at
		// open time. Mark the stream done so waiters return.
		cs.mu.Lock()
		cs.exhausted = true
		cs.bumpLocked()
		cs.mu.Unlock()
		return
	}
	if n := sess.Stats().WarmGroups; n > 0 {
		if !cs.resume {
			s.metrics.bumpWarmDecisions(cs.owner, n)
		}
		logf("session %s: %d group(s) pre-decided from the library", cs.id, n)
	}
	var restored []*goldrec.Group
	if cs.resume {
		restored, err = cs.replay(ctx, s, sess)
		if err != nil {
			logf("session %s: WAL replay failed, closing session: %v", cs.id, err)
			cs.d.applyMu.Lock()
			setColumnValues(cs.d.cons.Dataset(), cs.col, pristine)
			cs.d.applyMu.Unlock()
			s.closeSession(cs)
			return
		}
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		return
	}
	cs.sess = sess
	cs.pending = restored
	cs.stats = sess.Stats()
	cs.bumpLocked()
	// Phase accounting: the engine accumulates per-phase nanoseconds;
	// the service observes the deltas each NextGroup produced. The first
	// observation also carries context prep (and replay work on resume).
	lastTimings := sess.Timings()
	s.metrics.observePhases(goldrec.PhaseTimings{}, lastTimings)
	firstGroupSeen := cs.resume // resumed sessions already had groups
	if cs.resume {
		logf("session %s: restored (%d group(s) issued, %d pending)",
			cs.id, sess.Stats().GroupsSeen, len(restored))
	} else {
		logf("session %s: %d candidate replacements", cs.id, sess.Stats().Candidates)
	}
	for {
		for len(cs.pending) >= s.opts.Prefetch && !cs.closed {
			cs.cond.Wait()
		}
		if cs.closed {
			return
		}
		// NextGroup runs with cs.mu released, so a reviewer can read
		// group 0 while groups 1..prefetch-1 are still being computed.
		// busy keeps every other engine user out meanwhile; the WAL
		// append and the publish below happen under cs.mu again, after
		// the closed check, so closeSession never interleaves with them.
		cs.busy = true
		cs.mu.Unlock()
		g, ok := sess.NextGroupCtx(ctx)
		cs.mu.Lock()
		cs.busy = false
		cs.stats = sess.Stats()
		cs.cond.Broadcast()
		now := sess.Timings()
		s.metrics.observePhases(lastTimings, now)
		lastTimings = now
		if cs.closed {
			return
		}
		if !ok {
			cs.exhausted = true
			cs.bumpLocked()
			logf("session %s: group stream exhausted after %d group(s)", cs.id, sess.Stats().GroupsSeen)
			s.maybeCompactLocked(ctx, cs)
			return
		}
		// Log the issue before exposing the group. A crash in between
		// re-derives the same group on replay (generation is
		// deterministic); an unlogged group must never be decided, or
		// the WAL could not replay the decision.
		if err := s.store.AppendWAL(ctx, cs.datasetID, cs.id, store.WALRecord{Op: store.OpIssue, GroupID: g.ID}); err != nil {
			// Stop producing but stay registered and decidable: issued
			// groups are still reviewable, the column slot stays owned
			// (a replacement session would corrupt the durable log's
			// replay base), and a restart resumes from the WAL. The
			// stalled flag unblocks long-polling group fetches.
			cs.stalled = true
			cs.bumpLocked()
			logf("session %s: WAL append failed, group generation stalled: %v", cs.id, err)
			return
		}
		cs.pending = append(cs.pending, g)
		if !firstGroupSeen {
			firstGroupSeen = true
			s.metrics.firstGroup.ObserveSince(openedAt)
		}
		// group.ready feeds the same wakers as the long-poll path:
		// an SSE events subscriber learns a group is reviewable at the
		// moment the long-poll predicate would have released. Restored
		// groups are not re-announced (their event fired in the life
		// that issued them).
		s.emitEvent(ctx, events.Event{
			Type:    events.TypeGroupReady,
			Tenant:  cs.owner,
			Dataset: cs.datasetID,
			Session: cs.id,
			Data:    map[string]any{"group_id": g.ID, "pending": len(cs.pending)},
		})
		cs.bumpLocked()
	}
}

// replay rebuilds the session's state by re-executing its WAL: issue
// records re-derive groups through NextGroup (deterministic), decide
// records re-apply the recorded verdicts. It returns the groups that
// were issued but undecided at the time of passivation — the restored
// pending buffer. The session is not yet published, so no lock is held;
// applyMu still orders the replayed applies against exports.
func (cs *columnSession) replay(ctx context.Context, s *Service, sess *goldrec.Session) ([]*goldrec.Group, error) {
	var pending []*goldrec.Group
	err := s.store.ReplayWAL(ctx, cs.datasetID, cs.id, func(rec store.WALRecord) error {
		switch rec.Op {
		case store.OpWarm:
			// Already consumed: the engine was built from this record
			// (loadWarmRecord) before replay began, and its groups came
			// pre-decided out of the session build.
			return nil
		case store.OpIssue:
			g, ok := sess.NextGroupCtx(ctx)
			if !ok {
				return fmt.Errorf("issue record %d: group stream exhausted early", rec.GroupID)
			}
			if g.ID != rec.GroupID {
				return fmt.Errorf("issue record mismatch: regenerated group %d, log says %d", g.ID, rec.GroupID)
			}
			pending = append(pending, g)
			return nil
		case store.OpDecide:
			d, err := goldrec.ParseDecision(rec.Decision)
			if err != nil {
				return err
			}
			cs.d.applyMu.RLock()
			_, err = sess.Decide(rec.GroupID, d)
			cs.d.applyMu.RUnlock()
			if err != nil {
				return fmt.Errorf("decide record: %w", err)
			}
			for i, g := range pending {
				if g.ID == rec.GroupID {
					pending = append(pending[:i], pending[i+1:]...)
					break
				}
			}
			return nil
		default:
			return fmt.Errorf("unknown WAL op %q", rec.Op)
		}
	})
	if err != nil {
		return nil, err
	}
	return pending, nil
}

// columnValues copies one column's cell values, indexed [cluster][row].
func columnValues(ds *table.Dataset, col int) [][]string {
	out := make([][]string, len(ds.Clusters))
	for ci := range ds.Clusters {
		recs := ds.Clusters[ci].Records
		vals := make([]string, len(recs))
		for ri := range recs {
			vals[ri] = recs[ri].Values[col]
		}
		out[ci] = vals
	}
	return out
}

// setColumnValues restores one column's cell values from a
// columnValues copy.
func setColumnValues(ds *table.Dataset, col int, values [][]string) {
	for ci := range ds.Clusters {
		recs := ds.Clusters[ci].Records
		for ri := range recs {
			recs[ri].Values[col] = values[ci][ri]
		}
	}
}

// lookupSession is session plus visibility: a foreign session id — or,
// on a dataset-scoped route (datasetID != ""), a session of another
// dataset — reads as missing, exactly like lookupDataset. Like it, the
// probe is resolved before the touch/restore side effects, so an
// address that is rejected never restores a passivated dataset. The
// dataset id is part of the address, not a hint.
func (s *Service) lookupSession(owner, datasetID, id string) (*columnSession, error) {
	if owner != "" || datasetID != "" {
		if cs, ok := s.sessions.peek(id); ok {
			if !sessionVisible(owner, datasetID, cs.owner, cs.datasetID) {
				return nil, fmt.Errorf("session %s: %w", id, ErrNotFound)
			}
		} else {
			sm, err := s.store.FindSession(id)
			if errors.Is(err, store.ErrNotExist) {
				return nil, fmt.Errorf("session %s: %w", id, ErrNotFound)
			}
			if err != nil {
				return nil, fmt.Errorf("%w: looking up session %s: %v", ErrStorage, id, err)
			}
			if !sessionVisible(owner, datasetID, sm.Owner, sm.DatasetID) {
				return nil, fmt.Errorf("session %s: %w", id, ErrNotFound)
			}
		}
	}
	cs, err := s.session(id)
	if err != nil {
		return nil, err
	}
	if !sessionVisible(owner, datasetID, cs.owner, cs.datasetID) {
		return nil, fmt.Errorf("session %s: %w", id, ErrNotFound)
	}
	return cs, nil
}

// sessionVisible reports whether a session owned by sessOwner in
// sessDataset is visible through an (owner, datasetID) address; an
// empty component matches anything.
func sessionVisible(owner, datasetID, sessOwner, sessDataset string) bool {
	return (owner == "" || sessOwner == owner) && (datasetID == "" || sessDataset == datasetID)
}

// getSessionInfo returns a session's info and refreshes its idle timer
// (and its dataset's).
func (s *Service) getSessionInfo(owner, id string) (SessionInfo, error) {
	cs, err := s.lookupSession(owner, "", id)
	if err != nil {
		return SessionInfo{}, err
	}
	return cs.info(), nil
}

// listSessions returns the owner-visible live sessions in creation
// order. An empty owner sees everything.
func (s *Service) listSessions(owner string) []SessionInfo {
	css := s.sessions.list()
	out := make([]SessionInfo, 0, len(css))
	for _, cs := range css {
		if owner != "" && cs.owner != owner {
			continue
		}
		out = append(out, cs.info())
	}
	return out
}

// ownedLiveSessions counts the live sessions owned by a tenant, shard
// by shard (no global lock) — the MaxSessions quota check.
func (s *Service) ownedLiveSessions(owner string) int {
	n := 0
	s.sessions.rangeAll(func(_ string, cs *columnSession) bool {
		if cs.owner == owner {
			n++
		}
		return true
	})
	return n
}

// deleteSession closes a session and frees its column for a new one.
// Deletion is permanent: the session's WAL and archive are purged —
// but not before its applied decisions are folded into the dataset
// snapshot, so standardization work done through a deleted session
// still survives a restart.
func (s *Service) deleteSession(ctx context.Context, owner, id string) error {
	cs, err := s.lookupSession(owner, "", id)
	if errors.Is(err, ErrNotFound) {
		// Not live and not restorable (the dataset is live but this
		// session is not — e.g. a prior delete purged the memory side
		// and then failed the durable purge). Purge any leftover store
		// state directly so retries converge instead of 404ing forever.
		sm, ferr := s.store.FindSession(id)
		if errors.Is(ferr, store.ErrNotExist) {
			return err
		}
		if ferr != nil {
			return fmt.Errorf("%w: looking up session %s: %v", ErrStorage, id, ferr)
		}
		if owner != "" && sm.Owner != owner {
			return err
		}
		if derr := s.store.DeleteSession(sm.DatasetID, id); derr != nil {
			return fmt.Errorf("%w: deleting session %s: %v", ErrStorage, id, derr)
		}
		s.opts.Logf("session %s: deleted (durable state only)", id)
		return nil
	}
	if err != nil {
		return err
	}
	cs.mu.Lock()
	// A resuming session must finish its replay first: deleting the WAL
	// mid-replay would strand applied changes that were never folded.
	// The fold below reads the engine, so it also waits out a NextGroup.
	for (cs.resume && cs.sess == nil && !cs.closed && cs.archived == nil) || cs.busy {
		cs.cond.Wait()
	}
	if cs.closed {
		cs.mu.Unlock()
		return fmt.Errorf("session %s: %w", id, ErrNotFound)
	}
	// Close first (under mu) so no decision can slip in after the fold
	// below and be lost when the WAL is deleted.
	cs.closed = true
	cs.bumpLocked()
	if cs.sess != nil && !cs.compacted && cs.sess.Stats().GroupsApplied > 0 {
		if err := s.compactLocked(ctx, cs); err != nil {
			// Without the fold, deleting the WAL would discard applied
			// work. Abort the delete; the session stays usable.
			cs.closed = false
			cs.bumpLocked()
			cs.mu.Unlock()
			return fmt.Errorf("%w: folding session %s before delete: %v", ErrStorage, id, err)
		}
	}
	cs.mu.Unlock()
	s.closeSession(cs)
	if err := s.store.DeleteSession(cs.datasetID, cs.id); err != nil {
		return fmt.Errorf("%w: deleting session %s: %v", ErrStorage, id, err)
	}
	s.opts.Logf("session %s: deleted", id)
	return nil
}

// closeSession unregisters the session, stops its generator and frees
// its column slot. Idempotent. Durable state is untouched — callers
// that mean "delete" purge the store themselves.
func (s *Service) closeSession(cs *columnSession) {
	s.sessions.remove(cs.id)
	cs.d.mu.Lock()
	if cs.d.columns[cs.col] == cs.id {
		delete(cs.d.columns, cs.col)
	}
	cs.d.mu.Unlock()
	cs.mu.Lock()
	cs.closed = true
	cs.bumpLocked()
	cs.mu.Unlock()
	s.store.CloseWAL(cs.datasetID, cs.id)
}

// session fetches a live session and touches its dataset so a dataset
// never expires under an active reviewer. A passivated session is
// transparently restored (with its whole dataset) from the store.
func (s *Service) session(id string) (*columnSession, error) {
	cs, ok := s.sessions.get(id)
	if !ok {
		sm, err := s.store.FindSession(id)
		if errors.Is(err, store.ErrNotExist) {
			return nil, fmt.Errorf("session %s: %w", id, ErrNotFound)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: looking up session %s: %v", ErrStorage, id, err)
		}
		if _, _, err := s.restoreDataset(sm.DatasetID); err != nil {
			return nil, err
		}
		if cs, ok = s.sessions.get(id); !ok {
			// The dataset is live but this session did not restore
			// (e.g. its replay failed and closed it).
			return nil, fmt.Errorf("session %s: %w", id, ErrNotFound)
		}
	}
	s.datasets.touch(cs.datasetID)
	return cs, nil
}

func (cs *columnSession) info() SessionInfo {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	info := SessionInfo{
		ID:        cs.id,
		DatasetID: cs.datasetID,
		Column:    cs.column,
		Status:    cs.statusLocked(),
		Pending:   len(cs.pending),
		Stats:     cs.stats,
	}
	if cs.sess != nil {
		// The phase timings are atomics: safe while the generator is busy.
		info.Timings = cs.sess.Timings()
	}
	return info
}

func (cs *columnSession) statusLocked() string {
	switch {
	case cs.closed:
		return StatusClosed
	case cs.archived != nil:
		return StatusExhausted
	case cs.sess == nil:
		return StatusInitializing
	case cs.exhausted && len(cs.pending) == 0:
		return StatusExhausted
	case cs.stalled:
		return StatusStalled
	default:
		return StatusReviewing
	}
}

// pendingGroups returns up to limit undecided groups (0 = all
// buffered), oldest first; datasetID "" addresses the session route.
// When wait is non-nil, it blocks until the buffer holds min(limit,
// prefetch) groups (limit 0 counts as prefetch), the stream ends or
// stalls, or wait is canceled: a one-at-a-time reviewer gets group 0
// the moment it is logged, while a page-everything reviewer still sees
// a full buffer.
func (s *Service) pendingGroups(owner, datasetID, id string, limit int, wait <-chan struct{}) (GroupPage, error) {
	var ready func(*columnSession) bool
	if wait != nil {
		want := s.opts.Prefetch
		if limit > 0 && limit < want {
			want = limit
		}
		ready = func(cs *columnSession) bool {
			return len(cs.pending) >= want || cs.exhausted || cs.stalled
		}
	}
	page, _, err := s.waitPage(owner, datasetID, id, limit, wait, ready)
	return page, err
}

// waitPage renders a session's groups page and the rev it was rendered
// at, after waiting — when ready is non-nil, which needs a non-nil
// wait — until ready holds, the session closes or wait closes. It is
// the one page wait: the long poll waits for a full enough buffer, the
// SSE stream for the rev to move. datasetID "" addresses the session
// route.
func (s *Service) waitPage(owner, datasetID, id string, limit int, wait <-chan struct{}, ready func(*columnSession) bool) (GroupPage, uint64, error) {
	cs, err := s.lookupSession(owner, datasetID, id)
	if err != nil {
		return GroupPage{}, 0, err
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for ready != nil && !ready(cs) && !cs.closed && !chanClosed(wait) {
		cs.waitOrCancel(wait)
	}
	if cs.closed {
		return GroupPage{}, 0, fmt.Errorf("session %s: %w", id, ErrNotFound)
	}
	return cs.pageLocked(limit), cs.rev, nil
}

// pageLocked renders the current undecided-group page. Caller holds
// cs.mu.
func (cs *columnSession) pageLocked(limit int) GroupPage {
	page := GroupPage{Status: cs.statusLocked(), Pending: len(cs.pending)}
	n := len(cs.pending)
	if limit > 0 && limit < n {
		n = limit
	}
	if cs.sess != nil {
		page.ApproveRate = cs.sess.ApproveRate()
	}
	page.Groups = make([]goldrec.GroupState, 0, n)
	for _, g := range cs.pending[:n] {
		// Buffered groups are undecided by invariant, so their gain is
		// sites × the page's approve rate.
		sites := g.RemainingSites()
		page.Groups = append(page.Groups, goldrec.GroupState{
			ID:        g.ID,
			Program:   g.Program,
			Structure: g.Structure,
			Pairs:     append([]goldrec.Replacement(nil), g.Pairs...),
			Decision:  g.Decision(),
			Sites:     sites,
			Gain:      float64(sites) * page.ApproveRate,
		})
	}
	return page
}

// awaitParkedLocked blocks until the generator is parked: its buffer
// is full, or the stream is exhausted, stalled or closed (or the
// session is not yet published, which the callers reject). A decision
// admitted only here lands between the same two engine steps as when
// the generator held cs.mu across the whole prefetch: a reviewer who
// answers one group at a time sees the lag-prefetch schedule (issue
// prefetch groups, then decide k / issue k+prefetch) whatever the
// timing, so the group sequence and the WAL depend on the decisions
// alone. Caller holds cs.mu.
func (cs *columnSession) awaitParkedLocked(prefetch int) {
	for cs.sess != nil && !cs.closed && !cs.exhausted && !cs.stalled &&
		(cs.busy || len(cs.pending) < prefetch) {
		cs.cond.Wait()
	}
}

// bumpLocked marks an observable state change (pending buffer, status)
// and wakes every waiter. Caller holds cs.mu. Pure wake-ups that change
// nothing (waitOrCancel's cancel watcher) call cond.Broadcast directly
// and must NOT bump rev, or idle SSE streams would re-send unchanged
// pages.
func (cs *columnSession) bumpLocked() {
	cs.rev++
	cs.cond.Broadcast()
}

// waitOrCancel waits on cond but also wakes when cancel closes. The
// watcher goroutine re-broadcasts so every waiter rechecks its
// predicate (including chanClosed(cancel)).
func (cs *columnSession) waitOrCancel(cancel <-chan struct{}) {
	done := make(chan struct{})
	go func() {
		select {
		case <-cancel:
			cs.mu.Lock()
			cs.cond.Broadcast()
			cs.mu.Unlock()
		case <-done:
		}
	}()
	cs.cond.Wait()
	close(done)
}

func chanClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// decide records the reviewer's verdict for one issued group: a batch
// of one through decideGroups, which is where validation, the WAL,
// apply, events and teaching live. Only the batch.applied event is
// left out.
func (s *Service) decide(ctx context.Context, owner, id string, groupID int, decision goldrec.Decision) (DecisionResult, error) {
	switch decision {
	case goldrec.Approved, goldrec.ApprovedBackward, goldrec.Rejected:
	default:
		return DecisionResult{}, fmt.Errorf("invalid decision %d", int(decision))
	}
	res, err := s.decideGroups(ctx, owner, "", id, []int{groupID}, []goldrec.Decision{decision}, false)
	if err != nil {
		return DecisionResult{}, err
	}
	return res.Results[0], nil
}

// maxBatchDecisions bounds one batched submission. The cap keeps a
// batch's WAL payload and validation work small, and stays below any
// sane decisions/sec burst so rate-limited tenants can still get a
// full batch admitted (AllowDecisions is all-or-nothing).
const maxBatchDecisions = 256

// decideBatch records many verdicts for one session atomically. It
// parses and dedupes the request, then hands it to decideGroups.
func (s *Service) decideBatch(ctx context.Context, owner, datasetID, id string, reqs []DecisionRequest) (BatchDecisionsResult, error) {
	if len(reqs) == 0 {
		return BatchDecisionsResult{}, fmt.Errorf("empty batch: at least one decision required")
	}
	if len(reqs) > maxBatchDecisions {
		return BatchDecisionsResult{}, fmt.Errorf("batch of %d decisions exceeds the limit of %d", len(reqs), maxBatchDecisions)
	}
	// Parse and dedupe before touching the session: malformed input
	// should never cost a lock, a rate-limit token or a WAL write.
	ids := make([]int, len(reqs))
	decisions := make([]goldrec.Decision, len(reqs))
	seen := make(map[int]int, len(reqs))
	for i, req := range reqs {
		d, err := goldrec.ParseDecision(req.Decision)
		if err != nil {
			return BatchDecisionsResult{}, fmt.Errorf("decision %d (group %d): %w", i, req.GroupID, err)
		}
		if d == goldrec.Pending {
			return BatchDecisionsResult{}, fmt.Errorf("decision %d (group %d): decision must be approve, approve-backward or reject", i, req.GroupID)
		}
		if j, dup := seen[req.GroupID]; dup {
			return BatchDecisionsResult{}, fmt.Errorf("%w: group %d appears twice in the batch (decisions %d and %d)", ErrConflict, req.GroupID, j, i)
		}
		seen[req.GroupID] = i
		ids[i], decisions[i] = req.GroupID, d
	}
	return s.decideGroups(ctx, owner, datasetID, id, ids, decisions, true)
}

// decideGroups records the verdicts decisions[i] on groups ids[i] (no
// duplicates) for one session, atomically: validate the whole batch
// first (an unknown, already-decided or unbuffered group rejects
// everything before any apply), append every decide record in one WAL
// batch (one write, one fsync), then apply in request order. Once the
// reviewer sees success, the verdicts survive any crash; a storage
// failure rejects the request with nothing recorded and nothing
// applied. Distinct-column sessions of the same dataset can apply
// concurrently; exports serialize against them.
//
// A tenant-scoped caller spends len(ids) tokens of its decisions/sec
// budget up front, all or nothing; an empty bucket rejects with
// RateLimitError before any work is done (unscoped callers are never
// rate limited). batch marks the batch route, the only one that emits
// batch.applied.
func (s *Service) decideGroups(ctx context.Context, owner, datasetID, id string, ids []int, decisions []goldrec.Decision, batch bool) (BatchDecisionsResult, error) {
	cs, err := s.lookupSession(owner, datasetID, id)
	if err != nil {
		return BatchDecisionsResult{}, err
	}
	if owner != "" && s.opts.Tenants != nil {
		if ok, retry := s.opts.Tenants.AllowDecisions(owner, len(ids)); !ok {
			s.metrics.bumpRateLimited(owner)
			return BatchDecisionsResult{}, &RateLimitError{RetryAfter: retry}
		}
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.awaitParkedLocked(s.opts.Prefetch)
	if cs.closed {
		return BatchDecisionsResult{}, fmt.Errorf("session %s: %w", id, ErrNotFound)
	}
	if cs.archived != nil {
		return BatchDecisionsResult{}, fmt.Errorf("session %s is finished and compacted: %w", id, ErrConflict)
	}
	if cs.sess == nil {
		return BatchDecisionsResult{}, fmt.Errorf("session %s is still initializing: %w", id, ErrConflict)
	}
	// Validate here (rather than letting sess.Decide fail) so only
	// decisions that will succeed reach the WAL — replay must never hit
	// a failing record, and a reviewer must never get half a submission
	// applied.
	for _, gid := range ids {
		g, ok := cs.sess.Group(gid)
		if !ok {
			return BatchDecisionsResult{}, fmt.Errorf("%w: no issued group %d", ErrConflict, gid)
		}
		if g.Decision() != goldrec.Pending {
			return BatchDecisionsResult{}, fmt.Errorf("%w: group %d already decided (%s)", ErrConflict, gid, g.Decision())
		}
		// Undecided groups must also be in the pending buffer: a group
		// enters it exactly when its issue record lands in the WAL. A
		// group the generator pulled but failed to log (stall window)
		// is issued in the engine yet absent here — deciding it would
		// write a decide record replay can never satisfy.
		if !slices.ContainsFunc(cs.pending, func(p *goldrec.Group) bool { return p.ID == gid }) {
			return BatchDecisionsResult{}, fmt.Errorf("%w: group %d is not awaiting a decision", ErrConflict, gid)
		}
	}
	// Built only now, so a rejected request (the 409 path the obs and
	// trace overhead benchmarks time) allocates nothing here.
	recs := make([]store.WALRecord, len(ids))
	for i, gid := range ids {
		recs[i] = store.WALRecord{Op: store.OpDecide, GroupID: gid, Decision: decisions[i].String()}
	}
	if err := s.store.AppendWAL(ctx, cs.datasetID, cs.id, recs...); err != nil {
		return BatchDecisionsResult{}, fmt.Errorf("%w: logging decisions: %v", ErrStorage, err)
	}
	results := make([]DecisionResult, len(ids))
	cs.d.applyMu.RLock()
	for i, gid := range ids {
		stats, err := cs.sess.Decide(gid, decisions[i])
		if err != nil {
			cs.d.applyMu.RUnlock()
			// Unreachable given the validation above; the WAL now holds
			// records the session does not. Surface loudly.
			return BatchDecisionsResult{}, fmt.Errorf("%w: decision on group %d logged but not applied: %v", ErrStorage, gid, err)
		}
		results[i] = DecisionResult{GroupID: gid, Decision: decisions[i], Applied: stats, Stats: cs.sess.Stats()}
	}
	cs.d.applyMu.RUnlock()
	cs.pending = slices.DeleteFunc(cs.pending, func(g *goldrec.Group) bool { return slices.Contains(ids, g.ID) })
	cs.stats = cs.sess.Stats()
	// Freed buffer slots let the generator pull the next groups while
	// the reviewer reads the response, and long-polling group fetches
	// re-check their predicate.
	cs.bumpLocked()
	res := BatchDecisionsResult{
		Results:     results,
		Status:      cs.statusLocked(),
		Pending:     len(cs.pending),
		ApproveRate: cs.sess.ApproveRate(),
		Stats:       cs.stats,
	}
	for _, g := range cs.pending {
		res.RemainingGain += float64(g.RemainingSites()) * res.ApproveRate
	}
	// Acknowledged decisions are metered against the session's owner
	// (the tenant whose review budget is being spent), so an admin
	// reviewing on a tenant's behalf still shows up on that tenant.
	s.metrics.bumpDecisionsN(cs.owner, len(ids))
	for i, gid := range ids {
		s.emitEvent(ctx, events.Event{
			Type:    events.TypeDecisionRecorded,
			Tenant:  cs.owner,
			Dataset: cs.datasetID,
			Session: cs.id,
			Data:    map[string]any{"group_id": gid, "decision": decisions[i].String()},
		})
	}
	if batch {
		s.emitEvent(ctx, events.Event{
			Type:    events.TypeBatchApplied,
			Tenant:  cs.owner,
			Dataset: cs.datasetID,
			Session: cs.id,
			Data:    map[string]any{"decisions": len(ids)},
		})
	}
	// Every verdict also teaches the owner's transformation library, so
	// the tenant's next upload can pre-decide groups this program
	// explains. Attributed to the owner for the same reason as above.
	for i, gid := range ids {
		s.recordVerdict(ctx, cs, gid, decisions[i])
	}
	s.maybeCompactLocked(ctx, cs)
	return res, nil
}

// maybeCompactLocked folds a finished session (stream exhausted, every
// issued group decided) into the dataset snapshot. Compaction failure
// only costs disk space: the WAL stays and recovery replays it. Caller
// holds cs.mu.
func (s *Service) maybeCompactLocked(ctx context.Context, cs *columnSession) {
	if cs.compacted || cs.archived != nil || cs.sess == nil ||
		!cs.exhausted || len(cs.pending) != 0 || cs.sess.Stats().GroupsSeen == 0 {
		return
	}
	if err := s.compactLocked(ctx, cs); err != nil {
		s.opts.Logf("session %s: compaction failed (WAL retained): %v", cs.id, err)
	}
}

// compactLocked archives the session's ReviewState and folds its
// column into a new snapshot version. Caller holds cs.mu.
func (s *Service) compactLocked(ctx context.Context, cs *columnSession) error {
	state, err := json.Marshal(cs.sess.ReviewState())
	if err != nil {
		return err
	}
	cs.d.applyMu.RLock()
	values := columnValues(cs.d.cons.Dataset(), cs.col)
	cs.d.applyMu.RUnlock()
	if err := s.store.CompactSession(cs.datasetID, cs.id, cs.col, values, state); err != nil {
		return err
	}
	cs.compacted = true
	s.opts.Logf("session %s: compacted (%d decision(s) folded into dataset %s snapshot)",
		cs.id, cs.sess.Stats().GroupsSeen, cs.datasetID)
	s.emitEvent(ctx, events.Event{
		Type:    events.TypeSessionCompacted,
		Tenant:  cs.owner,
		Dataset: cs.datasetID,
		Session: cs.id,
		Data:    map[string]any{"decisions": cs.sess.Stats().GroupsSeen},
	})
	return nil
}

// reviewState snapshots a session's full review progress. For a
// compacted session restored from the store, the archived final state
// is served instead.
func (s *Service) reviewState(owner, id string) (goldrec.ReviewState, error) {
	cs, err := s.lookupSession(owner, "", id)
	if err != nil {
		return goldrec.ReviewState{}, err
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for cs.busy {
		cs.cond.Wait()
	}
	if cs.archived != nil {
		return *cs.archived, nil
	}
	if cs.sess == nil {
		ds := cs.d.cons.Dataset()
		return goldrec.ReviewState{Dataset: ds.Name, Column: cs.column}, nil
	}
	return cs.sess.ReviewState(), nil
}

// export renders the dataset's records. Golden exports run truth
// discovery over the standardized dataset (Algorithm 1 line 10);
// standardized exports dump the current cell values. Both hold the
// dataset's write lock so no session applies mid-read.
func (s *Service) export(ctx context.Context, owner, datasetID string, golden bool) (ExportData, error) {
	d, err := s.lookupDataset(owner, datasetID)
	if err != nil {
		return ExportData{}, err
	}
	d.applyMu.Lock()
	defer d.applyMu.Unlock()
	ds := d.cons.Dataset()
	out := ExportData{KeyCol: d.keyCol, Attrs: append([]string(nil), ds.Attrs...)}
	if golden {
		for ci, rec := range d.cons.GoldenRecords() {
			out.Records = append(out.Records, ExportRecord{
				Key:    ds.Clusters[ci].Key,
				Values: append([]string(nil), rec.Values...),
			})
		}
	} else {
		for ci := range ds.Clusters {
			for _, rec := range ds.Clusters[ci].Records {
				out.Records = append(out.Records, ExportRecord{
					Key:    ds.Clusters[ci].Key,
					Values: append([]string(nil), rec.Values...),
				})
			}
		}
	}
	s.emitEvent(ctx, events.Event{
		Type:    events.TypeExportCreated,
		Tenant:  d.owner,
		Dataset: datasetID,
		Data:    map[string]any{"golden": golden, "records": len(out.Records)},
	})
	return out, nil
}

func (s *Service) alive() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return nil
}
