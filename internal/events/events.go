// Package events is goldrecd's audit/event subsystem: a bounded
// in-process publish/subscribe bus paired with a durable per-tenant
// append-only audit log.
//
// Every mutating operation the service acknowledges emits one Event
// into the owning tenant's stream ("" is the open-mode stream). An
// event carries a per-tenant monotonic sequence number, the event type
// from the stable taxonomy below, the acting api-key id, and the
// request and trace ids of the request that caused it — so the audit
// log cross-links to the request log and the flight recorder.
//
// Delivery has three tiers, cheapest first:
//
//   - Live subscribers (SSE streams) receive events over a bounded
//     per-subscriber channel. A slow consumer never blocks the emitter:
//     overflowing events are dropped and the subscriber receives one
//     synthetic "events.gap" marker naming the dropped range, so it
//     can re-sync from the durable log.
//   - A fixed-size in-memory ring per tenant serves catch-up reads
//     (EventsSince) for recent sequence numbers without touching disk.
//   - The durable log (store.AppendLog with kind store.EventLog,
//     JSONL, torn-tail-tolerant replay) serves resume from arbitrary
//     history. Appends are batched on a background flusher — one
//     write and at most one fsync per batch, shared with concurrent
//     store appends by the store's group committer — so emission stays
//     off the caller's hot path and never waits on an fsync.
//     The audit log is observability, not the system of record (the
//     session WAL is): a failed append is counted and logged, never
//     surfaced to the request that emitted the event.
//
// The log is snapshot-free and bounded by retention compaction: when a
// tenant's log exceeds its size cap or its oldest event outlives the
// retention window, the flusher rewrites the log keeping only the
// retained tail (store.RewriteLog, atomic).
package events

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/goldrec/goldrec/internal/obs"
	"github.com/goldrec/goldrec/internal/obs/trace"
	"github.com/goldrec/goldrec/internal/store"
)

// The stable event taxonomy. These strings are API surface: clients
// branch on them, and the durable log replays them across versions —
// never rename.
const (
	TypeDatasetUploaded  = "dataset.uploaded"
	TypeSessionOpened    = "session.opened"
	TypeGroupReady       = "group.ready"
	TypeDecisionRecorded = "decision.recorded"
	TypeBatchApplied     = "batch.applied"
	TypeExportCreated    = "export.created"
	TypeSessionCompacted = "session.compacted"
	TypeTenantCreated    = "tenant.created"
	TypeTenantDeleted    = "tenant.deleted"
	TypeLibraryTaught    = "library.taught"
	TypeLibraryPurged    = "library.purged"

	// TypeGap is the synthetic slow-consumer marker: a subscriber that
	// could not keep up receives one gap event naming the sequence range
	// it missed. Gap events carry Seq 0, are never written to the
	// durable log, and are not part of the emit taxonomy.
	TypeGap = "events.gap"
)

// ErrSubscriberLimit rejects a Subscribe call when the tenant's
// bounded subscriber slots are all taken.
var ErrSubscriberLimit = errors.New("events: subscriber limit reached")

// maxFlushBacklog bounds one stream's queue of events awaiting durable
// append. The flusher normally drains within one batch; only a store
// stuck slower than the emit rate grows the queue, and at the cap the
// oldest queued event is shed (counted as flush_backlog) so memory
// stays bounded.
const maxFlushBacklog = 8192

// flushDelay is how long the flusher coalesces after a kick before
// draining queued appends: a burst of emissions lands as one write and
// one fsync, and the emitter's hot path is never followed by an
// immediate encode+append wake. Live subscribers are unaffected
// (fan-out happens in Emit); only durability lags by at most this much.
const flushDelay = 2 * time.Millisecond

// Event is one audit-log entry. Seq is monotonic per tenant stream and
// assigned by Emit; everything else is the emitter's statement of what
// happened.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	// Tenant is the stream the event belongs to ("" = the open-mode /
	// admin stream). Omitted from JSON when empty.
	Tenant string `json:"tenant,omitempty"`
	// Actor identifies who caused the event: the short api-key id that
	// authenticated the request, "admin" for the bootstrap admin key,
	// "" in open mode.
	Actor     string `json:"actor,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	// Dataset and Session address the subject resources, when any.
	Dataset string `json:"dataset,omitempty"`
	Session string `json:"session,omitempty"`
	// Data carries type-specific detail (group id, decision, counts...).
	Data map[string]any `json:"data,omitempty"`
}

// Options configure a Log.
type Options struct {
	// Store persists the per-tenant logs (nil or store.Null = in-memory
	// only: live streams and ring catch-up still work, nothing survives
	// a restart).
	Store store.Store
	// Retention is the age cap: events older than this are dropped at
	// the next compaction (0 = 7 days; negative = no age cap).
	Retention time.Duration
	// MaxLogBytes caps one tenant's durable log; exceeding it triggers
	// compaction down to half the cap (0 = 8 MiB).
	MaxLogBytes int64
	// RingSize is the per-tenant in-memory catch-up window in events
	// (0 = 1024).
	RingSize int
	// MaxSubscribers bounds concurrent live subscribers per tenant
	// (0 = 64).
	MaxSubscribers int
	// SubscriberBuffer is each subscriber's channel capacity; a
	// consumer this far behind starts dropping with a gap marker
	// (0 = 256).
	SubscriberBuffer int
	// Metrics receives the bus's instrumentation (nil = none).
	Metrics *obs.Registry
	// Logf, when set, receives one line per notable failure.
	Logf func(format string, args ...any)
	// Now substitutes time in tests (nil = wall clock).
	Now func() time.Time
}

// Log is the event bus plus its durable per-tenant audit logs. The nil
// *Log is valid and inert: every method no-ops, so callers wire events
// through unconditionally and pay nothing when the feature is off.
type Log struct {
	opts       Options
	store      store.Store
	persistent bool

	emitted     *obs.Vec // counter: type
	dropped     *obs.Vec // counter: reason
	subscribers *obs.Gauge

	mu      sync.Mutex
	streams map[string]*stream
	closed  bool

	// flushMu serializes whole-log flush/compaction passes so batches
	// reach the store in emission order even when a synchronous Flush
	// races the background flusher.
	flushMu sync.Mutex
	kick    chan struct{}
	stop    chan struct{}
	done    sync.WaitGroup
}

// stream is one tenant's slice of the bus. All fields are guarded by
// mu; the ring is a fixed circular buffer.
type stream struct {
	tenant  string
	ringCap int

	mu        sync.Mutex
	seq       uint64
	ring      []Event
	ringStart int
	subs      map[*Subscriber]struct{}
	// queue holds emitted events awaiting durable append (bounded at
	// ring size; overflow drops oldest, counted as flush_backlog).
	queue []Event
	// logBytes tracks the durable log's size for the compaction
	// trigger; oldest is the time of its first record.
	logBytes int64
	oldest   time.Time
}

// Open builds the Log and, with a persistent store, recovers every
// tenant stream: the log tail repopulates the in-memory ring and the
// last sequence number, so emission and Last-Event-ID resume continue
// exactly where the previous process stopped.
func Open(opts Options) (*Log, error) {
	if opts.Retention == 0 {
		opts.Retention = 7 * 24 * time.Hour
	}
	if opts.MaxLogBytes <= 0 {
		opts.MaxLogBytes = 8 << 20
	}
	if opts.RingSize <= 0 {
		opts.RingSize = 1024
	}
	if opts.MaxSubscribers <= 0 {
		opts.MaxSubscribers = 64
	}
	if opts.SubscriberBuffer <= 0 {
		opts.SubscriberBuffer = 256
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Store == nil {
		opts.Store = store.Null{}
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Noop()
	}
	_, null := opts.Store.(store.Null)
	l := &Log{
		opts:       opts,
		store:      opts.Store,
		persistent: !null,
		emitted: reg.NewCounter("goldrec_events_emitted_total",
			"Audit events emitted, by taxonomy type.", "type"),
		dropped: reg.NewCounter("goldrec_events_dropped_total",
			"Audit events dropped, by reason: slow_subscriber (live delivery only; the durable log kept them), flush_backlog (durable append queue overflowed), append_failure (store rejected a batch).", "reason"),
		subscribers: reg.NewGauge("goldrec_events_subscribers",
			"Live event-stream subscribers across all tenants.").Gauge(),
		streams: make(map[string]*stream),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	// Pre-touch the families so the exposition renders them (and
	// promlint -require finds them) before the first drop or subscribe.
	for _, reason := range []string{"slow_subscriber", "flush_backlog", "append_failure"} {
		l.dropped.Counter(reason)
	}
	l.subscribers.Set(0)
	if l.persistent {
		tenants, err := l.store.ListLogs(store.EventLog)
		if err != nil {
			return nil, fmt.Errorf("events: listing tenants: %w", err)
		}
		for _, tn := range tenants {
			st := l.stream(tn)
			if err := l.recoverStream(st); err != nil {
				// A damaged log must not hold the whole service down:
				// start the stream from whatever prefix replayed.
				opts.Logf("events: recovering tenant %q log: %v", tn, err)
			}
		}
	}
	l.done.Add(1)
	go l.flusher()
	return l, nil
}

// recoverStream replays one tenant's durable log, seeding seq, the
// ring tail and the size/age accounting.
func (l *Log) recoverStream(st *stream) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return l.store.ReplayLog(store.EventLog, st.tenant, func(line []byte) error {
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("events: corrupt record: %w", err)
		}
		if e.Seq > st.seq {
			st.seq = e.Seq
		}
		if st.oldest.IsZero() {
			st.oldest = e.Time
		}
		st.logBytes += int64(len(line)) + 1
		st.ringPush(e)
		return nil
	})
}

// stream returns (creating on first use) one tenant's stream.
func (l *Log) stream(tenant string) *stream {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.streams[tenant]
	if !ok {
		st = &stream{
			tenant:  tenant,
			ringCap: l.opts.RingSize,
			subs:    make(map[*Subscriber]struct{}),
		}
		l.streams[tenant] = st
	}
	return st
}

func (l *Log) streamList() []*stream {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*stream, 0, len(l.streams))
	for _, st := range l.streams {
		out = append(out, st)
	}
	return out
}

// ringPush appends to the circular catch-up buffer, evicting the
// oldest entry when full. Caller holds st.mu.
func (st *stream) ringPush(e Event) {
	// The ring is allocated lazily so idle tenants cost nothing.
	if st.ring == nil {
		if st.ringCap <= 0 {
			return
		}
		st.ring = make([]Event, 0, st.ringCap)
	}
	if len(st.ring) < cap(st.ring) {
		st.ring = append(st.ring, e)
		return
	}
	st.ring[st.ringStart] = e
	st.ringStart = (st.ringStart + 1) % len(st.ring)
}

// ringAt returns the i-th oldest ring entry. Caller holds st.mu.
func (st *stream) ringAt(i int) Event {
	return st.ring[(st.ringStart+i)%len(st.ring)]
}

// Emit publishes one event into its tenant's stream: assigns the next
// sequence number, stamps the time and the request/trace ids from ctx
// when the caller left them empty, fans out to live subscribers
// without blocking, and queues the durable append for the background
// flusher. It returns the assigned sequence number (0 on a nil or
// closed Log). Emit is the hot-path entry point: the synchronous work
// is a ring slot, a channel send per subscriber and a queue append —
// no disk, no marshaling.
func (l *Log) Emit(ctx context.Context, e Event) uint64 {
	if l == nil {
		return 0
	}
	_, sp := trace.StartSpan(ctx, "event_append")
	defer sp.End()
	sp.Annotate("type", e.Type)
	if e.Time.IsZero() {
		e.Time = l.opts.Now().UTC()
	}
	if info, ok := obs.RequestFrom(ctx); ok {
		if e.RequestID == "" {
			e.RequestID = info.ID
		}
		if e.TraceID == "" {
			e.TraceID = info.TraceID
		}
	}
	st := l.stream(e.Tenant)
	st.mu.Lock()
	st.seq++
	e.Seq = st.seq
	st.ringPush(e)
	for sub := range st.subs {
		sub.offer(l, e)
	}
	if l.persistent {
		if len(st.queue) >= maxFlushBacklog {
			// The flusher is hopelessly behind; shed the oldest queued
			// event rather than the newest (the ring and subscribers
			// already saw it — only its durable copy is lost).
			st.queue = st.queue[1:]
			l.dropped.Counter("flush_backlog").Inc()
		}
		st.queue = append(st.queue, e)
	}
	st.mu.Unlock()
	l.emitted.Counter(e.Type).Inc()
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return e.Seq
}

// LastSeq returns the tenant stream's last assigned sequence number.
func (l *Log) LastSeq(tenant string) uint64 {
	if l == nil {
		return 0
	}
	st := l.stream(tenant)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.seq
}

// EventsSince returns the tenant's events with Seq > since, oldest
// first, up to limit (0 = no limit). Recent history is served from the
// in-memory ring; older sequence numbers fall back to replaying the
// durable log, merged with the ring so events still queued for their
// durable append are not missed.
func (l *Log) EventsSince(tenant string, since uint64, limit int) ([]Event, error) {
	if l == nil {
		return nil, nil
	}
	st := l.stream(tenant)
	st.mu.Lock()
	ringCovers := len(st.ring) == 0 || st.ringAt(0).Seq <= since+1
	if since >= st.seq {
		st.mu.Unlock()
		return nil, nil
	}
	if !l.persistent || ringCovers {
		out := st.ringSinceLocked(since, limit)
		st.mu.Unlock()
		return out, nil
	}
	st.mu.Unlock()

	// Disk path: the requested range predates the ring. Read the durable
	// prefix first, then top up from the ring (which also covers events
	// whose durable append is still queued). The two sources overlap;
	// sequence numbers dedupe them.
	var out []Event
	err := l.store.ReplayLog(store.EventLog, tenant, func(line []byte) error {
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("events: corrupt record: %w", err)
		}
		if e.Seq > since {
			out = append(out, e)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	last := since
	if n := len(out); n > 0 {
		last = out[n-1].Seq
	}
	st.mu.Lock()
	out = append(out, st.ringSinceLocked(last, 0)...)
	st.mu.Unlock()
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// ringSinceLocked collects ring entries with Seq > since. Caller holds
// st.mu.
func (st *stream) ringSinceLocked(since uint64, limit int) []Event {
	n := len(st.ring)
	var out []Event
	for i := 0; i < n; i++ {
		e := st.ringAt(i)
		if e.Seq <= since {
			continue
		}
		out = append(out, e)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Subscriber is one live consumer of a tenant stream. Read events from
// C; the channel closes when the subscriber (or the Log) is closed.
type Subscriber struct {
	log *Log
	st  *stream
	ch  chan Event
	// dropped/gapFrom track a consumer that fell behind; touched only
	// under st.mu (fan-out is serialized per stream).
	dropped uint64
	gapFrom uint64
	closed  bool
}

// Subscribe registers a live consumer on the tenant's stream. The
// subscriber sees every event emitted after this call (plus a gap
// marker wherever it fell behind). Callers must Close it.
func (l *Log) Subscribe(tenant string) (*Subscriber, error) {
	if l == nil {
		return nil, errors.New("events: log disabled")
	}
	st := l.stream(tenant)
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.subs) >= l.opts.MaxSubscribers {
		return nil, fmt.Errorf("%w (max %d)", ErrSubscriberLimit, l.opts.MaxSubscribers)
	}
	sub := &Subscriber{log: l, st: st, ch: make(chan Event, l.opts.SubscriberBuffer)}
	st.subs[sub] = struct{}{}
	l.subscribers.Add(1)
	return sub, nil
}

// C is the subscriber's event channel.
func (sub *Subscriber) C() <-chan Event { return sub.ch }

// Close unregisters the subscriber and closes its channel. Idempotent.
func (sub *Subscriber) Close() {
	sub.st.mu.Lock()
	defer sub.st.mu.Unlock()
	if sub.closed {
		return
	}
	sub.closed = true
	delete(sub.st.subs, sub)
	close(sub.ch)
	sub.log.subscribers.Add(-1)
}

// offer delivers e to one subscriber without ever blocking the
// emitter. A full channel drops the event (counted) and remembers the
// gap; once space frees up the subscriber first receives a synthetic
// events.gap marker naming the missed range. Caller holds st.mu.
func (sub *Subscriber) offer(l *Log, e Event) {
	if sub.closed {
		return
	}
	if sub.dropped > 0 {
		gap := Event{
			Type:   TypeGap,
			Time:   e.Time,
			Tenant: e.Tenant,
			Data: map[string]any{
				"dropped":  sub.dropped,
				"from_seq": sub.gapFrom,
				"to_seq":   e.Seq - 1,
			},
		}
		select {
		case sub.ch <- gap:
			sub.dropped = 0
			sub.gapFrom = 0
		default:
			sub.dropped++
			l.dropped.Counter("slow_subscriber").Inc()
			return
		}
	}
	select {
	case sub.ch <- e:
	default:
		if sub.dropped == 0 {
			sub.gapFrom = e.Seq
		}
		sub.dropped++
		l.dropped.Counter("slow_subscriber").Inc()
	}
}

// DeleteTenant purges one tenant's stream: live subscribers are
// closed, the ring and sequence counter reset, and the durable log
// removed.
func (l *Log) DeleteTenant(tenant string) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	st := l.streams[tenant]
	delete(l.streams, tenant)
	l.mu.Unlock()
	if st != nil {
		st.mu.Lock()
		for sub := range st.subs {
			sub.closed = true
			close(sub.ch)
			l.subscribers.Add(-1)
		}
		st.subs = make(map[*Subscriber]struct{})
		st.mu.Unlock()
	}
	if l.persistent {
		return l.store.DeleteLog(store.EventLog, tenant)
	}
	return nil
}

// flusher is the background durability loop: it drains every stream's
// append queue into the store (one batched write per tenant per pass)
// and runs retention compaction when a log outgrows its caps.
func (l *Log) flusher() {
	defer l.done.Done()
	var tick *time.Ticker
	var tickC <-chan time.Time
	if l.persistent {
		// The slow ticker exists for age-based retention on otherwise
		// idle streams; active streams compact on their own flushes.
		tick = time.NewTicker(time.Minute)
		tickC = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case <-l.stop:
			l.Flush()
			return
		case <-l.kick:
			// Coalesce: let the burst that kicked us finish emitting so
			// the whole batch lands as one write, and keep the wake off
			// the emitter's heels.
			t := time.NewTimer(flushDelay)
			select {
			case <-l.stop:
				t.Stop()
				l.Flush()
				return
			case <-t.C:
			}
			l.Flush()
		case <-tickC:
			l.Flush()
		}
	}
}

// Flush synchronously drains every queued durable append and runs any
// due compaction. The flusher calls it continuously; tests and
// shutdown call it directly for a deterministic rendezvous.
func (l *Log) Flush() {
	if l == nil || !l.persistent {
		return
	}
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	for _, st := range l.streamList() {
		st.mu.Lock()
		q := st.queue
		st.queue = nil
		st.mu.Unlock()
		if len(q) > 0 {
			lines := make([][]byte, 0, len(q))
			var bytes int64
			oldest := q[0].Time
			for _, e := range q {
				line, err := json.Marshal(e)
				if err != nil {
					l.opts.Logf("events: marshaling event seq %d: %v", e.Seq, err)
					l.dropped.Counter("append_failure").Inc()
					continue
				}
				lines = append(lines, line)
				bytes += int64(len(line)) + 1
			}
			if err := l.store.AppendLog(store.EventLog, st.tenant, lines...); err != nil {
				l.opts.Logf("events: appending %d event(s) for tenant %q: %v", len(lines), st.tenant, err)
				l.dropped.Counter("append_failure").Add(int64(len(lines)))
			} else {
				st.mu.Lock()
				st.logBytes += bytes
				if st.oldest.IsZero() {
					st.oldest = oldest
				}
				st.mu.Unlock()
			}
		}
		l.maybeCompact(st)
	}
}

// maybeCompact rewrites the tenant's durable log when it exceeds the
// size cap or its oldest record outlives the retention window. Caller
// holds flushMu (compaction must not race an append).
func (l *Log) maybeCompact(st *stream) {
	st.mu.Lock()
	overSize := st.logBytes > l.opts.MaxLogBytes
	overAge := l.opts.Retention > 0 && !st.oldest.IsZero() &&
		l.opts.Now().Sub(st.oldest) > l.opts.Retention
	st.mu.Unlock()
	if !overSize && !overAge {
		return
	}
	type rec struct {
		line []byte
		seq  uint64
		t    time.Time
	}
	var recs []rec
	err := l.store.ReplayLog(store.EventLog, st.tenant, func(line []byte) error {
		var e struct {
			Seq  uint64    `json:"seq"`
			Time time.Time `json:"time"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		recs = append(recs, rec{line: append([]byte(nil), line...), seq: e.Seq, t: e.Time})
		return nil
	})
	if err != nil {
		l.opts.Logf("events: compaction scan for tenant %q: %v", st.tenant, err)
		return
	}
	// Age pass first, then trim oldest-first down to half the size cap
	// (hysteresis: compacting to exactly the cap would retrigger on the
	// next append).
	keep := recs
	if l.opts.Retention > 0 {
		cutoff := l.opts.Now().Add(-l.opts.Retention)
		i := 0
		for i < len(keep) && keep[i].t.Before(cutoff) {
			i++
		}
		keep = keep[i:]
	}
	var total int64
	for _, r := range keep {
		total += int64(len(r.line)) + 1
	}
	for len(keep) > 0 && total > l.opts.MaxLogBytes/2 {
		total -= int64(len(keep[0].line)) + 1
		keep = keep[1:]
	}
	if len(keep) == len(recs) {
		return
	}
	lines := make([][]byte, len(keep))
	for i, r := range keep {
		lines[i] = r.line
	}
	size, err := l.store.RewriteLog(store.EventLog, st.tenant, lines)
	if err != nil {
		l.opts.Logf("events: compacting tenant %q log: %v", st.tenant, err)
		return
	}
	st.mu.Lock()
	st.logBytes = size
	if len(keep) > 0 {
		st.oldest = keep[0].t
	} else {
		st.oldest = time.Time{}
	}
	st.mu.Unlock()
	l.opts.Logf("events: tenant %q log compacted (%d of %d record(s) kept, %d bytes)",
		st.tenant, len(keep), len(recs), size)
}

// Close flushes queued appends, stops the flusher and closes every
// subscriber. The Log is unusable afterwards (emits are dropped).
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	l.done.Wait()
	for _, st := range l.streamList() {
		st.mu.Lock()
		for sub := range st.subs {
			sub.closed = true
			close(sub.ch)
			l.subscribers.Add(-1)
		}
		st.subs = make(map[*Subscriber]struct{})
		st.mu.Unlock()
	}
	return nil
}
