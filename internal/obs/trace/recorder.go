package trace

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	defaultSlowThreshold = 500 * time.Millisecond

	// ringSize is the capacity of each of the three per-route rings
	// (recent / slow / errored).
	ringSize = 8
	// maxSpans caps the spans retained per trace; further StartSpan
	// calls return nil and increment the trace's dropped counter.
	maxSpans = 256
	// maxRoutes caps the number of distinct route groups; traces for
	// additional routes land under overflowRoute, mirroring the metrics
	// layer's bounded route cardinality.
	maxRoutes     = 64
	overflowRoute = "other"
)

// Options configures a Tracer. The zero value is usable.
type Options struct {
	// SlowThreshold is the root-span duration at or above which a
	// completed trace is retained in its route's slow ring (and a
	// slow-request log line is warranted). Default 500ms.
	SlowThreshold time.Duration
}

// ring is a fixed-size FIFO of completed traces. Eviction hands the
// displaced trace back so the tracer can drop its byID entry.
type ring struct {
	buf  []*Trace
	next int // insertion cursor
}

func newRing(size int) *ring {
	return &ring{buf: make([]*Trace, 0, size)}
}

// add inserts t, returning the evicted trace (nil while filling).
func (r *ring) add(t *Trace) *Trace {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, t)
		r.next = len(r.buf) % cap(r.buf)
		return nil
	}
	old := r.buf[r.next]
	r.buf[r.next] = t
	r.next = (r.next + 1) % cap(r.buf)
	return old
}

// all returns the ring's traces, newest first.
func (r *ring) all() []*Trace {
	out := make([]*Trace, 0, len(r.buf))
	for i := 1; i <= len(r.buf); i++ {
		out = append(out, r.buf[(r.next-i+cap(r.buf))%cap(r.buf)])
	}
	return out
}

// routeRings is one route's tail-retention state: the three
// classification rings plus running counters.
type routeRings struct {
	recent  *ring
	slow    *ring
	errored *ring

	total       int
	slowCount   int
	errCount    int
	slowestSeen time.Duration
}

// Tracer is the flight recorder: it owns trace creation, tail-based
// classification of completed traces into per-route rings, and the
// /debug/traces views. Memory is bounded by
// maxRoutes × 3 × ringSize × maxSpans regardless of load.
type Tracer struct {
	threshold time.Duration

	mu     sync.Mutex
	routes map[string]*routeRings
	byID   map[string]*Trace // completed traces only, removed on eviction
}

// New builds a Tracer, applying the default to a zero SlowThreshold.
func New(opts Options) *Tracer {
	if opts.SlowThreshold <= 0 {
		opts.SlowThreshold = defaultSlowThreshold
	}
	return &Tracer{
		threshold: opts.SlowThreshold,
		routes:    make(map[string]*routeRings),
		byID:      make(map[string]*Trace),
	}
}

// StartRoot opens a new trace for a request on the given normalized
// route and returns a context carrying its root span. A parseable
// inbound traceparent header value continues the caller's trace id
// (the new root records the remote span as its parent); anything else
// starts a fresh trace. Nil-tolerant: a nil Tracer returns (ctx, nil).
func (tc *Tracer) StartRoot(ctx context.Context, name, route, traceparent string) (context.Context, *Span) {
	if tc == nil {
		return ctx, nil
	}
	traceID, parentID, err := ParseTraceparent(traceparent)
	if err != nil {
		traceID, parentID = newTraceID(), ""
	}
	t := &Trace{
		tracer: tc,
		id:     traceID,
		route:  route,
		start:  time.Now(),
	}
	root := &t.rootSpan
	root.tr = t
	root.spanID = newSpanID()
	root.parentID = parentID
	root.name = name
	root.start = t.start
	t.root = root
	t.spans = append(t.spansBuf[:0], root)
	return context.WithValue(ctx, ctxKey{}, root), root
}

// Threshold returns the tracer's slow threshold; it runs on every
// request and takes no lock.
func (tc *Tracer) Threshold() time.Duration {
	if tc == nil {
		return 0
	}
	return tc.threshold
}

// routeLocked returns the route's ring set, creating it under the
// maxRoutes cap. Callers hold tc.mu.
func (tc *Tracer) routeLocked(route string) *routeRings {
	rr, ok := tc.routes[route]
	if ok {
		return rr
	}
	if len(tc.routes) >= maxRoutes {
		route = overflowRoute
		if rr, ok := tc.routes[route]; ok {
			return rr
		}
	}
	rr = &routeRings{
		recent:  newRing(ringSize),
		slow:    newRing(ringSize),
		errored: newRing(ringSize),
	}
	tc.routes[route] = rr
	return rr
}

// finish classifies a completed trace: errored beats slow beats recent,
// each trace lives in exactly one ring, and the ring's eviction removes
// the displaced trace from the id index. Only here does the trace
// become visible to Lookup/Snapshot — in-flight requests cost no index
// space and a crash-looping client cannot grow the recorder.
func (tc *Tracer) finish(t *Trace, rootDur time.Duration, errored bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	rr := tc.routeLocked(t.route)
	rr.total++
	slow := rootDur >= tc.threshold
	var evicted *Trace
	switch {
	case errored:
		rr.errCount++
		evicted = rr.errored.add(t)
	case slow:
		evicted = rr.slow.add(t)
	default:
		evicted = rr.recent.add(t)
	}
	if slow {
		rr.slowCount++
	}
	if rootDur > rr.slowestSeen {
		rr.slowestSeen = rootDur
	}
	tc.byID[t.id] = t
	if evicted != nil && evicted != t {
		delete(tc.byID, evicted.id)
	}
}

// Lookup returns the completed trace with the given id, nil if it was
// never recorded or has been evicted.
func (tc *Tracer) Lookup(id string) *Trace {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.byID[id]
}

// RouteSummary is one row of the /debug/traces index.
type RouteSummary struct {
	Route       string      `json:"route"`
	Total       int         `json:"total"`
	Slow        int         `json:"slow"`
	Errored     int         `json:"errored"`
	ThresholdMS float64     `json:"threshold_ms"`
	SlowestMS   float64     `json:"slowest_ms"`
	Recent      []TraceStub `json:"recent,omitempty"`
	SlowTraces  []TraceStub `json:"slow_traces,omitempty"`
	ErrTraces   []TraceStub `json:"errored_traces,omitempty"`
}

// TraceStub is the index entry for one retained trace.
type TraceStub struct {
	TraceID    string  `json:"trace_id"`
	Start      string  `json:"start"`
	DurationMS float64 `json:"duration_ms"`
	Spans      int     `json:"spans"`
	Errored    bool    `json:"errored"`
}

// Snapshot returns the recorder's route-grouped index, routes sorted
// lexically. It copies everything it needs under the locks, so the
// result is safe to serialize without further synchronization.
func (tc *Tracer) Snapshot() []RouteSummary {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	type routeCopy struct {
		name                  string
		rr                    routeRings
		recent, slow, errored []*Trace
	}
	copies := make([]routeCopy, 0, len(tc.routes))
	for name, rr := range tc.routes {
		copies = append(copies, routeCopy{
			name:    name,
			rr:      *rr,
			recent:  rr.recent.all(),
			slow:    rr.slow.all(),
			errored: rr.errored.all(),
		})
	}
	tc.mu.Unlock()

	sort.Slice(copies, func(i, j int) bool { return copies[i].name < copies[j].name })
	out := make([]RouteSummary, 0, len(copies))
	for _, c := range copies {
		out = append(out, RouteSummary{
			Route:       c.name,
			Total:       c.rr.total,
			Slow:        c.rr.slowCount,
			Errored:     c.rr.errCount,
			ThresholdMS: ms(tc.threshold),
			SlowestMS:   ms(c.rr.slowestSeen),
			Recent:      stubs(c.recent),
			SlowTraces:  stubs(c.slow),
			ErrTraces:   stubs(c.errored),
		})
	}
	return out
}

func stubs(traces []*Trace) []TraceStub {
	out := make([]TraceStub, 0, len(traces))
	for _, t := range traces {
		out = append(out, t.stub())
	}
	return out
}

func (t *Trace) stub() TraceStub {
	t.mu.Lock()
	spans := len(t.spans)
	errored := t.err
	t.mu.Unlock()
	return TraceStub{
		TraceID:    t.id,
		Start:      t.start.UTC().Format(time.RFC3339Nano),
		DurationMS: ms(t.root.Duration()),
		Spans:      spans,
		Errored:    errored,
	}
}

func ms(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// Breakdown renders "name=duration" pairs for the root span's trace,
// spans in start order — the payload of the slow-request log line.
func Breakdown(root *Span) string {
	if root == nil || root.tr == nil {
		return ""
	}
	t := root.tr
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	var b strings.Builder
	for i, sp := range spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(sp.name)
		b.WriteByte('=')
		b.WriteString(sp.Duration().String())
	}
	return b.String()
}
