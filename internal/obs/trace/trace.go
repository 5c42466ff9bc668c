// Package trace is goldrec's dependency-free request tracer: spans with
// monotonic start/end and parent linkage, W3C traceparent propagation on
// the HTTP boundary, and a fixed-size flight recorder with tail-based
// retention (see Tracer).
//
// Spans thread through the service layers via context.Context: the HTTP
// middleware opens a root span with StartRoot, inner layers open child
// spans with StartSpan, and a background goroutine that must outlive its
// request keeps contributing spans through Detach. Every entry point is
// nil-tolerant — with no tracer configured (or no span in the context),
// StartSpan returns a nil *Span whose methods are no-ops, so
// instrumented code needs no "is tracing on" branches.
package trace

import (
	"context"
	"sync"
	"time"
)

// maxAnnotations bounds per-span key/value annotations so a pathological
// caller cannot grow a retained trace without bound.
const maxAnnotations = 16

// Annotation is one key/value pair attached to a span.
type Annotation struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation inside a trace. Spans are created by
// StartRoot/StartSpan and finished with End; all methods are safe on a
// nil receiver and for concurrent use.
type Span struct {
	tr       *Trace
	spanID   string
	parentID string
	name     string
	start    time.Time // carries the monotonic clock reading

	mu     sync.Mutex
	end    time.Time
	annots []Annotation
	failed bool
}

// Trace is one request's span collection. The root span's End
// classifies the trace into the tracer's flight recorder; spans arriving
// after that (from detached background work) still attach, up to the
// tracer's per-trace cap.
type Trace struct {
	tracer *Tracer
	id     string
	route  string
	start  time.Time

	// rootSpan and spansBuf are inline storage so the hot path (a
	// trace with a handful of spans) costs one allocation for the
	// whole trace, not one per span container.
	rootSpan Span
	spansBuf [4]*Span

	mu      sync.Mutex
	root    *Span
	spans   []*Span
	dropped int
	err     bool
	done    bool
}

// ctxKey carries the current *Span through a context.
type ctxKey struct{}

// FromContext returns the context's current span (nil when none).
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// ID returns the span's id ("" on nil).
func (sp *Span) ID() string {
	if sp == nil {
		return ""
	}
	return sp.spanID
}

// TraceID returns the id of the trace the span belongs to ("" on nil).
func (sp *Span) TraceID() string {
	if sp == nil || sp.tr == nil {
		return ""
	}
	return sp.tr.id
}

// Traceparent renders the span as an outbound W3C traceparent header
// value ("" on nil), so a downstream hop continues this trace.
func (sp *Span) Traceparent() string {
	if sp == nil || sp.tr == nil {
		return ""
	}
	return Format(sp.tr.id, sp.spanID)
}

// Annotate attaches one bounded key/value pair to the span. Beyond
// maxAnnotations the pair is dropped.
func (sp *Span) Annotate(key, value string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if len(sp.annots) < maxAnnotations {
		if sp.annots == nil {
			sp.annots = make([]Annotation, 0, 4)
		}
		sp.annots = append(sp.annots, Annotation{Key: key, Value: value})
	}
	sp.mu.Unlock()
}

// Fail marks the span (and therefore its trace) as errored. The message
// lands in the span's annotations.
func (sp *Span) Fail(msg string) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.failed = true
	if msg != "" && len(sp.annots) < maxAnnotations {
		sp.annots = append(sp.annots, Annotation{Key: "error", Value: msg})
	}
	sp.mu.Unlock()
	if sp.tr != nil {
		sp.tr.mu.Lock()
		sp.tr.err = true
		sp.tr.mu.Unlock()
	}
}

// End stamps the span's end time (first call wins). Ending a trace's
// root span completes the trace: the tracer classifies it into its
// recent/slow/errored ring for the route.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if !sp.end.IsZero() {
		sp.mu.Unlock()
		return
	}
	sp.end = time.Now()
	dur := sp.end.Sub(sp.start)
	sp.mu.Unlock()
	tr := sp.tr
	if tr == nil {
		return
	}
	tr.mu.Lock()
	isRoot := tr.root == sp && !tr.done
	if isRoot {
		tr.done = true
	}
	errored := tr.err
	tr.mu.Unlock()
	if isRoot && tr.tracer != nil {
		tr.tracer.finish(tr, dur, errored)
	}
}

// Duration returns the span's elapsed time: end−start once ended, the
// running elapsed time before that, 0 on nil.
func (sp *Span) Duration() time.Duration {
	if sp == nil {
		return 0
	}
	sp.mu.Lock()
	end := sp.end
	sp.mu.Unlock()
	if end.IsZero() {
		return time.Since(sp.start)
	}
	return end.Sub(sp.start)
}

// StartSpan opens a child of the context's current span and returns a
// context carrying the child. With no span in the context (tracing off,
// or an untraced code path) it returns the context unchanged and a nil
// span — every Span method no-ops on nil, so callers never branch.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil || parent.tr == nil {
		return ctx, nil
	}
	sp := parent.tr.newSpan(name, parent.spanID)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// Detach returns a fresh background context carrying only the current
// span — no deadline, no cancellation, no request values. A goroutine
// that outlives its HTTP request (goldrecd's group generators) uses it
// so its spans still attach to the originating trace.
func Detach(ctx context.Context) context.Context {
	sp := FromContext(ctx)
	if sp == nil {
		return context.Background()
	}
	return context.WithValue(context.Background(), ctxKey{}, sp)
}

// newSpan registers one more span on the trace, enforcing the tracer's
// per-trace cap (dropped spans are counted, not silently lost).
func (t *Trace) newSpan(name, parentID string) *Span {
	sp := &Span{
		tr:       t,
		spanID:   newSpanID(),
		parentID: parentID,
		name:     name,
		start:    time.Now(),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return nil
	}
	t.spans = append(t.spans, sp)
	return sp
}
