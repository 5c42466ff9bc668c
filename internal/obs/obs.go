// Package obs is goldrec's dependency-free observability core: a
// registry of counters, gauges and fixed-bucket latency histograms with
// label support, a Prometheus text-exposition writer, and a log/slog
// based structured logger carrying request-scoped context (request id,
// tenant, route) into every line.
//
// The design optimizes the metric bump, not the scrape: a cached handle
// (*Counter, *Gauge, *Histogram) bumps with one or two atomic ops and
// no allocation, an uncached bump is one RLock-guarded map read plus
// the atomics, and only the first appearance of a label combination
// takes the exclusive lock. Scrapes (WritePrometheus, Snapshot) read
// the same atomics, so they never pause writers.
//
// Every type tolerates a nil receiver by doing nothing: a component
// wired to a nil *Registry (or to Noop()) carries nil handles and its
// instrumentation compiles down to a nil check per call site. That is
// what lets the store and engine stay instrumented unconditionally
// while BenchmarkObsOverhead measures the on/off delta honestly.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the metric family type.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution (observations in
	// seconds by convention, like Prometheus).
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// DefBuckets are the default latency buckets in seconds: 100µs to ~41s
// in powers of four, a spread that resolves both a ~1µs in-memory
// registry hit and a multi-second recovery replay. Callers with a
// tighter range pass their own.
var DefBuckets = []float64{0.0001, 0.0004, 0.0016, 0.0064, 0.0256, 0.1024, 0.4096, 1.6384, 6.5536, 26.2144}

// Registry holds metric families keyed by name. The zero value is not
// usable; call NewRegistry. A nil *Registry and the Noop() registry are
// no-ops: every constructor returns nil vecs whose handles do nothing.
type Registry struct {
	noop     bool
	mu       sync.RWMutex
	families map[string]*Vec
}

// NewRegistry returns an empty live registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*Vec)}
}

// Noop returns a disabled registry: metric constructors on it return
// nil vecs, and nil vecs hand out nil handles whose methods do nothing.
// Unlike a nil *Registry (which no-ops identically), Noop() is non-nil,
// so option structs can distinguish "use a default" (nil) from
// "explicitly disabled" (Noop()).
func Noop() *Registry { return &Registry{noop: true} }

// Vec is one metric family: a name, help text, label names, and one
// child per observed label-value combination. A nil *Vec no-ops.
type Vec struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histograms only

	mu       sync.RWMutex
	children map[string]*child
}

// child is one labeled series. Exactly one of the value holders is
// used, per the family kind.
type child struct {
	labelValues []string

	count atomic.Int64  // counter value / histogram observation count
	bits  atomic.Uint64 // gauge value / histogram sum, as math.Float64bits
	cum   []atomic.Int64
}

// register returns the family, creating it on first use. Re-registering
// an existing name returns the same family; a kind or label-arity
// mismatch panics — that is a programming error, not runtime input.
func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels []string) *Vec {
	if r == nil || r.noop {
		return nil
	}
	if err := checkMetricName(name); err != nil {
		panic(err)
	}
	for _, l := range labels {
		if err := checkLabelName(l); err != nil {
			panic(err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.families[name]; ok {
		if v.kind != kind || len(v.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s(%d labels), was %s(%d labels)",
				name, kind, len(labels), v.kind, len(v.labels)))
		}
		return v
	}
	v := &Vec{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]*child),
	}
	r.families[name] = v
	return v
}

// NewCounter registers (or returns) a counter family.
func (r *Registry) NewCounter(name, help string, labels ...string) *Vec {
	return r.register(name, help, KindCounter, nil, labels)
}

// NewGauge registers (or returns) a gauge family.
func (r *Registry) NewGauge(name, help string, labels ...string) *Vec {
	return r.register(name, help, KindGauge, nil, labels)
}

// NewHistogram registers (or returns) a histogram family with the given
// bucket upper bounds in ascending order (nil = DefBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...string) *Vec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending at %d", name, i))
		}
	}
	return r.register(name, help, KindHistogram, buckets, labels)
}

// labelKey joins label values into a map key. Values may contain any
// bytes; \xff is vanishingly unlikely in ids/routes and a collision
// would only merge two series, never corrupt one.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// getChild returns the child for the label values, creating it on first
// use.
func (v *Vec) getChild(values []string) *child {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := labelKey(values)
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[key]; !ok {
		c = &child{labelValues: append([]string(nil), values...)}
		if v.kind == KindHistogram {
			c.cum = make([]atomic.Int64, len(v.buckets))
		}
		v.children[key] = c
	}
	return c
}

// Delete drops the child with the given label values, so a retired
// label (a deleted tenant, say) stops occupying memory and disappears
// from the exposition. It reports whether a child was removed.
func (v *Vec) Delete(labelValues ...string) bool {
	if v == nil {
		return false
	}
	key := labelKey(labelValues)
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.children[key]; !ok {
		return false
	}
	delete(v.children, key)
	return true
}

// Counter returns the counter handle for the label values (no values
// for an unlabeled family). Handles are safe to cache and share.
func (v *Vec) Counter(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	if v.kind != KindCounter {
		panic(fmt.Sprintf("obs: metric %q is a %s, not a counter", v.name, v.kind))
	}
	return (*Counter)(v.getChild(labelValues))
}

// Gauge returns the gauge handle for the label values.
func (v *Vec) Gauge(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	if v.kind != KindGauge {
		panic(fmt.Sprintf("obs: metric %q is a %s, not a gauge", v.name, v.kind))
	}
	return (*Gauge)(v.getChild(labelValues))
}

// Histogram returns the histogram handle for the label values.
func (v *Vec) Histogram(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	if v.kind != KindHistogram {
		panic(fmt.Sprintf("obs: metric %q is a %s, not a histogram", v.name, v.kind))
	}
	return &Histogram{c: v.getChild(labelValues), buckets: v.buckets}
}

// Counter is a cached handle to one counter series. Nil no-ops.
type Counter child

// Add increments the counter by n (n < 0 panics: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	if n < 0 {
		panic("obs: counter decrement")
	}
	c.count.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.count.Load()
}

// Gauge is a cached handle to one gauge series. Nil no-ops.
type Gauge child

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta (CAS loop; contention on one gauge is
// not a hot path).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a cached handle to one histogram series. Nil no-ops.
type Histogram struct {
	c       *child
	buckets []float64
}

// Observe records one observation (in seconds, by convention).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search beats a linear scan only past ~16 buckets; bucket
	// lists here are ~10, so scan.
	for i, ub := range h.buckets {
		if v <= ub {
			h.c.cum[i].Add(1)
			break
		}
	}
	h.c.count.Add(1)
	for {
		old := h.c.bits.Load()
		sum := math.Float64frombits(old) + v
		if h.c.bits.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start — the one-liner
// for latency spans: defer h.ObserveSince(time.Now()) or an explicit
// pair around the hot region.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// Sample is one series' scraped state.
type Sample struct {
	// Name is the family name; Labels/Values are the label pairs.
	Name   string
	Labels []string
	Values []string
	Kind   Kind
	// Count is the counter value or histogram observation count.
	Count int64
	// Value is the gauge value.
	Value float64
	// Sum and Buckets are histogram state; Buckets[i] counts
	// observations ≤ BucketBounds[i] (non-cumulative per bucket here;
	// the exposition writer cumulates).
	Sum          float64
	Buckets      []int64
	BucketBounds []float64
}

// Snapshot scrapes every series, sorted by family name then label
// values — the stable order the exposition writer also uses. Nil
// registries return nil.
func (r *Registry) Snapshot() []Sample {
	if r == nil || r.noop {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	var out []Sample
	for _, name := range names {
		r.mu.RLock()
		v := r.families[name]
		r.mu.RUnlock()
		if v == nil {
			continue
		}
		out = append(out, v.snapshot()...)
	}
	return out
}

// snapshot scrapes one family's children in label order.
func (v *Vec) snapshot() []Sample {
	v.mu.RLock()
	children := make([]*child, 0, len(v.children))
	for _, c := range v.children {
		children = append(children, c)
	}
	v.mu.RUnlock()
	sort.Slice(children, func(a, b int) bool {
		return labelKey(children[a].labelValues) < labelKey(children[b].labelValues)
	})
	out := make([]Sample, 0, len(children))
	for _, c := range children {
		s := Sample{
			Name:   v.name,
			Labels: v.labels,
			Values: c.labelValues,
			Kind:   v.kind,
		}
		switch v.kind {
		case KindCounter:
			s.Count = c.count.Load()
		case KindGauge:
			s.Value = math.Float64frombits(c.bits.Load())
		case KindHistogram:
			s.Count = c.count.Load()
			s.Sum = math.Float64frombits(c.bits.Load())
			s.Buckets = make([]int64, len(v.buckets))
			for i := range c.cum {
				s.Buckets[i] = c.cum[i].Load()
			}
			s.BucketBounds = v.buckets
		}
		out = append(out, s)
	}
	return out
}

func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty metric name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("obs: invalid metric name %q", name)
		}
	}
	return nil
}

func checkLabelName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty label name")
	}
	if strings.HasPrefix(name, "__") {
		return fmt.Errorf("obs: reserved label name %q", name)
	}
	for i, r := range name {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("obs: invalid label name %q", name)
		}
	}
	return nil
}
