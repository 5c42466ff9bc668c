package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	vec := r.NewCounter("goldrec_requests_total", "Requests.", "tenant")
	c := vec.Counter("acme")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same label values return the same underlying series.
	if got := vec.Counter("acme").Value(); got != 5 {
		t.Fatalf("re-fetched counter = %d, want 5", got)
	}
	if got := vec.Counter("other").Value(); got != 0 {
		t.Fatalf("fresh series = %d, want 0", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("goldrec_x_total", "X.").Counter()
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("goldrec_sessions", "Sessions.").Gauge()
	g.Set(3)
	g.Add(2.5)
	if got := g.Value(); got != 5.5 {
		t.Fatalf("gauge = %v, want 5.5", got)
	}
	g.Add(-6)
	if got := g.Value(); got != -0.5 {
		t.Fatalf("gauge = %v, want -0.5", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("goldrec_latency_seconds", "Latency.", []float64{0.01, 0.1, 1}).Histogram()
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	samples := r.Snapshot()
	if len(samples) != 1 {
		t.Fatalf("snapshot has %d samples, want 1", len(samples))
	}
	s := samples[0]
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if math.Abs(s.Sum-5.555) > 1e-9 {
		t.Fatalf("sum = %v, want 5.555", s.Sum)
	}
	want := []int64{1, 1, 1, 1} // one per bucket, one overflow
	for i, n := range s.Buckets {
		if n != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (buckets %v)", i, n, want[i], s.Buckets)
		}
	}
}

func TestHistogramDurationHelpers(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("goldrec_d_seconds", "D.", nil).Histogram()
	h.ObserveDuration(250 * time.Millisecond)
	h.ObserveSince(time.Now().Add(-10 * time.Millisecond))
	s := r.Snapshot()[0]
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.Sum < 0.25 || s.Sum > 1 {
		t.Fatalf("sum = %v, want ~0.26", s.Sum)
	}
}

func TestHistogramBadBucketsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("descending buckets did not panic")
		}
	}()
	r.NewHistogram("goldrec_bad_seconds", "Bad.", []float64{1, 0.5})
}

func TestDeleteDropsSeries(t *testing.T) {
	r := NewRegistry()
	vec := r.NewCounter("goldrec_t_total", "T.", "tenant")
	vec.Counter("a").Inc()
	vec.Counter("b").Inc()
	if !vec.Delete("a") {
		t.Fatal("Delete(a) = false, want true")
	}
	if vec.Delete("a") {
		t.Fatal("second Delete(a) = true, want false")
	}
	samples := r.Snapshot()
	if len(samples) != 1 || samples[0].Values[0] != "b" {
		t.Fatalf("snapshot after delete = %+v, want only tenant b", samples)
	}
	// A handle cached before Delete still works, but writes go to a
	// detached series that no longer appears in snapshots.
	vec.Counter("b").Inc()
	if got := r.Snapshot()[0].Count; got != 2 {
		t.Fatalf("surviving series = %d, want 2", got)
	}
}

func TestRegisterIdempotentAndMismatchPanics(t *testing.T) {
	r := NewRegistry()
	v1 := r.NewCounter("goldrec_same_total", "Same.", "a")
	v2 := r.NewCounter("goldrec_same_total", "Same.", "a")
	if v1 != v2 {
		t.Fatal("re-registration returned a different Vec")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.NewGauge("goldrec_same_total", "Same.", "a")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "2bad", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q did not panic", name)
				}
			}()
			r.NewCounter(name, "Bad.")
		}()
	}
	for _, label := range []string{"bad-label", "__reserved"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("label %q did not panic", label)
				}
			}()
			r.NewCounter("goldrec_ok_total", "OK.", label)
		}()
	}
}

func TestNoopRegistryIsSafe(t *testing.T) {
	r := Noop()
	c := r.NewCounter("goldrec_n_total", "N.", "tenant").Counter("x")
	c.Inc()
	c.Add(7)
	if got := c.Value(); got != 0 {
		t.Fatalf("noop counter = %d, want 0", got)
	}
	g := r.NewGauge("goldrec_n", "N.").Gauge()
	g.Set(3)
	g.Add(1)
	if got := g.Value(); got != 0 {
		t.Fatalf("noop gauge = %v, want 0", got)
	}
	h := r.NewHistogram("goldrec_n_seconds", "N.", nil).Histogram()
	h.Observe(1)
	h.ObserveSince(time.Now())
	h.ObserveDuration(time.Second)
	if s := r.Snapshot(); s != nil {
		t.Fatalf("noop snapshot = %v, want nil", s)
	}
	if r.NewCounter("goldrec_n_total", "N.").Delete("x") {
		t.Fatal("noop Delete = true, want false")
	}
}

// TestConcurrentBumpsVsSnapshot exercises metric writes racing with
// snapshot/exposition; run under -race this is the satellite-3 check.
func TestConcurrentBumpsVsSnapshot(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounter("goldrec_c_total", "C.", "tenant")
	hv := r.NewHistogram("goldrec_h_seconds", "H.", nil, "route")
	gv := r.NewGauge("goldrec_g", "G.")
	const workers = 8
	const perWorker = 2000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // reader: snapshots + exposition while writers run
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Snapshot()
			var sink discard
			if err := r.WritePrometheus(&sink); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()
	tenants := []string{"a", "b", "c"}
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				cv.Counter(tenants[i%len(tenants)]).Inc()
				hv.Histogram("decide").Observe(float64(i%10) / 1000)
				gv.Gauge().Add(1)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	var total int64
	for _, tn := range tenants {
		total += cv.Counter(tn).Value()
	}
	if total != workers*perWorker {
		t.Fatalf("counters total = %d, want %d", total, workers*perWorker)
	}
	if got := gv.Gauge().Value(); got != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", got, workers*perWorker)
	}
	for _, s := range r.Snapshot() {
		if s.Name == "goldrec_h_seconds" && s.Count != workers*perWorker {
			t.Fatalf("histogram count = %d, want %d", s.Count, workers*perWorker)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
