package core

import (
	"runtime"
	"testing"
)

// TestEngineLiveHeapAddress gates the engine's live state: on an
// Address ×0.3 pool, the heap an engine holds after construction and 41
// NextGroup calls — the label registries, flat graphs and flat inverted
// indexes of every context prepared so far, plus the constant table —
// stays under liveHeapBound once garbage is collected. Each reading
// follows two collections: the first moves the pooled graph builders
// (one per P) to their pool's victim cache, the second frees them, so
// the reading does not grow with GOMAXPROCS.
func TestEngineLiveHeapAddress(t *testing.T) {
	const liveHeapBound = 11 << 20
	reps := datagenReps("address", 1000, 0.3)
	var before, after runtime.MemStats
	collect := func(ms *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(ms)
	}
	collect(&before)
	e := NewEngine(reps, sessionOptions())
	for i := 0; i < 41; i++ {
		if e.NextGroup() == nil {
			t.Fatalf("engine exhausted after %d groups", i)
		}
	}
	collect(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live engine heap %.2f MB", float64(live)/1e6)
	if live > liveHeapBound {
		t.Errorf("engine holds %.2f MB after 41 groups, want at most %.2f MB", float64(live)/1e6, float64(liveHeapBound)/1e6)
	}
	runtime.KeepAlive(e)
}
