package trace

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// finishOne records one completed trace on the route; slow/errored
// steer its classification.
func finishOne(tc *Tracer, route string, slow, errored bool) string {
	_, root := tc.StartRoot(context.Background(), "GET "+route, route, "")
	if errored {
		root.Fail("boom")
	}
	if slow {
		// Rewind the start instead of sleeping: classification compares
		// end-start against the threshold, so a shifted start is a slow
		// request as far as the recorder can tell.
		root.start = root.start.Add(-time.Hour)
		root.tr.mu.Lock()
		root.tr.start = root.start
		root.tr.mu.Unlock()
	}
	root.End()
	return root.TraceID()
}

func TestTailRetentionUnderLoad(t *testing.T) {
	tc := New(Options{SlowThreshold: 100 * time.Millisecond})
	slowID := finishOne(tc, "/v1/plan", true, false)
	errID := finishOne(tc, "/v1/plan", false, true)
	// Flood with fast, successful requests — far beyond the ring size.
	var lastFast string
	for i := 0; i < 100; i++ {
		lastFast = finishOne(tc, "/v1/plan", false, false)
	}
	if tc.Lookup(slowID) == nil {
		t.Fatal("slow trace must survive a flood of fast requests")
	}
	if tc.Lookup(errID) == nil {
		t.Fatal("errored trace must survive a flood of fast requests")
	}
	if tc.Lookup(lastFast) == nil {
		t.Fatal("the newest fast trace must be in the recent ring")
	}
	snap := tc.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("routes = %d, want 1", len(snap))
	}
	rs := snap[0]
	if rs.Total != 102 || rs.Slow != 1 || rs.Errored != 1 {
		t.Fatalf("counters = %+v", rs)
	}
	if len(rs.Recent) != ringSize || len(rs.SlowTraces) != 1 || len(rs.ErrTraces) != 1 {
		t.Fatalf("ring occupancy recent=%d slow=%d err=%d, want %d/1/1",
			len(rs.Recent), len(rs.SlowTraces), len(rs.ErrTraces), ringSize)
	}
	if rs.Recent[0].TraceID != lastFast {
		t.Fatal("recent ring must list newest first")
	}
}

func TestMemoryBoundedByRings(t *testing.T) {
	tc := New(Options{})
	for route := 0; route < 3; route++ {
		for i := 0; i < 50; i++ {
			finishOne(tc, fmt.Sprintf("/r%d", route), i%2 == 0, false)
		}
	}
	tc.mu.Lock()
	indexed := len(tc.byID)
	routes := len(tc.routes)
	tc.mu.Unlock()
	// 3 routes × 3 rings × ringSize is the hard ceiling on retained traces.
	if max := routes * 3 * ringSize; indexed > max {
		t.Fatalf("byID holds %d traces, ring capacity is %d — eviction is leaking the index", indexed, max)
	}
	if indexed == 0 {
		t.Fatal("expected some retained traces")
	}
}

func TestEvictionRemovesFromIndex(t *testing.T) {
	tc := New(Options{})
	first := finishOne(tc, "/", false, false)
	for i := 1; i < ringSize; i++ {
		finishOne(tc, "/", false, false)
	}
	if tc.Lookup(first) == nil {
		t.Fatal("trace within ring capacity must be retrievable")
	}
	finishOne(tc, "/", false, false) // evicts first
	if tc.Lookup(first) != nil {
		t.Fatal("evicted trace must leave the id index")
	}
}

func TestRouteCardinalityBounded(t *testing.T) {
	tc := New(Options{})
	for i := 0; i < maxRoutes+7; i++ {
		finishOne(tc, fmt.Sprintf("/route-%d", i), false, false)
	}
	snap := tc.Snapshot()
	if len(snap) > maxRoutes+1 { // maxRoutes real routes + "other"
		t.Fatalf("routes = %d, want at most maxRoutes+1", len(snap))
	}
	var overflow *RouteSummary
	for i := range snap {
		if snap[i].Route == overflowRoute {
			overflow = &snap[i]
		}
	}
	if overflow == nil || overflow.Total != 7 {
		t.Fatalf("overflow route must absorb the excess: %+v", snap)
	}
}

func TestErroredBeatsSlow(t *testing.T) {
	tc := New(Options{SlowThreshold: time.Nanosecond})
	id := finishOne(tc, "/", true, true)
	snap := tc.Snapshot()
	rs := snap[0]
	if len(rs.ErrTraces) != 1 || rs.ErrTraces[0].TraceID != id {
		t.Fatal("a slow errored trace must land in the errored ring")
	}
	if len(rs.SlowTraces) != 0 {
		t.Fatal("a trace must live in exactly one ring")
	}
	if rs.Slow != 1 {
		t.Fatal("the slow counter must still count it")
	}
}

// TestConcurrentRecordAndSnapshot is the CI race target: spans recorded
// and traces finished concurrently with snapshot, lookup, view and
// eviction must be data-race free.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	tc := New(Options{SlowThreshold: time.Nanosecond})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				route := fmt.Sprintf("/r%d", i%3)
				ctx, root := tc.StartRoot(context.Background(), "GET "+route, route, "")
				cctx, child := StartSpan(ctx, "phase")
				child.Annotate("i", "1")
				_, gc := StartSpan(cctx, "leaf")
				gc.End()
				if i%5 == 0 {
					child.Fail("x")
				}
				child.End()
				detached := Detach(ctx)
				root.End()
				// Late span after the root finished, as the generator
				// goroutine does in the service.
				_, late := StartSpan(detached, "late")
				late.End()
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rs := range tc.Snapshot() {
					for _, st := range rs.Recent {
						if tr := tc.Lookup(st.TraceID); tr != nil {
							_ = tr.View()
							_ = Breakdown(tr.root)
						}
					}
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}
