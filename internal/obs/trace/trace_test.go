package trace

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every entry point must be a no-op without a tracer: instrumented
	// code never branches on "is tracing on".
	var sp *Span
	sp.Annotate("k", "v")
	sp.Fail("boom")
	sp.End()
	if sp.ID() != "" || sp.TraceID() != "" || sp.Traceparent() != "" || sp.Duration() != 0 {
		t.Fatal("nil span accessors must return zero values")
	}
	ctx, child := StartSpan(context.Background(), "x")
	if child != nil {
		t.Fatal("StartSpan without a parent span must return nil")
	}
	if FromContext(ctx) != nil {
		t.Fatal("context must be unchanged")
	}
	var tc *Tracer
	ctx2, root := tc.StartRoot(context.Background(), "GET /", "/", "")
	if root != nil || FromContext(ctx2) != nil {
		t.Fatal("nil tracer StartRoot must be a no-op")
	}
	if tc.Threshold() != 0 || tc.Lookup("x") != nil || tc.Snapshot() != nil {
		t.Fatal("nil tracer accessors must return zero values")
	}
}

func TestSpanTreeAndLookup(t *testing.T) {
	tc := New(Options{})
	ctx, root := tc.StartRoot(context.Background(), "POST /v1/datasets", "/v1/datasets", "")
	if root == nil {
		t.Fatal("expected root span")
	}
	if got := FromContext(ctx); got != root {
		t.Fatal("context must carry the root span")
	}
	ctx2, child := StartSpan(ctx, "snapshot_write")
	child.Annotate("bytes", "123")
	_, grand := StartSpan(ctx2, "wal_fsync")
	grand.End()
	child.End()
	root.End()

	tr := tc.Lookup(root.TraceID())
	if tr == nil {
		t.Fatal("completed trace must be retrievable by id")
	}
	view := tr.View()
	if view.Root == nil || view.Root.Name != "POST /v1/datasets" {
		t.Fatalf("bad root: %+v", view.Root)
	}
	if view.SpanCount != 3 {
		t.Fatalf("span count = %d, want 3", view.SpanCount)
	}
	if len(view.Root.Children) != 1 || view.Root.Children[0].Name != "snapshot_write" {
		t.Fatalf("bad children: %+v", view.Root.Children)
	}
	cv := view.Root.Children[0]
	if len(cv.Children) != 1 || cv.Children[0].Name != "wal_fsync" {
		t.Fatalf("bad grandchildren: %+v", cv.Children)
	}
	if len(cv.Annotations) != 1 || cv.Annotations[0].Key != "bytes" || cv.Annotations[0].Value != "123" {
		t.Fatalf("bad annotations: %+v", cv.Annotations)
	}
	if cv.Children[0].ParentID != cv.SpanID || cv.ParentID != view.Root.SpanID {
		t.Fatal("parent linkage broken")
	}
}

func TestLookupOnlyAfterFinish(t *testing.T) {
	tc := New(Options{})
	_, root := tc.StartRoot(context.Background(), "GET /", "/", "")
	if tc.Lookup(root.TraceID()) != nil {
		t.Fatal("in-flight traces must not be indexed")
	}
	root.End()
	if tc.Lookup(root.TraceID()) == nil {
		t.Fatal("completed trace must be indexed")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tc := New(Options{})
	inbound := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	ctx, root := tc.StartRoot(context.Background(), "GET /", "/", inbound)
	if got := root.TraceID(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id = %q, want the inbound header's", got)
	}
	out := root.Traceparent()
	if !strings.HasPrefix(out, "00-4bf92f3577b34da6a3ce929d0e0e4736-") || !strings.HasSuffix(out, "-01") {
		t.Fatalf("outbound traceparent %q does not continue the trace", out)
	}
	if strings.Contains(out, "00f067aa0ba902b7") {
		t.Fatal("outbound parent id must be the new root span, not the remote span")
	}
	view := tc.mustFinish(t, ctx, root)
	if view.Root.ParentID != "00f067aa0ba902b7" {
		t.Fatalf("root parent = %q, want the remote span id", view.Root.ParentID)
	}
}

// mustFinish ends the root and returns the recorded view.
func (tc *Tracer) mustFinish(t *testing.T, _ context.Context, root *Span) TraceView {
	t.Helper()
	root.End()
	tr := tc.Lookup(root.TraceID())
	if tr == nil {
		t.Fatal("trace not recorded")
	}
	return tr.View()
}

func TestDetach(t *testing.T) {
	tc := New(Options{})
	base, cancel := context.WithCancel(context.Background())
	ctx, root := tc.StartRoot(base, "POST /v1/sessions", "/v1/sessions", "")
	detached := Detach(ctx)
	cancel()
	if detached.Err() != nil {
		t.Fatal("detached context must not inherit cancellation")
	}
	_, bg := StartSpan(detached, "group_search")
	bg.End()
	root.End()
	view := tc.Lookup(root.TraceID()).View()
	if len(view.Root.Children) != 1 || view.Root.Children[0].Name != "group_search" {
		t.Fatalf("detached span must attach to the originating trace: %+v", view.Root.Children)
	}
	if Detach(context.Background()) == nil {
		t.Fatal("Detach without a span must still return a context")
	}
}

func TestLateSpansAfterRootEnd(t *testing.T) {
	// goldrecd's generator goroutine outlives the HTTP request: spans it
	// opens after the root ended must still attach (bounded by maxSpans).
	tc := New(Options{})
	ctx, root := tc.StartRoot(context.Background(), "POST /v1/sessions", "/v1/sessions", "")
	root.End()
	_, late := StartSpan(Detach(ctx), "wal_append")
	late.End()
	view := tc.Lookup(root.TraceID()).View()
	if view.SpanCount != 2 {
		t.Fatalf("span count = %d, want the late span attached", view.SpanCount)
	}
}

func TestSpanCapAndAnnotationCap(t *testing.T) {
	tc := New(Options{})
	ctx, root := tc.StartRoot(context.Background(), "GET /", "/", "")
	for i := 0; i < maxSpans+6; i++ {
		_, sp := StartSpan(ctx, "child")
		sp.End()
	}
	root.End()
	view := tc.Lookup(root.TraceID()).View()
	if view.SpanCount != maxSpans {
		t.Fatalf("span count = %d, want capped at %d", view.SpanCount, maxSpans)
	}
	if view.DroppedSpans != 7 {
		t.Fatalf("dropped = %d, want 7", view.DroppedSpans)
	}

	_, root2 := tc.StartRoot(context.Background(), "GET /", "/", "")
	for i := 0; i < maxAnnotations+5; i++ {
		root2.Annotate("k", "v")
	}
	root2.End()
	v2 := tc.Lookup(root2.TraceID()).View()
	if len(v2.Root.Annotations) != maxAnnotations {
		t.Fatalf("annotations = %d, want capped at %d", len(v2.Root.Annotations), maxAnnotations)
	}
}

func TestEndIdempotent(t *testing.T) {
	tc := New(Options{})
	_, root := tc.StartRoot(context.Background(), "GET /", "/", "")
	root.End()
	d := root.Duration()
	time.Sleep(2 * time.Millisecond)
	root.End() // second End must not move the end time or re-finish
	if root.Duration() != d {
		t.Fatal("End must be idempotent")
	}
	snap := tc.Snapshot()
	if len(snap) != 1 || snap[0].Total != 1 {
		t.Fatalf("double End must record the trace once: %+v", snap)
	}
}

func TestFailMarksTraceErrored(t *testing.T) {
	tc := New(Options{})
	ctx, root := tc.StartRoot(context.Background(), "GET /", "/", "")
	_, child := StartSpan(ctx, "store_get")
	child.Fail("not found")
	child.End()
	root.End()
	view := tc.Lookup(root.TraceID()).View()
	if !view.Errored {
		t.Fatal("a failed child span must mark the trace errored")
	}
	if !view.Root.Children[0].Failed {
		t.Fatal("the failed span must carry the flag")
	}
	if len(view.Root.Children[0].Annotations) != 1 || view.Root.Children[0].Annotations[0].Key != "error" {
		t.Fatalf("Fail must annotate the message: %+v", view.Root.Children[0].Annotations)
	}
	snap := tc.Snapshot()
	if snap[0].Errored != 1 {
		t.Fatalf("errored count = %d, want 1", snap[0].Errored)
	}
}

func TestBreakdown(t *testing.T) {
	if Breakdown(nil) != "" {
		t.Fatal("nil breakdown must be empty")
	}
	tc := New(Options{})
	ctx, root := tc.StartRoot(context.Background(), "POST /v1/datasets", "/v1/datasets", "")
	_, child := StartSpan(ctx, "snapshot_write")
	child.End()
	root.End()
	got := Breakdown(root)
	if !strings.HasPrefix(got, "POST /v1/datasets=") || !strings.Contains(got, " snapshot_write=") {
		t.Fatalf("breakdown = %q", got)
	}
}
