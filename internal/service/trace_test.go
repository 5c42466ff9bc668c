package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/goldrec/goldrec/internal/obs/trace"
	"github.com/goldrec/goldrec/internal/store"
)

// traceServer boots a tracer-equipped service over an FS store (so the
// WAL and snapshot spans exist) plus a second test server exposing the
// flight recorder the way goldrecd's debug listener does.
func traceServer(t *testing.T, topts trace.Options) (*trace.Tracer, *httptest.Server, *httptest.Server) {
	t.Helper()
	fsStore, err := store.OpenFS(t.TempDir(), store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.New(topts)
	_, ts := newTestServer(t, Options{Prefetch: 2, Store: fsStore, Tracer: tracer})
	debug := httptest.NewServer(tracer.Handler())
	t.Cleanup(debug.Close)
	return tracer, ts, debug
}

// fetchTraceView GETs /debug/traces/{id} and decodes the span tree;
// found is false on 404 (trace not finished or evicted).
func fetchTraceView(t *testing.T, debugURL, traceID string) (trace.TraceView, bool) {
	t.Helper()
	resp, err := http.Get(debugURL + "/debug/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return trace.TraceView{}, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace %s: status %d", traceID, resp.StatusCode)
	}
	var view trace.TraceView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view, true
}

// pollTraceView retries fetchTraceView until the trace finishes: the
// middleware ends the root span after the response bytes go out, so
// the client can hold a response before the recorder holds the trace.
func pollTraceView(t *testing.T, debugURL, traceID string) (trace.TraceView, bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if view, ok := fetchTraceView(t, debugURL, traceID); ok {
			return view, true
		}
		if time.Now().After(deadline) {
			return trace.TraceView{}, false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// spanNames flattens a span tree (root plus orphans) into a name set.
func spanNames(view trace.TraceView) map[string]int {
	names := make(map[string]int)
	var walk func(sv *trace.SpanView)
	walk = func(sv *trace.SpanView) {
		if sv == nil {
			return
		}
		names[sv.Name]++
		for _, c := range sv.Children {
			walk(c)
		}
	}
	walk(view.Root)
	for _, o := range view.Orphans {
		walk(o)
	}
	return names
}

// TestTraceIntegration drives the real HTTP stack end to end and pulls
// the traces back out of the flight recorder: an upload request with an
// inbound W3C traceparent keeps its trace id and records the snapshot
// write; opening a session records the engine phases and the WAL
// append+fsync in one trace, even though the review stream runs on a
// detached goroutine that outlives the request.
func TestTraceIntegration(t *testing.T) {
	// A nanosecond threshold classifies every request slow, so each
	// trace lands in a retained ring and Lookup works immediately.
	_, ts, debug := traceServer(t, trace.Options{SlowThreshold: time.Nanosecond})

	// Upload with an inbound traceparent: the trace must continue the
	// caller's trace id, and the response must echo it both ways.
	const inboundTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest("POST", ts.URL+"/v1/datasets?name=paper&key=key", strings.NewReader(paperCSV))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+inboundTrace+"-00f067aa0ba902b7-01")
	if testAuth {
		req.Header.Set("Authorization", "Bearer "+testAdminKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var dsInfo DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&dsInfo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-ID"); got != inboundTrace {
		t.Fatalf("X-Trace-ID = %q, want inbound trace id %q", got, inboundTrace)
	}
	tp := resp.Header.Get("traceparent")
	if !strings.HasPrefix(tp, "00-"+inboundTrace+"-") {
		t.Fatalf("outbound traceparent %q does not continue trace %s", tp, inboundTrace)
	}
	view, ok := pollTraceView(t, debug.URL, inboundTrace)
	if !ok {
		t.Fatalf("upload trace %s not in recorder", inboundTrace)
	}
	if names := spanNames(view); names["snapshot_write"] == 0 {
		t.Fatalf("upload trace spans = %v, want snapshot_write", names)
	}
	if view.Route != "/v1/datasets" {
		t.Fatalf("route = %q, want /v1/datasets", view.Route)
	}

	// Open a session. The response arrives before the detached review
	// stream has prepared the engine, so poll the debug endpoint until
	// the late spans land: middleware root → engine phases → WAL.
	sreq, err := http.NewRequest("POST", ts.URL+"/v1/datasets/"+dsInfo.ID+"/sessions",
		strings.NewReader(`{"column":"Name"}`))
	if err != nil {
		t.Fatal(err)
	}
	if testAuth {
		sreq.Header.Set("Authorization", "Bearer "+testAdminKey)
	}
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	var sessInfo SessionInfo
	if err := json.NewDecoder(sresp.Body).Decode(&sessInfo); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusCreated {
		t.Fatalf("open session: status %d", sresp.StatusCode)
	}
	sessTrace := sresp.Header.Get("X-Trace-ID")
	if sessTrace == "" {
		t.Fatal("open-session response missing X-Trace-ID")
	}

	// wal_append is the caller-side durable wait; wal_group_flush is
	// the committer's shared write+fsync, attached to the trace of the
	// batch leader — which this serial test always is.
	want := []string{"context_prep", "graph_build", "group_search", "wal_append", "wal_group_flush"}
	deadline := time.Now().Add(30 * time.Second)
	var names map[string]int
	for time.Now().Before(deadline) {
		if view, ok := fetchTraceView(t, debug.URL, sessTrace); ok {
			names = spanNames(view)
			missing := false
			for _, n := range want {
				if names[n] == 0 {
					missing = true
				}
			}
			if !missing {
				if view.Root == nil || view.Root.Name != "POST /v1/datasets/{id}/sessions" {
					t.Fatalf("root span = %+v, want POST /v1/datasets/{id}/sessions", view.Root)
				}
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("session trace %s never gathered %v; last spans: %v", sessTrace, want, names)
}

// TestTraceTailRetentionHTTP floods a route with fast requests and
// checks that the one slow and the one errored trace survive in their
// rings while the recent ring churns — the tail-sampling contract, via
// the real middleware rather than the recorder's own unit tests.
func TestTraceTailRetentionHTTP(t *testing.T) {
	const (
		slowThreshold = 200 * time.Millisecond
		ringSize      = 8 // the recorder's per-route ring capacity
	)
	tracer, ts, debug := traceServer(t, trace.Options{SlowThreshold: slowThreshold})

	var dsInfo DatasetInfo
	if status := doJSON(t, "POST", ts.URL+"/v1/datasets?name=paper&key=key", strings.NewReader(paperCSV), &dsInfo); status != http.StatusCreated {
		t.Fatalf("upload: status %d", status)
	}

	// One errored trace: a 404 on the flooded route.
	var errBody map[string]string
	if status := doJSON(t, "GET", ts.URL+"/v1/datasets/ds_00dead", nil, &errBody); status != http.StatusNotFound {
		t.Fatalf("missing dataset: status %d", status)
	}
	erroredID := errBody["trace_id"]
	if erroredID == "" {
		t.Fatal("404 body missing trace_id")
	}

	// One slow trace on the same route, planted straight on the
	// server's tracer: a root held open past the threshold.
	const route = "/v1/datasets/{id}"
	_, root := tracer.StartRoot(context.Background(), "GET "+route, route, "")
	time.Sleep(slowThreshold)
	root.End()
	slowID := root.TraceID()

	// Flood: 50 fast successful requests through the same route, more
	// than six times the ring size.
	for i := 0; i < 50; i++ {
		if status := doJSON(t, "GET", ts.URL+"/v1/datasets/"+dsInfo.ID, nil, nil); status != http.StatusOK {
			t.Fatalf("flood request %d: status %d", i, status)
		}
	}

	for _, tc := range []struct{ name, id string }{{"slow", slowID}, {"errored", erroredID}} {
		if _, ok := pollTraceView(t, debug.URL, tc.id); !ok {
			t.Errorf("%s trace %s evicted by fast flood", tc.name, tc.id)
		}
	}

	// The index stays bounded and the counters saw everything. Poll:
	// the flood's last root span may still be finishing.
	deadline := time.Now().Add(10 * time.Second)
	var last trace.RouteSummary
	for time.Now().Before(deadline) {
		resp, err := http.Get(debug.URL + "/debug/traces")
		if err != nil {
			t.Fatal(err)
		}
		var index struct {
			Routes []trace.RouteSummary `json:"routes"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&index); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, rs := range index.Routes {
			if rs.Route == route {
				last = rs
			}
		}
		if last.Total == 52 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if last.Total != 52 {
		t.Errorf("route total = %d, want 52", last.Total)
	}
	if last.Slow < 1 || last.Errored != 1 {
		t.Errorf("slow/errored = %d/%d, want >=1/1", last.Slow, last.Errored)
	}
	if len(last.Recent) > ringSize || len(last.SlowTraces) > ringSize || len(last.ErrTraces) > ringSize {
		t.Errorf("ring overflow: recent=%d slow=%d err=%d", len(last.Recent), len(last.SlowTraces), len(last.ErrTraces))
	}
}

// authQuery returns the api_key query string in auth-on suite mode, for
// requests built without doJSON.
func authQuery() string {
	if testAuth {
		return "?api_key=" + testAdminKey
	}
	return ""
}

// TestTraceIDInErrorBody pins the correlation loop for failures: the
// error body carries the same trace id as the response header, which is
// exactly what /debug/traces/{trace_id} wants.
func TestTraceIDInErrorBody(t *testing.T) {
	_, ts, debug := traceServer(t, trace.Options{})
	req, err := http.NewRequest("GET", ts.URL+"/v1/sessions/cs_00dead", nil)
	if err != nil {
		t.Fatal(err)
	}
	if testAuth {
		req.Header.Set("Authorization", "Bearer "+testAdminKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	headerID := resp.Header.Get("X-Trace-ID")
	if headerID == "" || body["trace_id"] != headerID {
		t.Fatalf("trace_id body %q vs header %q, want equal and non-empty", body["trace_id"], headerID)
	}
	// Errored traces are retained regardless of latency.
	view, ok := pollTraceView(t, debug.URL, headerID)
	if !ok {
		t.Fatalf("errored trace %s not retained", headerID)
	}
	if !view.Errored || view.Root == nil || !view.Root.Failed {
		t.Fatalf("trace not marked errored: %+v", view)
	}
}

// TestTraceRouteCardinalityHTTP makes sure a path-scanning client
// cannot grow the recorder: unknown paths collapse to the "other"
// route before they reach the tracer.
func TestTraceRouteCardinalityHTTP(t *testing.T) {
	tracer, ts, _ := traceServer(t, trace.Options{})
	for i := 0; i < 20; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/scan/%d%s", ts.URL, i, authQuery()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		other, routes := 0, 0
		for _, rs := range tracer.Snapshot() {
			if rs.Route == "other" {
				other = rs.Total
			}
			routes++
		}
		if routes > 1 {
			t.Fatalf("scanning grew %d routes, want just other", routes)
		}
		if other == 20 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("other total = %d, want 20", other)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
