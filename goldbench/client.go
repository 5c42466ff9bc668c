package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Route names label the benchmark's own accounting and spans; each
// maps to one normalized goldrecd route label (serverRoute).
const (
	rUpload      = "upload"
	rOpen        = "open"
	rGroups      = "groups"
	rDecide      = "decide"
	rDecideBatch = "decide_batch"
	rPlan        = "plan"
	rEvents      = "events"
	rExport      = "export"
	rState       = "state"
	rSession     = "session"
	rSessions    = "sessions"
	rScrape      = "scrape"
)

// timedRoutes are the routes reported per layer (service.<route>.*).
var timedRoutes = []string{rUpload, rOpen, rGroups, rDecide, rDecideBatch, rPlan, rEvents, rExport}

// serverRoute is the goldrecd route label each benchmark route lands
// on in goldrec_http_request_seconds / goldrec_http_stream_seconds.
var serverRoute = map[string][]string{
	rUpload:      {"/v1/datasets"},
	rOpen:        {"/v1/datasets/{id}/sessions"},
	rGroups:      {"/v1/sessions/{id}/groups", "/v1/datasets/{id}/sessions/{id}/groups"},
	rDecide:      {"/v1/sessions/{id}/decisions"},
	rDecideBatch: {"/v1/datasets/{id}/sessions/{id}/decisions"},
	rPlan:        {"/v1/datasets/{id}/plan", "/v1/plan"},
	rEvents:      {"/v1/events"},
	rExport:      {"/v1/datasets/{id}/records", "/v1/datasets/{id}/golden"},
}

// span is one timed call, recorded only on traced runs. Spans of one
// HTTP call share ID with the server's X-Request-ID, its log line and
// its /debug/traces entry.
type span struct {
	ID     string  `json:"id"`
	Parent string  `json:"parent,omitempty"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the recorder's epoch
	Dur    float64 `json:"dur_ms"`
	Status int     `json:"status,omitempty"`
}

// recorder keeps spans in memory; they are written once, at exit. A nil
// recorder records nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  atomic.Int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) newID(prefix string) string {
	return fmt.Sprintf("%s.%06d", prefix, r.next.Add(1))
}

func (r *recorder) add(sp span, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	sp.Start = float64(start.Sub(r.epoch)) / float64(time.Millisecond)
	sp.Dur = float64(dur) / float64(time.Millisecond)
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// time runs fn as a span of the given layer and returns its duration.
func (r *recorder) time(layer, name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if r != nil {
		r.add(span{ID: r.newID("bench"), Parent: parent, Layer: layer, Name: name}, start, d)
	}
	return d
}

// accounting counts attempted and failed requests per route.
type accounting struct {
	mu      sync.Mutex
	tried   map[string]int
	failed  map[string]int
	latency map[string][]float64 // client ms of successful calls
}

func newAccounting() *accounting {
	return &accounting{tried: map[string]int{}, failed: map[string]int{}, latency: map[string][]float64{}}
}

func (a *accounting) note(route string, ok bool, ms float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tried[route]++
	if !ok {
		a.failed[route]++
		return
	}
	a.latency[route] = append(a.latency[route], ms)
}

// merge adds o's counts and samples to a.
func (a *accounting) merge(o *accounting) {
	o.mu.Lock()
	defer o.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	for r, n := range o.tried {
		a.tried[r] += n
	}
	for r, n := range o.failed {
		a.failed[r] += n
	}
	for r, xs := range o.latency {
		a.latency[r] = append(a.latency[r], xs...)
	}
}

func (a *accounting) totals() (tried, failed int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, n := range a.tried {
		tried += n
	}
	for _, n := range a.failed {
		failed += n
	}
	return tried, failed
}

func (a *accounting) samples(route string) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]float64(nil), a.latency[route]...)
}

func (a *accounting) routes() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []string
	for r := range a.tried {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// client talks to one goldrecd over loopback HTTP. Every call is
// counted per route; on traced runs every call is also a span whose id
// the server echoes as X-Request-ID.
type client struct {
	base string
	hc   *http.Client
	acc  *accounting
	rec  *recorder // nil on untraced runs
	seq  atomic.Int64
}

func newClient(base string, acc *accounting, rec *recorder) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4, MaxConnsPerHost: 4}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, acc: acc, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is one completed call.
type response struct {
	status int
	body   []byte
	dur    time.Duration
	at     time.Time // when the response body was fully read
}

// do issues one request. ok204 marks a long poll, whose 204 answer is a
// timeout, not a failure; every other non-2xx status is an error and
// counts as failed.
func (c *client) do(ctx context.Context, route, method, path string, body []byte, ok204 bool) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return response{}, err
	}
	id := fmt.Sprintf("gb-%s.%06d", route, c.seq.Add(1))
	req.Header.Set("X-Request-ID", id)
	start := time.Now()
	resp, err := c.hc.Do(req)
	var data []byte
	status := 0
	if err == nil {
		status = resp.StatusCode
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	dur := time.Since(start)
	out := response{status: status, body: data, dur: dur, at: time.Now()}
	ok := err == nil && status >= 200 && status < 300 && (ok204 || status != http.StatusNoContent)
	if err == nil && !ok {
		err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, status, bytes.TrimSpace(data))
	}
	c.acc.note(route, err == nil, ms(dur))
	if c.rec != nil {
		c.rec.add(span{ID: id, Layer: "service", Name: route, Status: status}, start, dur)
	}
	return out, err
}

// getJSON issues a GET and decodes a 200 body into v.
func (c *client) getJSON(ctx context.Context, route, path string, v any) (response, error) {
	r, err := c.do(ctx, route, http.MethodGet, path, nil, false)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(r.body, v)
}

// postJSON posts in as JSON and decodes the 2xx body into out.
func (c *client) postJSON(ctx context.Context, route, path string, in, out any) (response, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return response{}, err
	}
	r, err := c.do(ctx, route, http.MethodPost, path, body, false)
	if err != nil {
		return r, err
	}
	if out == nil {
		return r, nil
	}
	return r, json.Unmarshal(r.body, out)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
