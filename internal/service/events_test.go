package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/goldrec/goldrec/internal/events"
	"github.com/goldrec/goldrec/internal/obs"
	"github.com/goldrec/goldrec/internal/obs/trace"
	"github.com/goldrec/goldrec/internal/store"
	"github.com/goldrec/goldrec/internal/tenant"
)

// ---------------------------------------------------------------------------
// SSE test client

// sseFrame is one parsed server-sent event. Comment lines (heartbeats)
// surface as frames with event "comment" so tests can await them.
type sseFrame struct {
	id    string
	event string
	data  string
}

type sseStream struct {
	resp   *http.Response
	frames chan sseFrame
}

// sseRequest issues a GET with Accept: text/event-stream and returns
// the raw response (callers assert on non-200 outcomes).
func sseRequest(t *testing.T, url, key, lastEventID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	} else if testAuth {
		req.Header.Set("Authorization", "Bearer "+testAdminKey)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// openSSE establishes a live SSE stream and starts a reader goroutine.
func openSSE(t *testing.T, url, key, lastEventID string) *sseStream {
	t.Helper()
	resp := sseRequest(t, url, key, lastEventID)
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var raw strings.Builder
		fmt.Fprintf(&raw, "%v", resp.Header)
		t.Fatalf("open sse %s: status %d (%s)", url, resp.StatusCode, raw.String())
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("sse content-type = %q", ct)
	}
	s := &sseStream{resp: resp, frames: make(chan sseFrame, 1024)}
	t.Cleanup(s.close)
	go s.read()
	return s
}

func (s *sseStream) read() {
	defer close(s.frames)
	sc := bufio.NewScanner(s.resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var f sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if f.event != "" || f.data != "" || f.id != "" {
				s.frames <- f
			}
			f = sseFrame{}
		case strings.HasPrefix(line, ":"):
			s.frames <- sseFrame{event: "comment", data: strings.TrimSpace(line[1:])}
		case strings.HasPrefix(line, "id: "):
			f.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			f.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			f.data = line[len("data: "):]
		}
	}
}

func (s *sseStream) close() { s.resp.Body.Close() }

// next returns the next non-comment frame, failing after the deadline.
func (s *sseStream) next(t *testing.T) sseFrame {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case f, ok := <-s.frames:
			if !ok {
				t.Fatal("sse stream closed while waiting for a frame")
			}
			if f.event == "comment" {
				continue
			}
			return f
		case <-deadline:
			t.Fatal("no sse frame within deadline")
		}
	}
}

// nextEvent decodes the next non-comment frame as an audit event and
// checks the SSE id line matches the event's seq.
func (s *sseStream) nextEvent(t *testing.T) events.Event {
	t.Helper()
	f := s.next(t)
	var e events.Event
	if err := json.Unmarshal([]byte(f.data), &e); err != nil {
		t.Fatalf("decoding sse data %q: %v", f.data, err)
	}
	if f.event != e.Type {
		t.Fatalf("sse event field %q != payload type %q", f.event, e.Type)
	}
	if e.Type != events.TypeGap && f.id != fmt.Sprintf("%d", e.Seq) {
		t.Fatalf("sse id %q != seq %d", f.id, e.Seq)
	}
	return e
}

// ---------------------------------------------------------------------------
// End-to-end: the full taxonomy over a live stream, resume, isolation

// TestEventsEndToEndSSE drives an upload→review→export flow as one
// tenant while a live SSE client follows the tenant's event stream:
// every flow event arrives in seq order with the emitting request's id
// and trace id, a disconnected client resumes via Last-Event-ID with
// no gaps, and a second tenant sees none of it.
func TestEventsEndToEndSSE(t *testing.T) {
	dir := t.TempDir()
	fsStore, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evlog, err := events.Open(events.Options{Store: fsStore})
	if err != nil {
		t.Fatal(err)
	}
	// Registered before newTenantServer so it runs after the service
	// closes (the service owns neither the store nor the log).
	t.Cleanup(func() {
		evlog.Close()
		fsStore.Close()
	})
	_, ts, reg := newTenantServer(t, Options{
		Store:    fsStore,
		Events:   evlog,
		Tracer:   trace.New(trace.Options{}),
		Prefetch: 2,
	}, nil)

	tenantA, keyA := mintTenant(t, reg, "alpha", tenant.Quotas{})
	_, keyB := mintTenant(t, reg, "beta", tenant.Quotas{})

	// Follow A's stream live from before the first event.
	live := openSSE(t, ts.URL+"/v1/events", keyA, "")

	// --- the flow, remembering each mutating request's ids ---
	var upload DatasetInfo
	status, hdr := keyedJSON(t, "POST", ts.URL+"/v1/datasets?name=flow&key=key", keyA, strings.NewReader(paperCSV), &upload)
	if status != http.StatusCreated {
		t.Fatalf("upload: status %d", status)
	}
	uploadReqID, uploadTraceID := hdr.Get("X-Request-ID"), hdr.Get("X-Trace-ID")

	sess := tenantOpenSession(t, ts.URL, keyA, upload.ID, "Name")

	// Review to exhaustion; collect the decide requests' ids in order.
	var decideReqIDs []string
	for {
		var page GroupPage
		status, _ := keyedJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID+"/groups?limit=1&wait=true", keyA, nil, &page)
		if status == http.StatusNoContent {
			continue
		}
		if status != http.StatusOK {
			t.Fatalf("groups: status %d", status)
		}
		if len(page.Groups) == 0 {
			if page.Status == StatusExhausted {
				break
			}
			continue
		}
		body := fmt.Sprintf(`{"group_id":%d,"decision":"approve"}`, page.Groups[0].ID)
		status, dh := keyedJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/decisions", keyA, strings.NewReader(body), nil)
		if status != http.StatusOK {
			t.Fatalf("decide: status %d", status)
		}
		decideReqIDs = append(decideReqIDs, dh.Get("X-Request-ID"))
	}
	if len(decideReqIDs) == 0 {
		t.Fatal("flow produced no decisions")
	}

	// A second session feeds the batched-ingest path: one batch with a
	// single decision still lands one batch.applied.
	sess2 := tenantOpenSession(t, ts.URL, keyA, upload.ID, "Address")
	g2 := tenantNextGroup(t, ts.URL, keyA, sess2.ID)
	batch := fmt.Sprintf(`{"decisions":[{"group_id":%d,"decision":"reject"}]}`, g2.ID)
	if status, _ := keyedJSON(t, "POST", ts.URL+"/v1/datasets/"+upload.ID+"/sessions/"+sess2.ID+"/decisions", keyA,
		strings.NewReader(batch), nil); status != http.StatusOK {
		t.Fatalf("batch decisions: status %d", status)
	}
	// Quiesce sess2 before the stream's tail is read: a full-buffer wait
	// returns only once its generator parks, so no group.ready of its
	// refill can land after lastSeq below.
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/sessions/"+sess2.ID+"/groups?limit=2&wait=true", keyA, nil, nil); status != http.StatusOK {
		t.Fatalf("quiesce sess2: status %d", status)
	}

	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/datasets/"+upload.ID+"/golden", keyA, nil, nil); status != http.StatusOK {
		t.Fatalf("golden export: status %d", status)
	}
	if status, _ := keyedJSON(t, "DELETE", ts.URL+"/v1/library", keyA, nil, nil); status != http.StatusNoContent && status != http.StatusOK {
		t.Fatalf("purge library: status %d", status)
	}

	// --- read the live stream until the purge event lands ---
	var got []events.Event
	for {
		e := live.nextEvent(t)
		got = append(got, e)
		if e.Type == events.TypeLibraryPurged {
			break
		}
	}

	// Seq strictly increasing, no gap markers, all scoped to A.
	for i, e := range got {
		if i > 0 && e.Seq != got[i-1].Seq+1 {
			t.Fatalf("event %d: seq %d after %d (want contiguous)", i, e.Seq, got[i-1].Seq)
		}
		if e.Type == events.TypeGap {
			t.Fatalf("unexpected gap marker at %d", i)
		}
		if e.Tenant != tenantA {
			t.Fatalf("event %d: tenant %q, want %q", i, e.Tenant, tenantA)
		}
		if e.Actor == "" {
			t.Fatalf("event %d (%s): empty actor on an authenticated stream", i, e.Type)
		}
	}

	// The first two events are fixed; the generator's group.ready
	// events interleave with decisions after that.
	if got[0].Type != events.TypeDatasetUploaded {
		t.Fatalf("first event = %s, want dataset.uploaded", got[0].Type)
	}
	if got[0].RequestID != uploadReqID || got[0].TraceID != uploadTraceID {
		t.Fatalf("dataset.uploaded ids = (%q,%q), response headers = (%q,%q)",
			got[0].RequestID, got[0].TraceID, uploadReqID, uploadTraceID)
	}
	if got[0].Dataset != upload.ID {
		t.Fatalf("dataset.uploaded dataset = %q, want %q", got[0].Dataset, upload.ID)
	}
	if got[1].Type != events.TypeSessionOpened || got[1].Session != sess.ID {
		t.Fatalf("second event = %s (%s), want session.opened for %s", got[1].Type, got[1].Session, sess.ID)
	}

	// Every decide request's id shows up on its decision.recorded, in
	// order.
	var recorded []events.Event
	seen := map[string]int{}
	for _, e := range got {
		seen[e.Type]++
		if e.Type == events.TypeDecisionRecorded && e.Session == sess.ID {
			recorded = append(recorded, e)
		}
	}
	if len(recorded) != len(decideReqIDs) {
		t.Fatalf("decision.recorded events = %d, decisions = %d", len(recorded), len(decideReqIDs))
	}
	for i, e := range recorded {
		if e.RequestID != decideReqIDs[i] {
			t.Fatalf("decision %d: request_id %q, want %q", i, e.RequestID, decideReqIDs[i])
		}
	}
	for _, want := range []string{
		events.TypeDatasetUploaded, events.TypeSessionOpened, events.TypeGroupReady,
		events.TypeDecisionRecorded, events.TypeLibraryTaught, events.TypeSessionCompacted,
		events.TypeBatchApplied, events.TypeExportCreated, events.TypeLibraryPurged,
	} {
		if seen[want] == 0 {
			t.Errorf("taxonomy event %s never arrived (saw %v)", want, seen)
		}
	}
	lastSeq := got[len(got)-1].Seq

	// --- Last-Event-ID resume: a reconnect from an early cursor gets
	// exactly the missed suffix, no gaps, no duplicates ---
	cursor := got[2].Seq
	resumed := openSSE(t, ts.URL+"/v1/events", keyA, fmt.Sprintf("%d", cursor))
	for want := cursor + 1; want <= lastSeq; want++ {
		e := resumed.nextEvent(t)
		if e.Seq != want {
			t.Fatalf("resume: got seq %d, want %d", e.Seq, want)
		}
		if orig := got[want-got[0].Seq]; e.Type != orig.Type || e.RequestID != orig.RequestID {
			t.Fatalf("resume seq %d: (%s,%q) != original (%s,%q)", want, e.Type, e.RequestID, orig.Type, orig.RequestID)
		}
	}
	resumed.close()

	// A fully disconnected client misses an event, then resumes: the
	// missed event is the first thing the new stream delivers.
	live.close()
	keyedJSON(t, "POST", ts.URL+"/v1/datasets?name=late&key=key", keyA, strings.NewReader(paperCSV), nil)
	rejoin := openSSE(t, ts.URL+"/v1/events", keyA, fmt.Sprintf("%d", lastSeq))
	if e := rejoin.nextEvent(t); e.Type != events.TypeDatasetUploaded || e.Seq != lastSeq+1 {
		t.Fatalf("rejoin: got %s seq %d, want dataset.uploaded seq %d", e.Type, e.Seq, lastSeq+1)
	}
	rejoin.close()

	// --- tenant isolation ---
	var page struct {
		Events  []events.Event `json:"events"`
		LastSeq uint64         `json:"last_seq"`
	}
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/events", keyB, nil, &page); status != http.StatusOK {
		t.Fatalf("catch-up as B: status %d", status)
	}
	if len(page.Events) != 0 || page.LastSeq != 0 {
		t.Fatalf("tenant B sees %d foreign events (last_seq %d)", len(page.Events), page.LastSeq)
	}
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/events?tenant="+tenantA, keyB, nil, nil); status != http.StatusNotFound {
		t.Fatalf("B naming A's stream: status %d, want 404", status)
	}
	resp := sseRequest(t, ts.URL+"/v1/events?tenant="+tenantA, keyB, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("B opening A's SSE stream: status %d, want 404", resp.StatusCode)
	}

	// Administrative events (tenant lifecycle) land on the unscoped
	// stream, visible to the admin key, not to tenants.
	var created TenantKeyResponse
	if status, _ := keyedJSON(t, "POST", ts.URL+"/v1/tenants", tenantTestAdminKey,
		strings.NewReader(`{"name":"gamma"}`), &created); status != http.StatusCreated {
		t.Fatalf("create tenant: status %d", status)
	}
	if status, _ := keyedJSON(t, "DELETE", ts.URL+"/v1/tenants/"+created.Tenant.ID, tenantTestAdminKey, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete tenant: status %d", status)
	}
	var adminPage struct {
		Events []events.Event `json:"events"`
	}
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/events", tenantTestAdminKey, nil, &adminPage); status != http.StatusOK {
		t.Fatalf("admin catch-up: status %d", status)
	}
	kinds := map[string]bool{}
	for _, e := range adminPage.Events {
		kinds[e.Type] = true
		if e.Actor != "admin" {
			t.Errorf("admin-stream event %s actor = %q, want admin", e.Type, e.Actor)
		}
	}
	if !kinds[events.TypeTenantCreated] || !kinds[events.TypeTenantDeleted] {
		t.Fatalf("admin stream kinds = %v, want tenant.created and tenant.deleted", kinds)
	}
}

// ---------------------------------------------------------------------------
// Catch-up polling, flags off, subscriber cap

func TestEventsCatchUpPolling(t *testing.T) {
	evlog, err := events.Open(events.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { evlog.Close() })
	_, ts := newTestServer(t, Options{Events: evlog, Prefetch: 2})

	ds := uploadPaperDataset(t, ts.URL)
	sess := openSession(t, ts.URL, ds.ID, "Name")
	g, ok := nextGroup(t, ts.URL, sess.ID)
	if !ok {
		t.Fatal("no group")
	}
	if _, status := decide(t, ts.URL, sess.ID, g.ID, "approve"); status != http.StatusOK {
		t.Fatalf("decide: status %d", status)
	}

	var page struct {
		Events  []events.Event `json:"events"`
		LastSeq uint64         `json:"last_seq"`
	}
	if status := doJSON(t, "GET", ts.URL+"/v1/events", nil, &page); status != http.StatusOK {
		t.Fatalf("catch-up: status %d", status)
	}
	if len(page.Events) < 3 {
		t.Fatalf("catch-up returned %d events, want at least upload/open/decide", len(page.Events))
	}
	if page.LastSeq != page.Events[len(page.Events)-1].Seq {
		t.Fatalf("last_seq %d != tail seq %d", page.LastSeq, page.Events[len(page.Events)-1].Seq)
	}

	// since+limit pages through the same sequence.
	var one struct {
		Events []events.Event `json:"events"`
	}
	if status := doJSON(t, "GET", ts.URL+"/v1/events?since=1&limit=1", nil, &one); status != http.StatusOK {
		t.Fatalf("paged catch-up: status %d", status)
	}
	if len(one.Events) != 1 || one.Events[0].Seq != 2 {
		t.Fatalf("since=1&limit=1 = %+v, want exactly seq 2", one.Events)
	}

	if status := doJSON(t, "GET", ts.URL+"/v1/events?since=nope", nil, nil); status != http.StatusBadRequest {
		t.Errorf("bad since: status %d, want 400", status)
	}
	if status := doJSON(t, "GET", ts.URL+"/v1/events?limit=-3", nil, nil); status != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", status)
	}
}

func TestEventsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if status := doJSON(t, "GET", ts.URL+"/v1/events", nil, nil); status != http.StatusNotFound {
		t.Fatalf("events disabled: status %d, want 404", status)
	}
}

func TestEventsSubscriberLimit(t *testing.T) {
	evlog, err := events.Open(events.Options{MaxSubscribers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { evlog.Close() })
	_, ts := newTestServer(t, Options{Events: evlog})

	first := openSSE(t, ts.URL+"/v1/events", "", "")
	defer first.close()

	resp := sseRequest(t, ts.URL+"/v1/events", "", "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second subscriber: status %d, want 429", resp.StatusCode)
	}
	var body struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "subscriber_limit" {
		t.Fatalf("error code = %q, want subscriber_limit", body.Code)
	}
}

// ---------------------------------------------------------------------------
// Durable resume across a restart

// TestEventsResumeAcrossRestart proves the durable log carries the
// stream across a process restart: a client's Last-Event-ID from the
// first incarnation replays the identical suffix from the second, and
// new emissions continue the sequence with no reuse and no gap.
func TestEventsResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*Service, *httptest.Server, *events.Log, *store.FS) {
		fsStore, err := store.OpenFS(dir, store.FSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		evlog, err := events.Open(events.Options{Store: fsStore})
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Options{Store: fsStore, Events: evlog, Prefetch: 2, Shards: testShards(t)})
		if _, _, err := svc.Recover(); err != nil {
			t.Fatal(err)
		}
		return svc, httptest.NewServer(svc.Handler()), evlog, fsStore
	}
	svc, ts, evlog, fsStore := boot()

	ds := uploadPaperDataset(t, ts.URL)
	sess := openSession(t, ts.URL, ds.ID, "Name")
	g, ok := nextGroup(t, ts.URL, sess.ID)
	if !ok {
		t.Fatal("no group")
	}
	if _, status := decide(t, ts.URL, sess.ID, g.ID, "approve"); status != http.StatusOK {
		t.Fatalf("decide: status %d", status)
	}

	var before struct {
		Events  []events.Event `json:"events"`
		LastSeq uint64         `json:"last_seq"`
	}
	if status := doJSON(t, "GET", ts.URL+"/v1/events", nil, &before); status != http.StatusOK {
		t.Fatalf("catch-up: status %d", status)
	}
	if len(before.Events) < 3 {
		t.Fatalf("only %d events before restart", len(before.Events))
	}

	ts.Close()
	svc.Close()
	evlog.Close()
	fsStore.Close()

	_, ts2, _, fsStore2 := boot()
	t.Cleanup(func() { fsStore2.Close() })
	// Registered before openSSE so the LIFO cleanups close the SSE
	// client first: an httptest server waits for open connections, and
	// a stream outliving it would deadlock a failing test.
	t.Cleanup(ts2.Close)

	// Resume from mid-sequence: the durable log replays the identical
	// suffix over SSE.
	cursor := before.Events[0].Seq
	resumed := openSSE(t, ts2.URL+"/v1/events", "", fmt.Sprintf("%d", cursor))
	for _, want := range before.Events[1:] {
		e := resumed.nextEvent(t)
		if e.Seq != want.Seq || e.Type != want.Type || e.RequestID != want.RequestID {
			t.Fatalf("replayed (%d,%s,%q), want (%d,%s,%q)", e.Seq, e.Type, e.RequestID, want.Seq, want.Type, want.RequestID)
		}
	}

	// New activity continues the sequence with no reuse and no gap.
	// The pre-restart session may still have emitted group.ready after
	// the catch-up snapshot, and the restored session's generator emits
	// fresh ones after recovery — so the upload's event need not be the
	// very next frame, but every frame must stay contiguous and the
	// upload must arrive.
	uploadPaperDataset(t, ts2.URL)
	seq := before.LastSeq
	for {
		e := resumed.nextEvent(t)
		if e.Seq != seq+1 {
			t.Fatalf("post-restart seq %d after %d, want contiguous", e.Seq, seq)
		}
		seq = e.Seq
		if e.Type == events.TypeDatasetUploaded {
			break
		}
	}
	resumed.close()
}

// ---------------------------------------------------------------------------
// Groups over SSE

// TestGroupsSSEStream reviews a session entirely over the push
// variant: each rev change delivers a fresh groups page, and the
// stream terminates with an "end" event once the session is exhausted
// and fully decided.
func TestGroupsSSEStream(t *testing.T) {
	_, ts := newTestServer(t, Options{Prefetch: 2})
	ds := uploadPaperDataset(t, ts.URL)
	sess := openSession(t, ts.URL, ds.ID, "Name")

	stream := openSSE(t, ts.URL+"/v1/sessions/"+sess.ID+"/groups?limit=8", "", "")
	decided := map[int]bool{}
	for {
		f := stream.next(t)
		if f.event == "end" {
			break
		}
		if f.event != "groups" {
			t.Fatalf("unexpected sse event %q", f.event)
		}
		var page GroupPage
		if err := json.Unmarshal([]byte(f.data), &page); err != nil {
			t.Fatalf("decoding groups page %q: %v", f.data, err)
		}
		for _, g := range page.Groups {
			if decided[g.ID] {
				continue
			}
			decided[g.ID] = true
			if _, status := decide(t, ts.URL, sess.ID, g.ID, "approve"); status != http.StatusOK {
				t.Fatalf("decide %d: status %d", g.ID, status)
			}
		}
	}
	if len(decided) == 0 {
		t.Fatal("stream ended without delivering any group")
	}

	// An unknown session keeps the JSON error envelope even when the
	// client asked for a stream.
	resp := sseRequest(t, ts.URL+"/v1/sessions/cs_feedbeef/groups", "", "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session sse: status %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("unknown session sse content-type = %q, want JSON error", ct)
	}
}

// ---------------------------------------------------------------------------
// Graceful shutdown under open streams

// drainCSV is big enough that candidate generation takes a while:
// long polls issued right after open park against an initializing
// session, which is exactly the state a drain must release.
func drainCSV() string {
	var b strings.Builder
	b.WriteString("key,Name\n")
	for i := 0; i < 1500; i++ {
		fmt.Fprintf(&b, "C%d,Alpha Beta %d\nC%d,A. Beta %d\n", i, i, i, i)
	}
	return b.String()
}

// TestShutdownDrainsStreams opens a live events stream, a groups
// stream and a held long poll, then begins a drain: both SSE streams
// must receive a close event and every request must return promptly —
// well inside the bounded drain deadline a real shutdown allows.
func TestShutdownDrainsStreams(t *testing.T) {
	evlog, err := events.Open(events.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { evlog.Close() })
	svc, ts := newTestServer(t, Options{Events: evlog, Prefetch: 2})

	var dsBig DatasetInfo
	if status := doJSON(t, "POST", ts.URL+"/v1/datasets?name=big&key=key", strings.NewReader(drainCSV()), &dsBig); status != http.StatusCreated {
		t.Fatalf("upload: status %d", status)
	}
	sessBig := openSession(t, ts.URL, dsBig.ID, "Name")

	eventsStream := openSSE(t, ts.URL+"/v1/events", "", "")
	groupsStream := openSSE(t, ts.URL+"/v1/sessions/"+sessBig.ID+"/groups?limit=1", "", "")

	pollDone := make(chan int, 1)
	go func() {
		status := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sessBig.ID+"/groups?limit=1&wait=30s", nil, nil)
		pollDone <- status
	}()
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	svc.BeginDrain()

	awaitClose := func(name string, s *sseStream) {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case f, ok := <-s.frames:
				if !ok {
					// Stream ended; the close event may race the groups
					// stream's own terminal "end"/"groups" frames.
					return
				}
				if f.event == "close" {
					return
				}
			case <-deadline:
				t.Fatalf("%s stream: no close within 5s of drain", name)
			}
		}
	}
	awaitClose("events", eventsStream)
	awaitClose("groups", groupsStream)

	select {
	case status := <-pollDone:
		if status != http.StatusOK && status != http.StatusNoContent {
			t.Fatalf("drained long poll: status %d", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll still held 5s after drain began")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %v", elapsed)
	}
}

// ---------------------------------------------------------------------------
// Stream latency lands in its own histogram

func TestStreamLatencyHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Options{Metrics: reg, Prefetch: 2})
	ds := uploadPaperDataset(t, ts.URL)
	sess := openSession(t, ts.URL, ds.ID, "Name")
	if _, ok := nextGroup(t, ts.URL, sess.ID); !ok {
		t.Fatal("no group")
	}

	streamCount, plainGroupsCount := int64(0), int64(0)
	for _, s := range reg.Snapshot() {
		route := ""
		for i, l := range s.Labels {
			if l == "route" {
				route = s.Values[i]
			}
		}
		if route != "/v1/sessions/{id}/groups" {
			continue
		}
		switch s.Name {
		case "goldrec_http_stream_seconds":
			streamCount += s.Count
		case "goldrec_http_request_seconds":
			plainGroupsCount += s.Count
		}
	}
	if streamCount == 0 {
		t.Fatal("wait= long poll recorded no goldrec_http_stream_seconds sample")
	}
	if plainGroupsCount != 0 {
		t.Fatalf("wait= long poll leaked %d samples into goldrec_http_request_seconds", plainGroupsCount)
	}
}
