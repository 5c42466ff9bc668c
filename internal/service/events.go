package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/goldrec/goldrec/internal/events"
)

// This file wires the audit/event log (internal/events) into the HTTP
// service: every mutating handler emits a taxonomy event through
// emitEvent, and GET /v1/events exposes the per-tenant stream — JSON
// catch-up by default, live SSE when the client asks for
// text/event-stream. The groups endpoint gains the same SSE treatment:
// Accept: text/event-stream on .../groups turns the long poll into a
// push stream fed by the session's rev counter.

// defaultSSEHeartbeat is the comment-ping cadence keeping idle SSE
// connections alive through proxies that reap silent ones.
const defaultSSEHeartbeat = 15 * time.Second

// defaultEventsLimit bounds a catch-up GET /v1/events page when the
// client names no limit; maxEventsLimit caps an explicit one.
const (
	defaultEventsLimit = 256
	maxEventsLimit     = 1024
)

// emitEvent records one audit event, filling the actor from the
// request's principal. A nil event log (events disabled) makes this a
// no-op, so call sites never guard.
func (s *Service) emitEvent(ctx context.Context, e events.Event) {
	if s.events == nil {
		return
	}
	if e.Actor == "" {
		e.Actor = actorFrom(ctx)
	}
	s.events.Emit(ctx, e)
}

// actorFrom names the authenticated identity behind a context for the
// audit log: the admin key reads as "admin", a tenant key as its key
// id (never the key itself), open mode as "".
func actorFrom(ctx context.Context) string {
	p, ok := ctx.Value(principalCtxKey{}).(principal)
	if !ok {
		return ""
	}
	if p.admin {
		return "admin"
	}
	return p.keyID
}

// wantsSSE reports whether the client asked for a live event stream.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// eventsStreamFor resolves which tenant's event stream a request may
// read. A tenant key is pinned to its own stream — naming any other
// tenant reads as 404, exactly like foreign dataset ids. Admin and
// open mode pick a stream with ?tenant= and default to the unscoped
// ("") stream, where administrative events land.
func (s *Service) eventsStreamFor(r *http.Request) (string, error) {
	p := principalFrom(r)
	want := r.URL.Query().Get("tenant")
	if p.tenant != "" {
		if want != "" && want != p.tenant {
			return "", fmt.Errorf("tenant %s: %w", want, ErrNotFound)
		}
		return p.tenant, nil
	}
	return want, nil
}

// parseSince extracts the resume cursor: ?since=<seq> wins, then the
// SSE Last-Event-ID header a reconnecting EventSource sends.
func parseSince(r *http.Request) (uint64, error) {
	v := r.URL.Query().Get("since")
	if v == "" {
		v = r.Header.Get("Last-Event-ID")
	}
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad since %q (want an event seq)", v)
	}
	return n, nil
}

// handleEvents serves GET /v1/events: without Accept: text/event-stream
// a JSON catch-up page ({"events": [...], "last_seq": N}), with it a
// live SSE stream that first replays everything after the client's
// cursor from the durable log and then follows the bus.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.events == nil {
		writeError(w, fmt.Errorf("event log disabled: %w", ErrNotFound))
		return
	}
	stream, err := s.eventsStreamFor(r)
	if err != nil {
		writeError(w, err)
		return
	}
	since, err := parseSince(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if !wantsSSE(r) {
		limit := defaultEventsLimit
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				writeError(w, fmt.Errorf("bad limit %q", v))
				return
			}
			limit = min(n, maxEventsLimit)
		}
		evs, err := s.events.EventsSince(stream, since, limit)
		if err != nil {
			writeError(w, fmt.Errorf("%w: reading event log: %v", ErrStorage, err))
			return
		}
		if evs == nil {
			evs = []events.Event{}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"events":   evs,
			"last_seq": s.events.LastSeq(stream),
		})
		return
	}
	s.serveEventsSSE(w, r, stream, since)
}

// serveEventsSSE streams a tenant's events live. Subscribe happens
// before the backlog replay so nothing falls between replay and
// follow: events emitted during replay arrive buffered on the channel
// and the seq filter drops the overlap.
func (s *Service) serveEventsSSE(w http.ResponseWriter, r *http.Request, stream string, since uint64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, fmt.Errorf("streaming unsupported by connection"))
		return
	}
	sub, err := s.events.Subscribe(stream)
	if err != nil {
		writeError(w, err)
		return
	}
	defer sub.Close()

	backlog, err := s.events.EventsSince(stream, since, 0)
	if err != nil {
		writeError(w, fmt.Errorf("%w: reading event log: %v", ErrStorage, err))
		return
	}
	sseHeaders(w)
	lastSent := since
	for _, e := range backlog {
		writeSSEEvent(w, e)
		lastSent = e.Seq
	}
	flusher.Flush()

	hb := s.clock.NewTicker(s.sseHeartbeat())
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.drain:
			// Graceful shutdown: tell the client this is a server-side
			// close (reconnect elsewhere), not a network fault.
			io.WriteString(w, "event: close\ndata: {}\n\n")
			flusher.Flush()
			return
		case <-hb.C():
			io.WriteString(w, ": hb\n\n")
			flusher.Flush()
		case e, ok := <-sub.C():
			if !ok {
				return
			}
			// Events already sent from the backlog replay overlap the
			// subscription's buffer; drop them by seq. Gap markers carry
			// seq 0 and always go through.
			if e.Seq > 0 && e.Seq <= lastSent {
				continue
			}
			writeSSEEvent(w, e)
			if e.Seq > lastSent {
				lastSent = e.Seq
			}
			// Drain whatever else is buffered before flushing once.
			for more := true; more; {
				select {
				case e, ok := <-sub.C():
					if !ok {
						more = false
						break
					}
					if e.Seq > 0 && e.Seq <= lastSent {
						continue
					}
					writeSSEEvent(w, e)
					if e.Seq > lastSent {
						lastSent = e.Seq
					}
				default:
					more = false
				}
			}
			flusher.Flush()
		}
	}
}

// sseHeaders commits the response to the SSE content type. No
// Content-Length, no caching, and an explicit hint for buffering
// reverse proxies.
func sseHeaders(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
}

// writeSSEEvent renders one event in SSE wire format. Real events
// carry their seq as the SSE id — the cursor Last-Event-ID echoes
// back. Gap markers (seq 0) carry no id: resuming from a gap marker
// would skip the very events it reports dropped.
func writeSSEEvent(w io.Writer, e events.Event) {
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	if e.Seq > 0 {
		fmt.Fprintf(w, "id: %d\n", e.Seq)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
}

func (s *Service) sseHeartbeat() time.Duration {
	if s.opts.SSEHeartbeat > 0 {
		return s.opts.SSEHeartbeat
	}
	return defaultSSEHeartbeat
}

// serveGroupsSSE is the push variant of the groups long poll: one
// "groups" event per observable session change (new group buffered,
// decision freeing a slot, status flip), driven by the session's rev
// counter, with heartbeat comments in between. The stream ends with
// an "end" event when the session reaches a terminal page (exhausted,
// nothing pending) or disappears, and a "close" event on graceful
// shutdown.
func (s *Service) serveGroupsSSE(w http.ResponseWriter, r *http.Request, owner, datasetID, id string, limit int) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, fmt.Errorf("streaming unsupported by connection"))
		return
	}
	// First page before committing to the stream content type, so an
	// unknown session still gets the JSON error envelope.
	page, rev, err := s.waitPage(owner, datasetID, id, limit, nil, nil)
	if err != nil {
		writeError(w, err)
		return
	}
	sseHeaders(w)
	if done := writeGroupsSSEPage(w, page); done {
		flusher.Flush()
		return
	}
	flusher.Flush()

	hb := s.clock.NewTicker(s.sseHeartbeat())
	defer hb.Stop()
	for {
		// One round: wait for the rev to move, bounded by heartbeat
		// cadence, client disconnect and server drain. The stop channel
		// releases the watcher when the rev moves first.
		round := make(chan struct{})
		stop := make(chan struct{})
		go func() {
			defer close(round)
			select {
			case <-hb.C():
			case <-r.Context().Done():
			case <-s.drain:
			case <-stop:
			}
		}()
		page, newRev, err := s.waitPage(owner, datasetID, id, limit, round,
			func(cs *columnSession) bool { return cs.rev != rev })
		close(stop)
		if r.Context().Err() != nil {
			return
		}
		if chanClosed(s.drain) {
			io.WriteString(w, "event: close\ndata: {}\n\n")
			flusher.Flush()
			return
		}
		if err != nil {
			// Session deleted mid-stream: terminal for this watcher.
			io.WriteString(w, "event: end\ndata: {}\n\n")
			flusher.Flush()
			return
		}
		if newRev == rev {
			io.WriteString(w, ": hb\n\n")
			flusher.Flush()
			continue
		}
		rev = newRev
		if done := writeGroupsSSEPage(w, page); done {
			flusher.Flush()
			return
		}
		flusher.Flush()
	}
}

// writeGroupsSSEPage emits one "groups" event and, when the page is
// terminal (exhausted or stalled with nothing left to review), an
// "end" event. Returns true when the stream should close.
func writeGroupsSSEPage(w io.Writer, page GroupPage) bool {
	data, err := json.Marshal(page)
	if err != nil {
		return true
	}
	fmt.Fprintf(w, "event: groups\ndata: %s\n\n", data)
	if page.Status == StatusExhausted && page.Pending == 0 {
		io.WriteString(w, "event: end\ndata: {}\n\n")
		return true
	}
	return false
}
