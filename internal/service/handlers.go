package service

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/events"
)

// maxWait bounds how long a wait=true group fetch may block, so a
// long-polling client with no server-side progress eventually gets an
// empty page back instead of an idle-timeout error.
const maxWait = 25 * time.Second

// maxLongPoll caps an explicit wait=<duration> long poll. Durations
// above it are clamped, not rejected — a client asking for wait=5m
// gets the longest poll the server is willing to hold.
const maxLongPoll = 60 * time.Second

// Handler returns the service's HTTP API:
//
//	GET    /healthz
//	GET    /v1/metrics
//	POST   /v1/datasets?name=N&key=K&source=S   (body: clustered CSV)
//	GET    /v1/datasets
//	GET    /v1/datasets/{id}
//	DELETE /v1/datasets/{id}
//	GET    /v1/datasets/{id}/records?format=json|csv
//	GET    /v1/datasets/{id}/golden?format=json|csv
//	POST   /v1/datasets/{id}/sessions           (body: {"column": ...})
//	GET    /v1/sessions
//	GET    /v1/sessions/{id}
//	DELETE /v1/sessions/{id}
//	GET    /v1/sessions/{id}/groups?limit=N&wait=true|30s
//	GET    /v1/sessions/{id}/state
//	POST   /v1/sessions/{id}/decisions          (body: DecisionRequest)
//	GET    /v1/datasets/{id}/sessions/{sid}/groups?limit=N&wait=30s
//	POST   /v1/datasets/{id}/sessions/{sid}/decisions (body: BatchDecisionsRequest)
//	GET    /v1/plan?budget=N
//	GET    /v1/datasets/{id}/plan?budget=N
//	GET    /v1/library
//	DELETE /v1/library
//	GET    /v1/events?since=N&limit=N&tenant=T    (SSE with Accept: text/event-stream)
//
// The groups endpoints double as push streams: Accept:
// text/event-stream turns the long poll into an SSE stream of "groups"
// events (see serveGroupsSSE); both wait through waitPage. The
// single-decision route is a batch of one on the batch route's path
// (decideGroups) that only leaves out the batch.applied event. The
// dataset-scoped routes answer 404 for a session of another dataset
// before touching or restoring anything.
//
// Errors share one envelope: {"error", "code", "request_id",
// "trace_id"} — code is a stable machine-readable slug (see errorCode),
// error the human-readable detail.
//
// With multi-tenancy enabled (Options.Tenants) the /v1/tenants admin
// API is mounted too (see registerTenantAPI), every /v1 request must
// authenticate, and each data endpoint serves the caller's scope: a
// tenant key sees only that tenant's datasets and sessions, the admin
// key and open mode see everything.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Pure liveness: answers 200 whenever the process serves HTTP,
		// even before recovery finishes. Readiness is /readyz.
		body := map[string]string{"status": "ok"}
		if s.opts.BuildInfo.Version != "" {
			body["version"] = s.opts.BuildInfo.Version
		}
		if s.opts.BuildInfo.Commit != "" {
			body["commit"] = s.opts.BuildInfo.Commit
		}
		writeJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics/prometheus", s.adminOnly(s.handlePrometheus))
	mux.HandleFunc("POST /v1/datasets", s.handleCreateDataset)
	mux.HandleFunc("GET /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"datasets": s.scope(r).ListDatasets()})
	})
	mux.HandleFunc("GET /v1/datasets/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.scope(r).GetDataset(r.PathValue("id"))
		respond(w, info, err)
	})
	mux.HandleFunc("DELETE /v1/datasets/{id}", func(w http.ResponseWriter, r *http.Request) {
		respondNoContent(w, s.scope(r).DeleteDataset(r.PathValue("id")))
	})
	mux.HandleFunc("GET /v1/datasets/{id}/records", func(w http.ResponseWriter, r *http.Request) {
		s.handleExport(w, r, false)
	})
	mux.HandleFunc("GET /v1/datasets/{id}/golden", func(w http.ResponseWriter, r *http.Request) {
		s.handleExport(w, r, true)
	})
	mux.HandleFunc("POST /v1/datasets/{id}/sessions", s.handleOpenSession)
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"sessions": s.scope(r).ListSessions()})
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.scope(r).GetSession(r.PathValue("id"))
		respond(w, info, err)
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		respondNoContent(w, s.scope(r).DeleteSession(r.PathValue("id")))
	})
	mux.HandleFunc("GET /v1/sessions/{id}/groups", s.handleGroups)
	mux.HandleFunc("GET /v1/sessions/{id}/state", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.scope(r).ReviewState(r.PathValue("id"))
		respond(w, st, err)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/decisions", s.handleDecision)
	mux.HandleFunc("GET /v1/datasets/{id}/sessions/{sid}/groups", s.handleGroups)
	mux.HandleFunc("POST /v1/datasets/{id}/sessions/{sid}/decisions", s.handleBatchDecisions)
	mux.HandleFunc("GET /v1/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/datasets/{id}/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/library", s.handleLibrary)
	mux.HandleFunc("DELETE /v1/library", s.handleLibrary)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	if s.opts.Tenants != nil {
		s.registerTenantAPI(mux)
	}
	return s.instrument(mux)
}

// handlePlan serves the budget planner: with a path id it plans one
// dataset, without it plans across every live session. budget is
// required and must be a positive integer.
func (s *Service) handlePlan(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query().Get("budget")
	budget, err := strconv.Atoi(v)
	if err != nil || budget <= 0 {
		writeError(w, fmt.Errorf("budget must be a positive integer, got %q", v))
		return
	}
	if id := r.PathValue("id"); id != "" {
		plan, err := s.scope(r).PlanDataset(id, budget)
		respond(w, plan, err)
		return
	}
	plan, err := s.scope(r).Plan(budget)
	respond(w, plan, err)
}

// countingReader tallies the bytes the CSV parser actually consumed —
// the per-tenant upload accounting.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *Service) handleCreateDataset(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sc := s.scope(r)
	var body io.Reader = r.Body
	// The effective cap is the stricter of the service-wide flag and the
	// tenant's MaxUploadBytes quota. The CSV is parsed row by row
	// (table.CSVReader), so the cap on the raw body is the only memory
	// bound the handler needs.
	if limit := s.uploadLimitFor(sc.Owner()); limit > 0 {
		body = http.MaxBytesReader(w, r.Body, limit)
	}
	counted := &countingReader{r: body}
	info, err := sc.CreateDataset(q.Get("name"), q.Get("key"), q.Get("source"), counted)
	s.metrics.addUploadBytes(sc.Owner(), counted.n)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Service) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	var req OpenSessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	info, err := s.scope(r).OpenSession(r.PathValue("id"), req.Column)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// parseWait interprets the wait query parameter. "1"/"true" keep the
// original semantics (block up to maxWait, always answer 200 with a
// page, possibly empty). A duration like "30s" is an explicit long
// poll: block up to that long (clamped to maxLongPoll), and a timeout
// with still nothing to review answers 204 No Content — the cheap
// "nothing yet, ask again" signal that replaces busy-polling.
func parseWait(v string) (d time.Duration, longPoll bool, err error) {
	if v == "1" || v == "true" {
		return maxWait, false, nil
	}
	d, perr := time.ParseDuration(v)
	if perr != nil || d <= 0 {
		return 0, false, fmt.Errorf("bad wait %q (use true or a positive duration like 30s)", v)
	}
	if d > maxLongPoll {
		d = maxLongPoll
	}
	return d, true, nil
}

// handleGroups serves both the session route (/v1/sessions/{id}/groups)
// and the dataset-scoped route (/v1/datasets/{id}/sessions/{sid}/groups).
func (s *Service) handleGroups(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	datasetID, id := "", r.PathValue("id")
	if sid := r.PathValue("sid"); sid != "" {
		datasetID, id = id, sid
	}
	sc := s.scope(r)
	if wantsSSE(r) {
		s.serveGroupsSSE(w, r, sc, datasetID, id, limit)
		return
	}
	var wait <-chan struct{}
	longPoll := false
	if v := q.Get("wait"); v != "" {
		d, lp, err := parseWait(v)
		if err != nil {
			writeError(w, err)
			return
		}
		longPoll = lp
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		wait = ctx.Done()
	}
	page, _, _, err := sc.waitPage(datasetID, id, limit, wait)
	if err != nil {
		writeError(w, err)
		return
	}
	// A long poll that timed out with nothing reviewable — and the
	// session still working — is 204, not an empty page: the client
	// just re-issues the request. Exhausted/stalled sessions return
	// the page so the caller sees the terminal status.
	if longPoll && len(page.Groups) == 0 &&
		(page.Status == StatusReviewing || page.Status == StatusInitializing) {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, page)
}

// handleBatchDecisions is the batched ingest endpoint: many decisions,
// validated whole, applied under one WAL group commit.
func (s *Service) handleBatchDecisions(w http.ResponseWriter, r *http.Request) {
	var req BatchDecisionsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	res, err := s.scope(r).DecideBatch(r.PathValue("id"), r.PathValue("sid"), req.Decisions)
	respond(w, res, err)
}

func (s *Service) handleDecision(w http.ResponseWriter, r *http.Request) {
	var req DecisionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	dec, err := goldrec.ParseDecision(req.Decision)
	if err != nil {
		writeError(w, err)
		return
	}
	if dec == goldrec.Pending {
		writeError(w, fmt.Errorf("decision must be approve, approve-backward or reject"))
		return
	}
	res, err := s.scope(r).Decide(r.PathValue("id"), req.GroupID, dec)
	respond(w, res, err)
}

func (s *Service) handleExport(w http.ResponseWriter, r *http.Request, golden bool) {
	data, err := s.scope(r).Export(r.PathValue("id"), golden)
	if err != nil {
		writeError(w, err)
		return
	}
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		cw := csv.NewWriter(w)
		cw.Write(append([]string{data.KeyCol}, data.Attrs...))
		for _, rec := range data.Records {
			cw.Write(append([]string{rec.Key}, rec.Values...))
		}
		cw.Flush()
		return
	}
	writeJSON(w, http.StatusOK, data)
}

// respond writes v on success and maps service errors to statuses.
func respond(w http.ResponseWriter, v any, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func respondNoContent(w http.ResponseWriter, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// errorCode maps an error to the envelope's stable machine-readable
// slug and HTTP status. The slugs are API surface: clients branch on
// code, never on the human-readable error text.
func errorCode(err error) (status int, code string) {
	var tooLarge *http.MaxBytesError
	var rateLimited *RateLimitError
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, ErrConflict):
		return http.StatusConflict, "conflict"
	case errors.Is(err, ErrLimit):
		return http.StatusTooManyRequests, "session_limit"
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, "service_closed"
	case errors.Is(err, ErrStorage):
		return http.StatusInternalServerError, "storage_failure"
	case errors.Is(err, ErrUnauthorized):
		return http.StatusUnauthorized, "unauthorized"
	case errors.Is(err, ErrForbidden):
		return http.StatusForbidden, "forbidden"
	case errors.Is(err, ErrQuota):
		return http.StatusForbidden, "quota_exceeded"
	case errors.Is(err, events.ErrSubscriberLimit):
		return http.StatusTooManyRequests, "subscriber_limit"
	case errors.As(err, &rateLimited):
		return http.StatusTooManyRequests, "rate_limited"
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, "payload_too_large"
	}
	return http.StatusBadRequest, "bad_request"
}

// writeError renders every handler failure as the one documented
// envelope: {"error", "code", "request_id", "trace_id"}.
func writeError(w http.ResponseWriter, err error) {
	status, code := errorCode(err)
	var rateLimited *RateLimitError
	if errors.As(err, &rateLimited) {
		// Retry-After is whole seconds, rounded up so the client never
		// retries into a still-empty bucket.
		secs := int64((rateLimited.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	body := map[string]string{"error": err.Error(), "code": code}
	// The middleware stamps X-Request-ID (and X-Trace-ID when tracing
	// is on) on the response before the handler runs; echoing them in
	// the body lets clients quote the ids when reporting a failure —
	// the trace id leads straight to /debug/traces/{trace_id}.
	if id := w.Header().Get("X-Request-ID"); id != "" {
		body["request_id"] = id
	}
	if id := w.Header().Get("X-Trace-ID"); id != "" {
		body["trace_id"] = id
	}
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
