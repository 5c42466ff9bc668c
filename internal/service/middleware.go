package service

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"time"

	"github.com/goldrec/goldrec/internal/obs"
	"github.com/goldrec/goldrec/internal/obs/trace"
)

// isIDSegment reports whether a path segment is a registry or tenant
// id ("ds_9f86...", "cs_...", "tn_..."): lowercase letters, one
// underscore, hex digits. Hand-rolled — this runs on every request.
func isIDSegment(s string) bool {
	i := 0
	for i < len(s) && s[i] >= 'a' && s[i] <= 'z' {
		i++
	}
	if i == 0 || i >= len(s)-1 || s[i] != '_' {
		return false
	}
	for i++; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// knownRoutes is the closed set of normalized route labels; anything
// else collapses to "other" so a path-scanning client cannot grow the
// metric label space.
var knownRoutes = map[string]bool{
	"/healthz":                                  true,
	"/readyz":                                   true,
	"/v1/metrics":                               true,
	"/metrics/prometheus":                       true,
	"/v1/datasets":                              true,
	"/v1/datasets/{id}":                         true,
	"/v1/datasets/{id}/records":                 true,
	"/v1/datasets/{id}/golden":                  true,
	"/v1/datasets/{id}/sessions":                true,
	"/v1/datasets/{id}/sessions/{id}/groups":    true,
	"/v1/datasets/{id}/sessions/{id}/decisions": true,
	"/v1/datasets/{id}/plan":                    true,
	"/v1/sessions":                              true,
	"/v1/sessions/{id}":                         true,
	"/v1/sessions/{id}/groups":                  true,
	"/v1/sessions/{id}/state":                   true,
	"/v1/sessions/{id}/decisions":               true,
	"/v1/plan":                                  true,
	"/v1/library":                               true,
	"/v1/events":                                true,
	"/v1/tenants":                               true,
	"/v1/tenants/{id}":                          true,
	"/v1/tenants/{id}/keys":                     true,
	"/v1/tenants/{id}/quotas":                   true,
}

// normalizeRoute maps a request path to a bounded route label: id
// segments become "{id}", and unknown shapes become "other".
func normalizeRoute(path string) string {
	route := path
	if strings.Contains(path, "_") {
		segs := strings.Split(path, "/")
		for i, seg := range segs {
			if isIDSegment(seg) {
				segs[i] = "{id}"
			}
		}
		route = strings.Join(segs, "/")
	}
	if !knownRoutes[route] {
		return "other"
	}
	return route
}

// requestIDPattern is what an inbound X-Request-ID must look like to be
// propagated instead of replaced (bounded, header- and log-safe).
var requestIDPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// requestID returns the request's id: the caller's X-Request-ID when
// sane, else a fresh "req_" + 64 random bits. The generator is
// math/rand/v2 (randomly seeded per process), not crypto/rand: ids are
// correlation handles, not secrets, and a syscall per request would
// dominate cheap endpoints.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" && requestIDPattern.MatchString(id) {
		return id
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rand.Uint64())
	return "req_" + hex.EncodeToString(b[:])
}

// openPath reports whether the path stays open with auth enabled: the
// liveness and readiness probes must work for orchestrators that hold
// no credentials.
func openPath(path string) bool {
	return path == "/healthz" || path == "/readyz"
}

// statusRecorder captures the response status and byte count for the
// request log and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (rec *statusRecorder) WriteHeader(code int) {
	rec.status = code
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(p []byte) (int, error) {
	n, err := rec.ResponseWriter.Write(p)
	rec.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so long-polling responses
// still stream.
func (rec *statusRecorder) Flush() {
	if f, ok := rec.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument is the outermost HTTP layer: it assigns (or propagates)
// the request id into the response headers and log context, opens the
// request's root trace span (continuing an inbound W3C traceparent),
// normalizes the route, authenticates the request when multi-tenancy is
// on (the health probes stay open), attributes the request to its
// tenant, records the per-route/per-status counters and latency
// histogram, and emits one structured log line per request with
// credentials redacted — plus a WARN line with the span breakdown when
// the request crosses the route's slow threshold. Unauthenticated
// rejections never reach the mux.
func (s *Service) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := requestID(r)
		w.Header().Set("X-Request-ID", reqID)
		route := normalizeRoute(r.URL.Path)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}

		var p principal
		authFailed := error(nil)
		if s.opts.Tenants != nil && !openPath(r.URL.Path) {
			p, authFailed = s.authenticate(r)
		}
		ctx := r.Context()
		var root *trace.Span
		if s.tracer != nil {
			ctx, root = s.tracer.StartRoot(ctx, r.Method+" "+route, route, r.Header.Get("traceparent"))
			// Echo the ids so the caller (and the next hop) can fetch
			// the trace from /debug/traces/{trace_id}.
			w.Header().Set("X-Trace-ID", root.TraceID())
			w.Header().Set("traceparent", root.Traceparent())
		}
		info := obs.RequestInfo{ID: reqID, Tenant: p.tenant, Route: route, TraceID: root.TraceID()}
		ctx = obs.WithRequest(ctx, info)
		if authFailed == nil && (p.tenant != "" || p.admin) {
			ctx = context.WithValue(ctx, principalCtxKey{}, p)
		}
		r = r.WithContext(ctx)

		if authFailed != nil {
			s.metrics.bumpRequests("")
			writeError(rec, authFailed)
		} else {
			s.metrics.bumpRequests(p.tenant)
			next.ServeHTTP(rec, r)
		}

		elapsed := time.Since(start)
		if root != nil {
			root.Annotate("status", strconv.Itoa(rec.status))
			root.Annotate("request_id", reqID)
			if rec.status >= 400 {
				root.Fail(http.StatusText(rec.status))
			}
			root.End()
		}
		s.metrics.httpRequests.Counter(route, r.Method, strconv.Itoa(rec.status)).Inc()
		// Deliberately held requests — long polls and SSE streams — go
		// to their own histogram: a 60s hold is the feature working,
		// and folding it into goldrec_http_request_seconds would bury
		// every real latency regression under the route's p99.
		if r.URL.Query().Get("wait") != "" || wantsSSE(r) {
			s.metrics.httpStream.Histogram(route).ObserveDuration(elapsed)
		} else {
			s.metrics.httpLatency.Histogram(route).ObserveDuration(elapsed)
		}
		if s.logger != nil {
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("uri", obs.RedactURI(r.URL.RequestURI())),
				slog.Int("status", rec.status),
				slog.Int64("bytes", rec.bytes),
				slog.Duration("elapsed", elapsed),
			)
			if root != nil && elapsed >= s.tracer.Threshold() {
				s.logger.LogAttrs(r.Context(), slog.LevelWarn, "slow request",
					slog.String("method", r.Method),
					slog.String("uri", obs.RedactURI(r.URL.RequestURI())),
					slog.Duration("elapsed", elapsed),
					slog.String("spans", trace.Breakdown(root)),
				)
			}
		}
	})
}
