package service

import (
	"net/http"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/obs"
)

// anonTenant is the metrics bucket for unscoped traffic: open-mode
// callers, the admin key, and unauthenticated (rejected) requests.
const anonTenant = "anonymous"

// serviceMetrics is the service's slice of the shared obs registry:
// per-tenant accounting counters (the PR 5 counters, migrated), HTTP
// per-route/per-status counts and latency histograms, engine-phase
// timings, and the upload→first-group latency. Counter bumps stay two
// atomic ops on the hot path (one map read under RLock inside obs, one
// Add); the registry's exclusive lock is only taken the first time a
// label combination appears.
type serviceMetrics struct {
	reg *obs.Registry

	// Per-tenant accounting, one series per tenant id.
	requests    *obs.Vec
	decisions   *obs.Vec
	uploadBytes *obs.Vec
	rateLimited *obs.Vec

	// HTTP layer. Deliberately held requests (wait= long polls, SSE
	// streams) record on httpStream, not httpLatency: holding a
	// connection for 60s is those endpoints working as designed, and
	// mixing the holds into the request histogram would drown real
	// latency regressions.
	httpRequests *obs.Vec // counter: route, method, status
	httpLatency  *obs.Vec // histogram: route
	httpStream   *obs.Vec // histogram: route

	// Engine phases, observed as per-NextGroup deltas, plus the
	// session-open→first-group latency.
	enginePhase *obs.Vec // histogram: phase
	firstGroup  *obs.Histogram

	// Registry occupancy, refreshed on scrape.
	registryEntries *obs.Vec // gauge: kind

	// Transformation-library accounting: remembered programs (gauge,
	// refreshed on scrape), sessions that opened warm (a library "hit"),
	// and groups pre-decided from warm priors.
	libraryPrograms *obs.Gauge
	libraryHits     *obs.Vec // counter: tenant
	libraryWarm     *obs.Vec // counter: tenant
}

// phaseBuckets resolve engine work from sub-millisecond group searches
// to multi-second graph builds on large uploads.
var phaseBuckets = []float64{0.0005, 0.002, 0.008, 0.032, 0.128, 0.512, 2.048, 8.192, 32.768}

// streamBuckets cover held connections: an instant answer (a group was
// already buffered), a full 25s/60s long-poll hold, and SSE streams
// that stay up for minutes.
var streamBuckets = []float64{0.05, 0.25, 1, 5, 15, 30, 60, 120}

func newServiceMetrics(reg *obs.Registry) *serviceMetrics {
	return &serviceMetrics{
		reg: reg,
		requests: reg.NewCounter("goldrec_tenant_requests_total",
			"HTTP requests attributed to the tenant (including rejected ones).", "tenant"),
		decisions: reg.NewCounter("goldrec_tenant_decisions_total",
			"Acknowledged reviewer decisions on the tenant's sessions.", "tenant"),
		uploadBytes: reg.NewCounter("goldrec_tenant_upload_bytes_total",
			"Dataset-upload body bytes consumed.", "tenant"),
		rateLimited: reg.NewCounter("goldrec_tenant_rate_limited_total",
			"Decisions refused with 429.", "tenant"),
		httpRequests: reg.NewCounter("goldrec_http_requests_total",
			"HTTP requests by normalized route, method and status.", "route", "method", "status"),
		httpLatency: reg.NewHistogram("goldrec_http_request_seconds",
			"HTTP request latency by normalized route.", nil, "route"),
		httpStream: reg.NewHistogram("goldrec_http_stream_seconds",
			"Held-connection duration (long polls, SSE streams) by normalized route.", streamBuckets, "route"),
		enginePhase: reg.NewHistogram("goldrec_engine_phase_seconds",
			"Engine time per phase, observed as per-group-generation deltas.", phaseBuckets, "phase"),
		firstGroup: reg.NewHistogram("goldrec_session_first_group_seconds",
			"Latency from session open to the first group becoming available.", phaseBuckets).Histogram(),
		registryEntries: reg.NewGauge("goldrec_registry_entries",
			"Live registry entries by kind, refreshed on scrape.", "kind"),
		libraryPrograms: reg.NewGauge("goldrec_library_programs",
			"Programs remembered across every tenant's transformation library, refreshed on scrape.").Gauge(),
		libraryHits: reg.NewCounter("goldrec_library_hits_total",
			"Sessions opened warm: the tenant's library had eligible priors to offer.", "tenant"),
		libraryWarm: reg.NewCounter("goldrec_library_warm_decisions_total",
			"Groups pre-decided from the tenant's library at session open.", "tenant"),
	}
}

// tenantLabel maps the empty owner to the anonymous bucket.
func tenantLabel(owner string) string {
	if owner == "" {
		return anonTenant
	}
	return owner
}

func (m *serviceMetrics) bumpRequests(owner string) { m.requests.Counter(tenantLabel(owner)).Inc() }
func (m *serviceMetrics) bumpDecisionsN(owner string, n int) {
	if n > 0 {
		m.decisions.Counter(tenantLabel(owner)).Add(int64(n))
	}
}
func (m *serviceMetrics) bumpRateLimited(owner string) {
	m.rateLimited.Counter(tenantLabel(owner)).Inc()
}
func (m *serviceMetrics) addUploadBytes(owner string, n int64) {
	if n > 0 {
		m.uploadBytes.Counter(tenantLabel(owner)).Add(n)
	}
}
func (m *serviceMetrics) bumpLibraryHit(owner string) {
	m.libraryHits.Counter(tenantLabel(owner)).Inc()
}
func (m *serviceMetrics) bumpWarmDecisions(owner string, n int) {
	if n > 0 {
		m.libraryWarm.Counter(tenantLabel(owner)).Add(int64(n))
	}
}

// dropTenant retires a deleted tenant's counter series so tenant churn
// cannot grow the label space without bound.
func (m *serviceMetrics) dropTenant(id string) {
	for _, vec := range []*obs.Vec{m.requests, m.decisions, m.uploadBytes, m.rateLimited, m.libraryHits, m.libraryWarm} {
		vec.Delete(id)
	}
}

// observePhases records the engine work one NextGroup call performed:
// the positive per-phase deltas between two Timings snapshots.
func (m *serviceMetrics) observePhases(before, after goldrec.PhaseTimings) {
	if d := after.ContextPrep - before.ContextPrep; d > 0 {
		m.enginePhase.Histogram("context_prep").ObserveDuration(d)
	}
	if d := after.GraphBuild - before.GraphBuild; d > 0 {
		m.enginePhase.Histogram("graph_build").ObserveDuration(d)
	}
	if d := after.GroupSearch - before.GroupSearch; d > 0 {
		m.enginePhase.Histogram("group_search").ObserveDuration(d)
	}
}

// TenantMetrics is one tenant's slice of GET /v1/metrics.
type TenantMetrics struct {
	// Requests counts every HTTP request attributed to the tenant
	// (including rejected ones).
	Requests int64 `json:"requests"`
	// Decisions counts acknowledged reviewer decisions on the tenant's
	// sessions.
	Decisions int64 `json:"decisions"`
	// UploadBytes totals the dataset-upload body bytes consumed.
	UploadBytes int64 `json:"upload_bytes"`
	// RateLimited counts decisions refused with 429.
	RateLimited int64 `json:"rate_limited"`
	// LibraryHits counts sessions opened warm from the tenant's library.
	LibraryHits int64 `json:"library_hits"`
	// WarmDecisions counts groups pre-decided from the tenant's library
	// at session open.
	WarmDecisions int64 `json:"warm_decisions"`
}

// MetricsInfo is the GET /v1/metrics document: per-tenant counters plus
// registry occupancy, shard by shard (the load-balance view the
// sharding design is supposed to keep flat). Latency histograms are on
// the Prometheus exposition only.
type MetricsInfo struct {
	Tenants map[string]TenantMetrics `json:"tenants"`
	// Datasets and Sessions count live registry entries.
	Datasets int `json:"datasets"`
	Sessions int `json:"sessions"`
	// DatasetShards and SessionShards are per-shard entry counts, in
	// shard order.
	DatasetShards []int `json:"dataset_shards"`
	SessionShards []int `json:"session_shards"`
	// LibraryPrograms counts remembered transformation programs: the
	// caller's own library when tenant-scoped, every library otherwise.
	LibraryPrograms int `json:"library_programs"`
}

// metricsSnapshot assembles the metrics document. A tenant-scoped
// caller (owner != "") sees only its own counters and library size;
// registry occupancy is shard cardinality, not ids, so it is safe to
// share.
func (s *Service) metricsSnapshot(owner string) MetricsInfo {
	out := MetricsInfo{
		Tenants:       make(map[string]TenantMetrics),
		DatasetShards: s.datasets.sizes(),
		SessionShards: s.sessions.sizes(),
	}
	for _, n := range out.DatasetShards {
		out.Datasets += n
	}
	for _, n := range out.SessionShards {
		out.Sessions += n
	}
	if owner != "" {
		out.LibraryPrograms = s.library.For(owner).Len()
	} else {
		out.LibraryPrograms = s.library.TotalPrograms()
	}
	tenantFields := map[string]func(*TenantMetrics) *int64{
		"goldrec_tenant_requests_total":        func(t *TenantMetrics) *int64 { return &t.Requests },
		"goldrec_tenant_decisions_total":       func(t *TenantMetrics) *int64 { return &t.Decisions },
		"goldrec_tenant_upload_bytes_total":    func(t *TenantMetrics) *int64 { return &t.UploadBytes },
		"goldrec_tenant_rate_limited_total":    func(t *TenantMetrics) *int64 { return &t.RateLimited },
		"goldrec_library_hits_total":           func(t *TenantMetrics) *int64 { return &t.LibraryHits },
		"goldrec_library_warm_decisions_total": func(t *TenantMetrics) *int64 { return &t.WarmDecisions },
	}
	for _, sample := range s.metrics.reg.Snapshot() {
		if field, ok := tenantFields[sample.Name]; ok && len(sample.Values) == 1 {
			id := sample.Values[0]
			if owner != "" && id != owner {
				continue
			}
			t := out.Tenants[id]
			*field(&t) = sample.Count
			out.Tenants[id] = t
		}
	}
	return out
}

// handleMetrics serves GET /v1/metrics. In open mode it is public; with
// auth on, the admin sees everything and a tenant key sees only its own
// counters.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	owner := ""
	if s.opts.Tenants != nil {
		p := principalFrom(r)
		if !p.admin {
			owner = p.tenant
			if owner == "" {
				// Authenticated but neither admin nor tenant cannot happen
				// today; refuse rather than leak the global view.
				writeError(w, ErrForbidden)
				return
			}
		}
	}
	writeJSON(w, http.StatusOK, s.metricsSnapshot(owner))
}

// handlePrometheus serves GET /metrics/prometheus: the shared registry
// in text exposition format. Registry-occupancy gauges are refreshed
// here so scrapes always see current cardinality.
func (s *Service) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	s.refreshGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w)
}

// refreshGauges updates the scrape-time gauges (registry occupancy).
func (s *Service) refreshGauges() {
	d, c := 0, 0
	for _, n := range s.datasets.sizes() {
		d += n
	}
	for _, n := range s.sessions.sizes() {
		c += n
	}
	s.metrics.registryEntries.Gauge("datasets").Set(float64(d))
	s.metrics.registryEntries.Gauge("sessions").Set(float64(c))
	s.metrics.libraryPrograms.Set(float64(s.library.TotalPrograms()))
}

// PrometheusHandler returns the exposition endpoint as a standalone
// handler, for mounting on a separate (unauthenticated) debug listener.
// The main API serves the same thing at /metrics/prometheus.
func (s *Service) PrometheusHandler() http.Handler {
	return http.HandlerFunc(s.handlePrometheus)
}
