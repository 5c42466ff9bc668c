package main

// e2eMetric is an end-to-end metric: a number the reviewer sees. Every
// workload reports every one of them with --trace 0. Bound is the share
// of the baseline median by which the metric may worsen before a change
// counts as a regression.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMetric is a per-layer metric, reported with --trace 1 (zero on a
// workload that does not exercise the layer). Moves names the
// end-to-end metric it should move, and on which workload.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"-"`
}

// Reviewer-visible rates and latencies after the first question are
// per-layer only (questions_per_s, review_s, service.decide.client_ms.*,
// service.question_wait_ms.*): on review-address they are set by the
// few pivot searches that stall the prefetcher, so one run's figure
// varies several-fold across iterations and by up to a third across
// seeds, beyond any bound a gate could use.
var endToEnd = []e2eMetric{
	// From exec until every session the workload needs is reviewable
	// (an empty server's /readyz, or WAL replay of the iteration's
	// backlog).
	{"setup_s", "s", "lower", 0.25},
	// From the upload being sent (on restart-backlog, from the start of
	// the burn-down) until the first group is on the reviewer's screen.
	{"first_question_s", "s", "lower", 0.25},
	// Section 8 protocol on the exported records, 1,000 sampled pairs
	// per dataset, confusion counts pooled over the run's first scored
	// iterations (see workloadFunc).
	{"recall", "ratio", "higher", 0.25},
	{"precision", "ratio", "higher", 0.1},
	// Peak resident set (VmHWM) of goldrecd.
	{"server_rss_mb", "MiB", "lower", 0.25},
}

const (
	onAll     = "all workloads"
	onAddress = "review-address"
	onBacklog = "restart-backlog"
	onWarm    = "reingest-warm"
)

var perLayer = func() []layerMetric {
	engine := "first_question_s, questions_per_s on " + onAddress + " and " + onWarm + "; setup_s on " + onBacklog
	out := []layerMetric{
		{"engine.context_prep_s", "s", "lower", engine},
		{"engine.graph_build_s", "s", "lower", engine},
		{"engine.group_search_s", "s", "lower", engine},
		{"questions_per_s", "1/s", "higher", "questions answered per second after the first question"},
		{"review_s", "s", "lower", "from the upload (on " + onBacklog + ", the burn-down's start) to the golden export"},
		{"engine.review_share", "ratio", "lower", "questions_per_s on " + onAddress + " and " + onWarm + " (graph build plus group search, as a share of review_s)"},
		{"engine.review_group_search_s", "s", "lower", "questions_per_s on " + onBacklog + " (the burn-down issues no group: about 0)"},
		{"engine.replay_graph_build_s", "s", "lower", "setup_s on " + onBacklog + "; first_question_s on " + onAddress},
		{"engine.replay_group_search_s", "s", "lower", "setup_s on " + onBacklog + "; questions_per_s on " + onAddress},
		{"engine.next_group_ms.p50", "ms", "lower", "questions_per_s on " + onAddress + "; setup_s on " + onBacklog},
		{"engine.next_group_ms.p90", "ms", "lower", "questions_per_s on " + onAddress + "; setup_s on " + onBacklog},
		{"engine.next_group_ms.max", "ms", "lower", "questions_per_s on " + onAddress + "; setup_s on " + onBacklog},
		{"engine.groups_issued", "count", "lower", "setup_s on " + onBacklog},
		{"engine.first_group_s", "s", "lower", "first_question_s on " + onAddress + " and " + onWarm},
		{"engine.candidates", "count", "lower", "first_question_s on " + onAddress},
		{"engine.candidate_gen_ms", "ms", "lower", "first_question_s on " + onAddress},
		{"engine.graph_nodes", "count", "lower", "first_question_s on " + onAddress},
		{"engine.graph_edges", "count", "lower", "first_question_s on " + onAddress},
		{"engine.apply_ms.mean", "ms", "lower", "questions_per_s on " + onBacklog},
		{"service.first_question_lag_s", "s", "lower", "first_question_s on " + onAddress + " (the prefetch lock gap)"},
		{"service.readyz_s", "s", "lower", "setup_s on " + onBacklog + " and " + onWarm},
		{"service.question_wait_ms.p50", "ms", "lower", "questions_per_s on " + onAll},
		{"service.question_wait_ms.p90", "ms", "lower", "questions_per_s on " + onAll},
	}
	routeMoves := map[string]string{
		rUpload:      "first_question_s on " + onAddress + " and " + onWarm,
		rOpen:        "first_question_s on " + onAddress + " and " + onWarm,
		rGroups:      "questions_per_s on " + onAll,
		rDecide:      "questions_per_s on " + onAll,
		rDecideBatch: "questions_per_s on " + onBacklog,
		rPlan:        "questions_per_s on " + onBacklog,
		rEvents:      "questions_per_s on " + onBacklog,
		rExport:      "questions_per_s on " + onAll,
	}
	for _, r := range timedRoutes {
		m := routeMoves[r]
		out = append(out,
			layerMetric{"service." + r + ".server_ms.mean", "ms", "lower", m},
			layerMetric{"service." + r + ".client_ms.p50", "ms", "lower", m},
			layerMetric{"service." + r + ".client_ms.p90", "ms", "lower", m},
			layerMetric{"service." + r + ".overhead_ms", "ms", "lower", m},
		)
	}
	store := "questions_per_s on " + onBacklog
	return append(out,
		layerMetric{"decisions_per_s", "1/s", "higher", "questions_per_s on " + onBacklog},
		layerMetric{"store.wal_appends", "count", "lower", store},
		layerMetric{"store.wal_append_ms.mean", "ms", "lower", store},
		layerMetric{"store.fsyncs", "count", "lower", store},
		layerMetric{"store.wal_fsync_ms.mean", "ms", "lower", store},
		layerMetric{"store.records_per_fsync", "count", "higher", store},
		layerMetric{"store.wal_replay_ms", "ms", "lower", "setup_s on " + onBacklog},
		layerMetric{"store.snapshot_write_ms", "ms", "lower", "questions_per_s on " + onAll},
		layerMetric{"store.bytes_per_decision", "B", "lower", "questions_per_s on " + onAddress},
		layerMetric{"events.emitted", "count", "lower", "questions_per_s on " + onBacklog},
		layerMetric{"events.dropped", "count", "lower", "must stay 0; questions_per_s on " + onBacklog},
		layerMetric{"events.feed_lag_ms.p50", "ms", "lower", "questions_per_s on " + onBacklog},
		layerMetric{"library.programs", "count", "higher", "first_question_s, questions_per_s on " + onWarm},
		layerMetric{"library.hits", "count", "higher", "first_question_s, questions_per_s on " + onWarm},
		layerMetric{"library.warm_groups", "count", "higher", "first_question_s, questions_per_s on " + onWarm},
		layerMetric{"library.warm_share", "ratio", "higher", "first_question_s, questions_per_s on " + onWarm},
		layerMetric{"truth.golden_ms", "ms", "lower", "questions_per_s on " + onAll},
		layerMetric{"table.ingest_ms", "ms", "lower", "questions_per_s on " + onAll},
		layerMetric{"server.cpu_s", "s", "lower", onAll},
		layerMetric{"trace.overhead", "ratio", "lower", onAll},
	)
}()
