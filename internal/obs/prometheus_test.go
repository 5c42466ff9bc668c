package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a deterministic registry covering every kind,
// label escaping, and multi-series families.
func goldenRegistry() *Registry {
	r := NewRegistry()
	req := r.NewCounter("goldrec_requests_total", "HTTP requests by tenant and route.", "tenant", "route")
	req.Counter("acme", "/v1/datasets/{id}").Add(12)
	req.Counter("anonymous", "/healthz").Add(3)
	req.Counter(`we"ird\ten`+"\nant", "other").Add(1)
	g := r.NewGauge("goldrec_sessions_active", "Active review sessions.")
	g.Gauge().Set(4)
	h := r.NewHistogram("goldrec_request_seconds", "Request latency.", []float64{0.005, 0.05, 0.5}, "route")
	lat := h.Histogram("/v1/decide")
	lat.Observe(0.001)
	lat.Observe(0.01)
	lat.Observe(0.1)
	lat.Observe(2)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf strings.Builder
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	got := buf.String()
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// The golden output must itself satisfy the lint parser.
	n, _, err := ParseExpositionFamilies(strings.NewReader(got))
	if err != nil {
		t.Fatalf("ParseExpositionFamilies(golden): %v", err)
	}
	// 3 counters + 1 gauge + (3 buckets + Inf + sum + count) histogram.
	if n != 10 {
		t.Fatalf("parsed %d samples, want 10", n)
	}
}

func TestWritePrometheusStableOrdering(t *testing.T) {
	var a, b strings.Builder
	if err := goldenRegistry().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two expositions of identical registries differ (unstable ordering)")
	}
}

func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":  "x_total 1\n",
		"sample without HELP": "# TYPE x_total counter\nx_total 1\n",
		"bad metric name":     "# HELP 2bad c\n# TYPE 2bad counter\n2bad 1\n",
		"unknown type":        "# HELP x c\n# TYPE x rate\nx 1\n",
		"duplicate TYPE":      "# HELP x c\n# TYPE x counter\n# TYPE x counter\nx 1\n",
		"TYPE after samples":  "# HELP x c\n# TYPE x counter\nx 1\n# TYPE x counter\n",
		"unquoted label":      "# HELP x c\n# TYPE x counter\nx{a=b} 1\n",
		"bad escape":          "# HELP x c\n# TYPE x counter\nx{a=\"\\q\"} 1\n",
		"bad value":           "# HELP x c\n# TYPE x counter\nx one\n",
		"buckets out of order": "# HELP h c\n# TYPE h histogram\n" +
			"h_bucket{le=\"0.5\"} 1\nh_bucket{le=\"0.1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"non-cumulative buckets": "# HELP h c\n# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"0.5\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"missing +Inf bucket": "# HELP h c\n# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 1\nh_sum 1\nh_count 1\n",
		"count disagrees with +Inf": "# HELP h c\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n",
	}
	for name, input := range cases {
		if _, _, err := ParseExpositionFamilies(strings.NewReader(input)); err == nil {
			t.Errorf("%s: parse accepted invalid input", name)
		}
	}
}

func TestParseExpositionAccepts(t *testing.T) {
	ok := "# plain comment\n" +
		"# HELP x_total Total with \\\\ escapes.\n# TYPE x_total counter\n" +
		"x_total{a=\"v\\\"q\\\\u\\ne\"} 1\n" +
		"x_total{a=\"plain\"} 2 1700000000000\n" + // optional timestamp
		"\n" +
		"# HELP g A gauge.\n# TYPE g gauge\ng -0.5\n"
	n, _, err := ParseExpositionFamilies(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("parse rejected valid input: %v", err)
	}
	if n != 3 {
		t.Fatalf("parsed %d samples, want 3", n)
	}
}

func TestParseExpositionFamilies(t *testing.T) {
	in := "# HELP x_total T.\n# TYPE x_total counter\nx_total 1\n" +
		"# HELP h_seconds H.\n# TYPE h_seconds histogram\n" +
		"h_seconds_bucket{le=\"1\"} 2\nh_seconds_bucket{le=\"+Inf\"} 2\n" +
		"h_seconds_sum 0.5\nh_seconds_count 2\n" +
		// TYPE with no samples: declared but must NOT count as seen.
		"# HELP empty_total E.\n# TYPE empty_total counter\n"
	n, fams, err := ParseExpositionFamilies(strings.NewReader(in))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if n != 5 {
		t.Fatalf("parsed %d samples, want 5", n)
	}
	// Histogram suffixes fold into the base family.
	if !fams["x_total"] || !fams["h_seconds"] {
		t.Fatalf("families = %v, want x_total and h_seconds", fams)
	}
	if fams["h_seconds_bucket"] || fams["h_seconds_count"] {
		t.Fatalf("histogram suffix leaked as a family: %v", fams)
	}
	if fams["empty_total"] {
		t.Fatalf("sampleless family reported as seen: %v", fams)
	}
}

// TestParseExpositionFamiliesUnobservedHistogram: a histogram family
// whose every series reads _count 0 has observed nothing and is not
// seen, labelled or not; one observed series makes it seen. Counters
// and gauges at 0 still count.
func TestParseExpositionFamiliesUnobservedHistogram(t *testing.T) {
	in := "# HELP z_seconds Z.\n# TYPE z_seconds histogram\n" +
		"z_seconds_bucket{le=\"1\"} 0\nz_seconds_bucket{le=\"+Inf\"} 0\n" +
		"z_seconds_sum 0\nz_seconds_count 0\n" +
		"# HELP p_seconds P.\n# TYPE p_seconds histogram\n" +
		"p_seconds_bucket{phase=\"a\",le=\"+Inf\"} 0\np_seconds_sum{phase=\"a\"} 0\np_seconds_count{phase=\"a\"} 0\n" +
		"p_seconds_bucket{phase=\"b\",le=\"+Inf\"} 3\np_seconds_sum{phase=\"b\"} 1.5\np_seconds_count{phase=\"b\"} 3\n" +
		"# HELP d_total D.\n# TYPE d_total counter\nd_total 0\n" +
		"# HELP g G.\n# TYPE g gauge\ng 0\n"
	n, fams, err := ParseExpositionFamilies(strings.NewReader(in))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if n != 12 {
		t.Fatalf("parsed %d samples, want 12", n)
	}
	if fams["z_seconds"] {
		t.Errorf("unobserved histogram reported as seen: %v", fams)
	}
	if !fams["p_seconds"] || !fams["d_total"] || !fams["g"] {
		t.Errorf("families = %v, want p_seconds, d_total and g", fams)
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	r := NewRegistry()
	nasty := "a\\b\"c\nd"
	r.NewCounter("goldrec_esc_total", "E.", "v").Counter(nasty).Inc()
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `v="a\\b\"c\nd"`) {
		t.Fatalf("escaping wrong in %q", out)
	}
	if _, _, err := ParseExpositionFamilies(strings.NewReader(out)); err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
}
