package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.9, 3.7},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Errorf("quantile of an empty sample should be NaN")
	}
}

func TestTailPctKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %v, want %v", c.n, got, c.want)
		}
		if beyond := float64(c.n) * (1 - c.want/100); c.want > 0 && beyond < 10-1e-9 {
			t.Errorf("tailPct(%d) = %v leaves %.2f samples beyond it", c.n, c.want, beyond)
		}
	}
}

func TestSummarizeReportsCountAndTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 100 || s.TailPct != 90 || s.Max != 100 {
		t.Fatalf("summarize = %+v", s)
	}
	if math.Abs(s.P50-50.5) > 1e-9 || math.Abs(s.Tail-90.1) > 1e-9 {
		t.Fatalf("summarize = %+v, want p50 50.5 and p90 90.1", s)
	}
	if got := summarize(xs[:5]).String(); got != "n=5 p50=3.000 max=5.000" {
		t.Fatalf("small-sample summary %q should omit the tail", got)
	}
}

func TestPromDiff(t *testing.T) {
	before := parseProm([]byte(`# HELP x y
goldrec_store_wal_fsync_seconds_sum 0.5
goldrec_store_wal_fsync_seconds_count 10
goldrec_http_request_seconds_sum{route="/v1/plan"} 1
`))
	after := parseProm([]byte(`goldrec_store_wal_fsync_seconds_sum 0.75
goldrec_store_wal_fsync_seconds_count 20
goldrec_http_request_seconds_sum{route="/v1/plan"} 3
goldrec_http_request_seconds_count{route="/v1/plan"} 4
`))
	d := after.sub(before)
	if got := d.get("goldrec_store_wal_fsync_seconds_count", ""); got != 10 {
		t.Errorf("fsync count delta = %v, want 10", got)
	}
	if got := d.histMeanMS("goldrec_store_wal_fsync_seconds", ""); math.Abs(got-25) > 1e-9 {
		t.Errorf("fsync mean = %v ms, want 25", got)
	}
	if got := d.histMeanMS("goldrec_http_request_seconds", `route="/v1/plan"`); math.Abs(got-500) > 1e-9 {
		t.Errorf("plan mean = %v ms, want 500", got)
	}
	if got := d.histMeanMS("goldrec_http_request_seconds", `route="/v1/other"`); got != 0 {
		t.Errorf("absent series mean = %v, want 0", got)
	}
}
