package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/goldrec/goldrec/internal/obs"
	"github.com/goldrec/goldrec/internal/tenant"
)

// TestReadyzGating: /readyz answers 503 (with Retry-After) until
// MarkReady, while /healthz is live the whole time; both stay open with
// auth enabled.
func TestReadyzGating(t *testing.T) {
	svc, ts, _ := newTenantServer(t, Options{}, nil)

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusOK
		if path == "/readyz" {
			want = http.StatusServiceUnavailable
			if resp.Header.Get("Retry-After") == "" {
				t.Error("not-ready 503 lacks Retry-After")
			}
		}
		if resp.StatusCode != want {
			t.Errorf("%s before MarkReady: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	svc.MarkReady()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz after MarkReady: status %d, want 200", resp.StatusCode)
	}
}

// TestRequestIDPropagation: the middleware stamps X-Request-ID on every
// response, honors a well-formed inbound id, replaces a hostile one,
// and echoes the id in error bodies.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); !strings.HasPrefix(id, "req_") || len(id) != len("req_")+16 {
		t.Errorf("generated request id = %q", id)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/plan", nil) // missing budget → 400
	req.Header.Set("X-Request-ID", "client-trace_42")
	if testAuth {
		req.Header.Set("Authorization", "Bearer "+testAdminKey)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var errBody struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(raw, &errBody); err != nil {
		t.Fatalf("decoding error body %q: %v", raw, err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("plan without budget: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "client-trace_42" {
		t.Errorf("inbound id not propagated: %q", got)
	}
	if errBody.RequestID != "client-trace_42" {
		t.Errorf("error body request_id = %q", errBody.RequestID)
	}

	// A header that could corrupt logs or the exposition is replaced.
	req, _ = http.NewRequest("GET", ts.URL+"/v1/datasets", nil)
	req.Header.Set("X-Request-ID", "bad id\twith spaces")
	if testAuth {
		req.Header.Set("Authorization", "Bearer "+testAdminKey)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); !strings.HasPrefix(id, "req_") {
		t.Errorf("hostile inbound id survived: %q", id)
	}
}

// TestPrometheusEndpoint drives a full review far enough to populate
// every metric family, then checks the exposition parses with the
// golden parser and carries the families the issue promises: per-route
// latency histograms, engine-phase timings, first-group latency and the
// per-tenant counters.
func TestPrometheusEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Shards: 2})
	ds := uploadPaperDataset(t, ts.URL)
	sess := openSession(t, ts.URL, ds.ID, "Name")
	g, ok := nextGroup(t, ts.URL, sess.ID)
	if !ok {
		t.Fatal("no group produced")
	}
	if _, status := decide(t, ts.URL, sess.ID, g.ID, "approve"); status != http.StatusOK {
		t.Fatalf("decide: status %d", status)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/metrics/prometheus", nil)
	if testAuth {
		req.Header.Set("Authorization", "Bearer "+testAdminKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rawBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	raw := string(rawBytes)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exposition: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("exposition content type = %q", ct)
	}
	if n, _, err := obs.ParseExpositionFamilies(strings.NewReader(raw)); err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	} else if n == 0 {
		t.Fatal("exposition empty")
	}
	for _, want := range []string{
		`goldrec_http_request_seconds_bucket{route="/v1/datasets/{id}/sessions",le="+Inf"}`,
		`goldrec_engine_phase_seconds_count{phase="graph_build"}`,
		`goldrec_engine_phase_seconds_count{phase="group_search"}`,
		"goldrec_session_first_group_seconds_count 1",
		"goldrec_tenant_decisions_total",
		`goldrec_registry_entries{kind="datasets"} 1`,
		"goldrec_library_programs 1",
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The group search that produced g was observed, not merely declared.
	const searchCount = `goldrec_engine_phase_seconds_count{phase="group_search"} `
	if i := strings.Index(raw, searchCount); i < 0 {
		t.Errorf("exposition missing %q", searchCount)
	} else if v, _, _ := strings.Cut(raw[i+len(searchCount):], "\n"); v == "0" {
		t.Errorf("%s= %s, want > 0", searchCount, v)
	}

	var m MetricsInfo
	if status := doJSON(t, "GET", ts.URL+"/v1/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("json metrics: status %d", status)
	}
	if m.LibraryPrograms != 1 {
		t.Errorf("json metrics library_programs = %d, want 1 (one approved program)", m.LibraryPrograms)
	}
}

// TestTenantDeleteDropsCounters is the cardinality-leak regression:
// deleting a tenant retires its metric series, in both the JSON
// document and the Prometheus exposition.
func TestTenantDeleteDropsCounters(t *testing.T) {
	svc, ts, reg := newTenantServer(t, Options{}, nil)
	id, key := mintTenant(t, reg, "doomed", tenant.Quotas{})
	keepID, keepKey := mintTenant(t, reg, "keeper", tenant.Quotas{})
	tenantUpload(t, ts.URL, key, "doomed-data")
	tenantUpload(t, ts.URL, keepKey, "keeper-data")

	var before MetricsInfo
	keyedJSON(t, "GET", ts.URL+"/v1/metrics", tenantTestAdminKey, nil, &before)
	if before.Tenants[id].Requests == 0 {
		t.Fatalf("doomed tenant has no counters before delete: %+v", before.Tenants)
	}

	if status, _ := keyedJSON(t, "DELETE", ts.URL+"/v1/tenants/"+id, tenantTestAdminKey, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete tenant: status %d", status)
	}

	var after MetricsInfo
	keyedJSON(t, "GET", ts.URL+"/v1/metrics", tenantTestAdminKey, nil, &after)
	if _, still := after.Tenants[id]; still {
		t.Error("deleted tenant still present in /v1/metrics")
	}
	if after.Tenants[keepID].Requests == 0 {
		t.Error("surviving tenant's counters were dropped too")
	}
	for _, sample := range svc.metrics.reg.Snapshot() {
		for _, v := range sample.Values {
			if v == id {
				t.Errorf("registry still holds series %s{%v} for deleted tenant", sample.Name, sample.Values)
			}
		}
	}

	// Deleting a tenant that never existed must not 204 (and must not
	// touch anything).
	if status, _ := keyedJSON(t, "DELETE", ts.URL+"/v1/tenants/tn_feedbeef", tenantTestAdminKey, nil, nil); status != http.StatusNotFound {
		t.Errorf("delete unknown tenant: status %d, want 404", status)
	}
}
