package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/store"
	"github.com/goldrec/goldrec/internal/tenant"
)

const tenantTestAdminKey = "tenant-suite-admin-key-fedcba9876543210"

// newTenantServer builds an auth-enabled service around the given
// registry (fresh memory-only one when nil).
func newTenantServer(t *testing.T, opts Options, reg *tenant.Registry) (*Service, *httptest.Server, *tenant.Registry) {
	t.Helper()
	if reg == nil {
		var err error
		reg, err = tenant.Open(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	opts.Tenants = reg
	opts.AdminKey = tenantTestAdminKey
	svc := New(opts)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts, reg
}

// keyedJSON performs one request authenticated with key ("" = no
// credentials) and decodes the JSON response into out when non-nil.
func keyedJSON(t *testing.T, method, url, key string, body io.Reader, out any) (int, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// mintTenant creates a tenant through the registry and returns its id
// and key.
func mintTenant(t *testing.T, reg *tenant.Registry, name string, q tenant.Quotas) (string, string) {
	t.Helper()
	info, key, err := reg.Create(name, q)
	if err != nil {
		t.Fatal(err)
	}
	return info.ID, key
}

// tenantUpload uploads the paper CSV as the keyed principal.
func tenantUpload(t *testing.T, base, key, name string) DatasetInfo {
	t.Helper()
	var info DatasetInfo
	status, _ := keyedJSON(t, "POST", base+"/v1/datasets?name="+name+"&key=key", key, strings.NewReader(paperCSV), &info)
	if status != http.StatusCreated {
		t.Fatalf("upload as %s: status %d", name, status)
	}
	return info
}

// tenantOpenSession opens a session as the keyed principal.
func tenantOpenSession(t *testing.T, base, key, dsID, column string) SessionInfo {
	t.Helper()
	var info SessionInfo
	body := fmt.Sprintf(`{"column":%q}`, column)
	status, _ := keyedJSON(t, "POST", base+"/v1/datasets/"+dsID+"/sessions", key, strings.NewReader(body), &info)
	if status != http.StatusCreated {
		t.Fatalf("open session: status %d", status)
	}
	return info
}

// tenantNextGroup long-polls for an undecided group as the keyed
// principal.
func tenantNextGroup(t *testing.T, base, key, sid string) goldrec.GroupState {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var page GroupPage
		status, _ := keyedJSON(t, "GET", base+"/v1/sessions/"+sid+"/groups?limit=1&wait=true", key, nil, &page)
		if status != http.StatusOK {
			t.Fatalf("fetch groups: status %d", status)
		}
		if len(page.Groups) > 0 {
			return page.Groups[0]
		}
		if page.Status == StatusExhausted {
			t.Fatalf("session %s exhausted before yielding a group", sid)
		}
	}
	t.Fatalf("session %s: no group within deadline", sid)
	return goldrec.GroupState{}
}

// TestTenantIsolation is the core acceptance test: with two tenants
// loaded, no call authenticated as tenant A can observe or mutate any
// id owned by tenant B — list, get, groups, decide, state, plan,
// export and delete all read as 404 (never 403, which would confirm
// the id exists) — while the admin key sees both.
func TestTenantIsolation(t *testing.T) {
	_, ts, reg := newTenantServer(t, Options{Prefetch: 2}, nil)
	_, aKey := mintTenant(t, reg, "alpha", tenant.Quotas{})
	_, bKey := mintTenant(t, reg, "beta", tenant.Quotas{})

	aDS := tenantUpload(t, ts.URL, aKey, "alpha-data")
	aSess := tenantOpenSession(t, ts.URL, aKey, aDS.ID, "Name")
	g := tenantNextGroup(t, ts.URL, aKey, aSess.ID)
	bDS := tenantUpload(t, ts.URL, bKey, "beta-data")

	// Listings are disjoint.
	var dsList struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/datasets", bKey, nil, &dsList); status != http.StatusOK {
		t.Fatalf("list as beta: status %d", status)
	}
	if len(dsList.Datasets) != 1 || dsList.Datasets[0].ID != bDS.ID {
		t.Fatalf("beta's dataset listing = %+v, want only its own", dsList.Datasets)
	}
	var sessList struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	keyedJSON(t, "GET", ts.URL+"/v1/sessions", bKey, nil, &sessList)
	if len(sessList.Sessions) != 0 {
		t.Fatalf("beta sees %d foreign sessions", len(sessList.Sessions))
	}

	// Every id-addressed route 404s for the foreign tenant.
	foreign := []struct {
		method, path, body string
	}{
		{"GET", "/v1/datasets/" + aDS.ID, ""},
		{"GET", "/v1/datasets/" + aDS.ID + "/records", ""},
		{"GET", "/v1/datasets/" + aDS.ID + "/golden", ""},
		{"GET", "/v1/datasets/" + aDS.ID + "/plan?budget=1", ""},
		{"POST", "/v1/datasets/" + aDS.ID + "/sessions", `{"column":"Address"}`},
		{"DELETE", "/v1/datasets/" + aDS.ID, ""},
		{"GET", "/v1/sessions/" + aSess.ID, ""},
		{"GET", "/v1/sessions/" + aSess.ID + "/groups", ""},
		{"GET", "/v1/sessions/" + aSess.ID + "/state", ""},
		{"POST", "/v1/sessions/" + aSess.ID + "/decisions", fmt.Sprintf(`{"group_id":%d,"decision":"approve"}`, g.ID)},
		{"GET", "/v1/sessions/" + aSess.ID + "/groups?wait=1s", ""},
		{"GET", "/v1/datasets/" + aDS.ID + "/sessions/" + aSess.ID + "/groups", ""},
		{"POST", "/v1/datasets/" + aDS.ID + "/sessions/" + aSess.ID + "/decisions", fmt.Sprintf(`{"decisions":[{"group_id":%d,"decision":"approve"}]}`, g.ID)},
		{"DELETE", "/v1/sessions/" + aSess.ID, ""},
	}
	for _, f := range foreign {
		var body io.Reader
		if f.body != "" {
			body = strings.NewReader(f.body)
		}
		if status, _ := keyedJSON(t, f.method, ts.URL+f.path, bKey, body, nil); status != http.StatusNotFound {
			t.Errorf("%s %s as beta: status %d, want 404", f.method, f.path, status)
		}
	}
	// The SSE variant of the long poll 404s too, as the JSON error
	// envelope: the lookup fails before the response commits to a stream.
	sseReq, err := http.NewRequest("GET", ts.URL+"/v1/sessions/"+aSess.ID+"/groups?wait=1s", nil)
	if err != nil {
		t.Fatal(err)
	}
	sseReq.Header.Set("Authorization", "Bearer "+bKey)
	sseReq.Header.Set("Accept", "text/event-stream")
	sseResp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	var envelope map[string]string
	decErr := json.NewDecoder(sseResp.Body).Decode(&envelope)
	sseResp.Body.Close()
	if sseResp.StatusCode != http.StatusNotFound || decErr != nil || envelope["code"] != "not_found" {
		t.Errorf("SSE groups as beta: status %d, content type %q, envelope %v (%v), want a 404 not_found envelope",
			sseResp.StatusCode, sseResp.Header.Get("Content-Type"), envelope, decErr)
	}

	// Beta's plan never includes alpha's pending groups.
	var plan BudgetPlan
	keyedJSON(t, "GET", ts.URL+"/v1/plan?budget=100", bKey, nil, &plan)
	if plan.Pending != 0 || plan.Allocated != 0 {
		t.Fatalf("beta's plan sees %d pending foreign groups", plan.Pending)
	}
	var aPlan BudgetPlan
	keyedJSON(t, "GET", ts.URL+"/v1/plan?budget=100", aKey, nil, &aPlan)
	if aPlan.Pending == 0 {
		t.Fatal("alpha's plan is empty despite its open session")
	}

	// Alpha still owns its data: decide works, state reads back.
	var res DecisionResult
	decBody := fmt.Sprintf(`{"group_id":%d,"decision":"approve"}`, g.ID)
	if status, _ := keyedJSON(t, "POST", ts.URL+"/v1/sessions/"+aSess.ID+"/decisions", aKey, strings.NewReader(decBody), &res); status != http.StatusOK {
		t.Fatalf("alpha deciding its own group: status %d", status)
	}

	// The admin key is unscoped: it sees both datasets.
	keyedJSON(t, "GET", ts.URL+"/v1/datasets", tenantTestAdminKey, nil, &dsList)
	if len(dsList.Datasets) != 2 {
		t.Fatalf("admin sees %d datasets, want 2", len(dsList.Datasets))
	}

	// Alpha can delete its own dataset; beta's data is untouched.
	if status, _ := keyedJSON(t, "DELETE", ts.URL+"/v1/datasets/"+aDS.ID, aKey, nil, nil); status != http.StatusNoContent {
		t.Fatalf("alpha deleting its dataset: status %d", status)
	}
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/datasets/"+bDS.ID, bKey, nil, nil); status != http.StatusOK {
		t.Fatal("beta's dataset vanished with alpha's delete")
	}
}

// TestTenantAuthErrors covers the authentication error surface:
// missing key, invalid key, tenant key on admin endpoints, and the
// alternative credential carriers.
func TestTenantAuthErrors(t *testing.T) {
	_, ts, reg := newTenantServer(t, Options{}, nil)
	_, key := mintTenant(t, reg, "acme", tenant.Quotas{})

	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/datasets", "", nil, nil); status != http.StatusUnauthorized {
		t.Errorf("missing key: status %d, want 401", status)
	}
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/datasets", "grk_00000000000000000000000000000000", nil, nil); status != http.StatusUnauthorized {
		t.Errorf("invalid key: status %d, want 401", status)
	}
	// healthz stays open for liveness probes.
	if status, _ := keyedJSON(t, "GET", ts.URL+"/healthz", "", nil, nil); status != http.StatusOK {
		t.Errorf("healthz without key: status %d", status)
	}

	// X-API-Key header and api_key query parameter both authenticate.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/datasets", nil)
	req.Header.Set("X-API-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("X-API-Key auth: status %d", resp.StatusCode)
	}
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/datasets?api_key="+key, "", nil, nil); status != http.StatusOK {
		t.Errorf("api_key query auth: status %d", status)
	}
	// A malformed Authorization scheme is a missing key, not a crash.
	req, _ = http.NewRequest("GET", ts.URL+"/v1/datasets", nil)
	req.Header.Set("Authorization", "Basic dXNlcjpwYXNz")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("Basic auth scheme: status %d, want 401", resp.StatusCode)
	}

	// Admin endpoints reject tenant keys (403: authenticated, not
	// entitled) and unauthenticated callers (401).
	for _, probe := range []struct {
		key  string
		want int
	}{
		{key, http.StatusForbidden},
		{"", http.StatusUnauthorized},
	} {
		for _, ep := range []struct{ method, path string }{
			{"POST", "/v1/tenants"},
			{"GET", "/v1/tenants"},
			{"DELETE", "/v1/tenants/tn_0000000000000000"},
			{"POST", "/v1/tenants/tn_0000000000000000/keys"},
		} {
			status, _ := keyedJSON(t, ep.method, ts.URL+ep.path, probe.key, strings.NewReader(`{}`), nil)
			if status != probe.want {
				t.Errorf("%s %s with key=%q: status %d, want %d", ep.method, ep.path, probe.key, status, probe.want)
			}
		}
	}
}

// TestTenantAdminAPI drives tenant management over HTTP with the admin
// key: create, list, get, quota update, key rotation (additive and
// revoking), delete.
func TestTenantAdminAPI(t *testing.T) {
	_, ts, _ := newTenantServer(t, Options{}, nil)
	admin := tenantTestAdminKey

	var created TenantKeyResponse
	status, _ := keyedJSON(t, "POST", ts.URL+"/v1/tenants", admin,
		strings.NewReader(`{"name":"acme","quotas":{"max_datasets":2}}`), &created)
	if status != http.StatusCreated || created.Key == "" {
		t.Fatalf("create tenant: status %d, resp %+v", status, created)
	}
	id := created.Tenant.ID
	if created.Tenant.Quotas.MaxDatasets != 2 {
		t.Fatalf("created quotas = %+v", created.Tenant.Quotas)
	}
	// Negative quotas are rejected.
	if status, _ := keyedJSON(t, "POST", ts.URL+"/v1/tenants", admin,
		strings.NewReader(`{"name":"bad","quotas":{"max_datasets":-1}}`), nil); status != http.StatusBadRequest {
		t.Errorf("negative quota create: status %d, want 400", status)
	}

	var list struct {
		Tenants []tenant.Info `json:"tenants"`
	}
	keyedJSON(t, "GET", ts.URL+"/v1/tenants", admin, nil, &list)
	if len(list.Tenants) != 1 || list.Tenants[0].ID != id {
		t.Fatalf("tenant list = %+v", list.Tenants)
	}

	var got tenant.Info
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/tenants/"+id, admin, nil, &got); status != http.StatusOK || got.Name != "acme" {
		t.Fatalf("get tenant: status %d, %+v", status, got)
	}
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/tenants/tn_0000000000000000", admin, nil, nil); status != http.StatusNotFound {
		t.Errorf("get unknown tenant: status %d, want 404", status)
	}

	// Quota update.
	var updated tenant.Info
	keyedJSON(t, "PUT", ts.URL+"/v1/tenants/"+id+"/quotas", admin,
		strings.NewReader(`{"max_sessions":9}`), &updated)
	if updated.Quotas.MaxSessions != 9 || updated.Quotas.MaxDatasets != 0 {
		t.Fatalf("quotas after PUT = %+v (PUT replaces wholesale)", updated.Quotas)
	}

	// Additive mint keeps the old key alive; revoking rotation kills it.
	var minted TenantKeyResponse
	keyedJSON(t, "POST", ts.URL+"/v1/tenants/"+id+"/keys", admin, strings.NewReader(`{}`), &minted)
	if len(minted.Tenant.KeyIDs) != 2 {
		t.Fatalf("key ids after mint = %v", minted.Tenant.KeyIDs)
	}
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/datasets", created.Key, nil, nil); status != http.StatusOK {
		t.Error("original key dead after additive mint")
	}
	var rotated TenantKeyResponse
	keyedJSON(t, "POST", ts.URL+"/v1/tenants/"+id+"/keys", admin, strings.NewReader(`{"revoke_existing":true}`), &rotated)
	if len(rotated.Tenant.KeyIDs) != 1 {
		t.Fatalf("key ids after revoking rotate = %v", rotated.Tenant.KeyIDs)
	}
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/datasets", created.Key, nil, nil); status != http.StatusUnauthorized {
		t.Error("revoked key still authenticates")
	}
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/datasets", rotated.Key, nil, nil); status != http.StatusOK {
		t.Error("rotated key does not authenticate")
	}

	// Delete: key dies, tenant vanishes from the listing.
	if status, _ := keyedJSON(t, "DELETE", ts.URL+"/v1/tenants/"+id, admin, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete tenant: status %d", status)
	}
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/datasets", rotated.Key, nil, nil); status != http.StatusUnauthorized {
		t.Error("deleted tenant's key still authenticates")
	}
}

// TestTenantQuotas enforces the three resource quotas with their
// documented status codes: datasets 403, sessions 403, upload bytes
// 413.
func TestTenantQuotas(t *testing.T) {
	_, ts, reg := newTenantServer(t, Options{Prefetch: 2}, nil)
	_, key := mintTenant(t, reg, "boxed", tenant.Quotas{
		MaxDatasets:    2,
		MaxSessions:    1,
		MaxUploadBytes: int64(len(paperCSV)) + 64,
	})

	ds1 := tenantUpload(t, ts.URL, key, "one")
	tenantUpload(t, ts.URL, key, "two")
	status, _ := keyedJSON(t, "POST", ts.URL+"/v1/datasets?name=three&key=key", key, strings.NewReader(paperCSV), nil)
	if status != http.StatusForbidden {
		t.Fatalf("third dataset beyond quota: status %d, want 403", status)
	}

	tenantOpenSession(t, ts.URL, key, ds1.ID, "Name")
	status, _ = keyedJSON(t, "POST", ts.URL+"/v1/datasets/"+ds1.ID+"/sessions", key, strings.NewReader(`{"column":"Address"}`), nil)
	if status != http.StatusForbidden {
		t.Fatalf("second session beyond quota: status %d, want 403", status)
	}

	// An oversized body trips the tenant's MaxUploadBytes (the
	// service-wide cap is off), even though dataset quota still has
	// room after a delete.
	if status, _ := keyedJSON(t, "DELETE", ts.URL+"/v1/datasets/"+ds1.ID, key, nil, nil); status != http.StatusNoContent {
		t.Fatal("delete to free a dataset slot failed")
	}
	big := paperCSV + strings.Repeat("C2,filler,filler\n", 64)
	status, _ = keyedJSON(t, "POST", ts.URL+"/v1/datasets?name=big&key=key", key, strings.NewReader(big), nil)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized tenant upload: status %d, want 413", status)
	}
}

// TestTenantRateLimit drives the decisions/sec token bucket through
// HTTP on a shared fake clock: breaches return 429 with a Retry-After
// that, once waited out, admits the next decision.
func TestTenantRateLimit(t *testing.T) {
	fc := newFakeClock(time.Unix(1700000000, 0))
	reg, err := tenant.Open(nil, fc)
	if err != nil {
		t.Fatal(err)
	}
	svc, ts, _ := newTenantServer(t, Options{Prefetch: 4, clock: fc}, reg)
	_, key := mintTenant(t, reg, "throttled", tenant.Quotas{DecisionsPerSec: 1, DecisionBurst: 1})

	ds := tenantUpload(t, ts.URL, key, "rl")
	sess := tenantOpenSession(t, ts.URL, key, ds.ID, "Name")
	g1 := tenantNextGroup(t, ts.URL, key, sess.ID)

	decide := func(gid int) (int, http.Header) {
		body := fmt.Sprintf(`{"group_id":%d,"decision":"reject"}`, gid)
		return keyedJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/decisions", key, strings.NewReader(body), nil)
	}
	if status, _ := decide(g1.ID); status != http.StatusOK {
		t.Fatalf("first decision: status %d", status)
	}
	g2 := tenantNextGroup(t, ts.URL, key, sess.ID)
	status, hdr := decide(g2.ID)
	if status != http.StatusTooManyRequests {
		t.Fatalf("decision beyond rate: status %d, want 429", status)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (rate 1/s, rounded up)", ra)
	}

	// Advancing past the advertised wait admits the decision; the
	// refused attempt shows up in the tenant's rate_limited counter.
	fc.Advance(time.Second)
	if status, _ := decide(g2.ID); status != http.StatusOK {
		t.Fatalf("decision after Retry-After: status %d", status)
	}
	snap := svc.metricsSnapshot("")
	var throttledID string
	for _, info := range reg.List() {
		throttledID = info.ID
	}
	if m := snap.Tenants[throttledID]; m.RateLimited != 1 || m.Decisions != 2 {
		t.Fatalf("tenant metrics = %+v, want 1 rate-limited, 2 decisions", m)
	}
}

// TestForeignProbeHasNoSideEffects: a foreign tenant probing another
// tenant's passivated dataset gets its 404 without reactivating the
// dataset — ownership is resolved from the store meta before any
// restore, so probes can neither defeat passivation nor keep a
// victim's state alive.
func TestForeignProbeHasNoSideEffects(t *testing.T) {
	fc := newFakeClock(time.Unix(1700000000, 0))
	fsStore, err := store.OpenFS(t.TempDir(), store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fsStore.Close() })
	reg, err := tenant.Open(fsStore, fc)
	if err != nil {
		t.Fatal(err)
	}
	svc, ts, _ := newTenantServer(t, Options{
		Prefetch: 2, Store: fsStore, TTL: time.Minute,
		JanitorInterval: 24 * time.Hour, clock: fc,
	}, reg)
	_, aKey := mintTenant(t, reg, "alpha", tenant.Quotas{})
	_, bKey := mintTenant(t, reg, "beta", tenant.Quotas{})
	aDS := tenantUpload(t, ts.URL, aKey, "alpha-data")
	aSess := tenantOpenSession(t, ts.URL, aKey, aDS.ID, "Name")

	// Passivate alpha's dataset (persistent store: eviction keeps it
	// restorable).
	fc.Advance(2 * time.Minute)
	if d, _ := evictAll(svc); d != 1 {
		t.Fatalf("evicted %d datasets, want 1", d)
	}
	if _, live := svc.datasets.peek(aDS.ID); live {
		t.Fatal("dataset still live after eviction")
	}

	// Beta probes both ids: 404, and the dataset stays passivated.
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/datasets/"+aDS.ID, bKey, nil, nil); status != http.StatusNotFound {
		t.Fatalf("foreign probe of passivated dataset: status %d", status)
	}
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/sessions/"+aSess.ID, bKey, nil, nil); status != http.StatusNotFound {
		t.Fatalf("foreign probe of passivated session: status %d", status)
	}
	if _, live := svc.datasets.peek(aDS.ID); live {
		t.Fatal("foreign probe reactivated the passivated dataset")
	}

	// The owner's touch still restores it transparently.
	if status, _ := keyedJSON(t, "GET", ts.URL+"/v1/datasets/"+aDS.ID, aKey, nil, nil); status != http.StatusOK {
		t.Fatal("owner cannot reactivate its own passivated dataset")
	}
	if _, live := svc.datasets.peek(aDS.ID); !live {
		t.Fatal("owner's touch did not restore the dataset")
	}

	// A foreign DELETE of the live dataset is a probe too: 404, and the
	// idle timer the owner's touch set keeps running.
	fc.Advance(50 * time.Second)
	if status, _ := keyedJSON(t, "DELETE", ts.URL+"/v1/datasets/"+aDS.ID, bKey, nil, nil); status != http.StatusNotFound {
		t.Fatalf("foreign DELETE of live dataset: status %d", status)
	}
	fc.Advance(20 * time.Second)
	if d, _ := evictAll(svc); d != 1 {
		t.Fatalf("evicted %d datasets after a foreign DELETE, want 1: the probe kept the dataset alive", d)
	}
}

// TestTenantOwnershipRecovery is the crash/recovery leg: tenants and
// dataset ownership survive a restart byte-identically, and isolation
// still holds against the recovered state.
func TestTenantOwnershipRecovery(t *testing.T) {
	dir := storeDir(t)
	fsStore, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.Open(fsStore, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Prefetch: 2, Store: fsStore, Shards: testShards(t), Tenants: reg, AdminKey: tenantTestAdminKey})
	ts := httptest.NewServer(svc.Handler())

	_, aKey := mintTenant(t, reg, "alpha", tenant.Quotas{MaxDatasets: 4})
	_, bKey := mintTenant(t, reg, "beta", tenant.Quotas{})
	aDS := tenantUpload(t, ts.URL, aKey, "alpha-data")
	aSess := tenantOpenSession(t, ts.URL, aKey, aDS.ID, "Name")
	g := tenantNextGroup(t, ts.URL, aKey, aSess.ID)
	decBody := fmt.Sprintf(`{"group_id":%d,"decision":"approve"}`, g.ID)
	if status, _ := keyedJSON(t, "POST", ts.URL+"/v1/sessions/"+aSess.ID+"/decisions", aKey, strings.NewReader(decBody), nil); status != http.StatusOK {
		t.Fatal("alpha's decision failed")
	}
	bDS := tenantUpload(t, ts.URL, bKey, "beta-data")
	tenantsBefore := mustJSON(t, reg.List())

	// Crash: no graceful flush anywhere.
	ts.Close()
	killService(svc)

	fsStore2, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg2, err := tenant.Open(fsStore2, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Options{Prefetch: 2, Store: fsStore2, Shards: testShards(t), Tenants: reg2, AdminKey: tenantTestAdminKey})
	if _, _, err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(svc2.Handler())
	defer func() {
		ts2.Close()
		killService(svc2)
	}()

	// The tenant registry restored byte-identically.
	if tenantsAfter := mustJSON(t, reg2.List()); string(tenantsBefore) != string(tenantsAfter) {
		t.Fatalf("tenants did not round-trip\nbefore: %s\nafter:  %s", tenantsBefore, tenantsAfter)
	}

	// Ownership survived: each key sees exactly its own data, and the
	// foreign probes still 404.
	var dsList struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	keyedJSON(t, "GET", ts2.URL+"/v1/datasets", aKey, nil, &dsList)
	if len(dsList.Datasets) != 1 || dsList.Datasets[0].ID != aDS.ID {
		t.Fatalf("alpha's recovered listing = %+v", dsList.Datasets)
	}
	keyedJSON(t, "GET", ts2.URL+"/v1/datasets", bKey, nil, &dsList)
	if len(dsList.Datasets) != 1 || dsList.Datasets[0].ID != bDS.ID {
		t.Fatalf("beta's recovered listing = %+v", dsList.Datasets)
	}
	if status, _ := keyedJSON(t, "GET", ts2.URL+"/v1/datasets/"+aDS.ID, bKey, nil, nil); status != http.StatusNotFound {
		t.Errorf("beta sees alpha's recovered dataset: status %d", status)
	}
	if status, _ := keyedJSON(t, "GET", ts2.URL+"/v1/sessions/"+aSess.ID, bKey, nil, nil); status != http.StatusNotFound {
		t.Errorf("beta sees alpha's recovered session: status %d", status)
	}
	// Recovery registers the session at once but publishes it only after
	// its WAL replay, so poll until it leaves "initializing".
	var sessInfo SessionInfo
	for deadline := time.Now().Add(30 * time.Second); ; {
		if status, _ := keyedJSON(t, "GET", ts2.URL+"/v1/sessions/"+aSess.ID, aKey, nil, &sessInfo); status != http.StatusOK {
			t.Fatalf("alpha's recovered session: status %d", status)
		}
		if sessInfo.Status != StatusInitializing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("alpha's recovered session never finished its replay")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sessInfo.Stats.GroupsSeen == 0 {
		t.Error("alpha's recovered session lost its decision history")
	}
}

// TestMetricsEndpoint covers GET /v1/metrics in open mode (public,
// anonymous bucket) and auth mode (admin sees all tenants, a tenant
// key only itself).
func TestMetricsEndpoint(t *testing.T) {
	// Open mode: no auth, traffic lands in the anonymous bucket.
	_, ts := newTestServer(t, Options{Shards: 4})
	uploadPaperDataset(t, ts.URL)
	var m MetricsInfo
	if status := doJSON(t, "GET", ts.URL+"/v1/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	if m.Datasets != 1 {
		t.Fatalf("metrics datasets = %d, want 1", m.Datasets)
	}
	if len(m.DatasetShards) == 0 || len(m.SessionShards) == 0 {
		t.Fatal("metrics missing shard occupancy")
	}
	sum := 0
	for _, n := range m.DatasetShards {
		sum += n
	}
	if sum != m.Datasets {
		t.Fatalf("shard occupancy sums to %d, want %d", sum, m.Datasets)
	}
	if !testAuth {
		if m.Tenants[anonTenant].Requests == 0 || m.Tenants[anonTenant].UploadBytes == 0 {
			t.Fatalf("anonymous counters = %+v", m.Tenants[anonTenant])
		}
	}

	// Auth mode: tenant keys see only their own slice.
	svc2, ts2, reg := newTenantServer(t, Options{}, nil)
	aID, aKey := mintTenant(t, reg, "alpha", tenant.Quotas{})
	bID, bKey := mintTenant(t, reg, "beta", tenant.Quotas{})
	tenantUpload(t, ts2.URL, aKey, "alpha-data")
	tenantUpload(t, ts2.URL, bKey, "beta-data")

	var am MetricsInfo
	if status, _ := keyedJSON(t, "GET", ts2.URL+"/v1/metrics", aKey, nil, &am); status != http.StatusOK {
		t.Fatalf("tenant metrics: status %d", status)
	}
	if _, leaks := am.Tenants[bID]; leaks {
		t.Error("alpha's metrics leak beta's counters")
	}
	if am.Tenants[aID].UploadBytes == 0 || am.Tenants[aID].Requests == 0 {
		t.Fatalf("alpha's own counters empty: %+v", am.Tenants[aID])
	}
	var full MetricsInfo
	keyedJSON(t, "GET", ts2.URL+"/v1/metrics", tenantTestAdminKey, nil, &full)
	if _, ok := full.Tenants[aID]; !ok {
		t.Error("admin metrics missing alpha")
	}
	if _, ok := full.Tenants[bID]; !ok {
		t.Error("admin metrics missing beta")
	}

	// The exposition carries every tenant's series, so on the API
	// listener it is admin-only; the debug-listener handler stays open.
	var envelope map[string]any
	if status, _ := keyedJSON(t, "GET", ts2.URL+"/metrics/prometheus", aKey, nil, &envelope); status != http.StatusForbidden || envelope["code"] != "forbidden" {
		t.Errorf("tenant exposition: status %d, envelope %v, want a 403 forbidden envelope", status, envelope)
	}
	if status, _ := keyedJSON(t, "GET", ts2.URL+"/metrics/prometheus", tenantTestAdminKey, nil, nil); status != http.StatusOK {
		t.Errorf("admin exposition: status %d, want 200", status)
	}
	rec := httptest.NewRecorder()
	svc2.PrometheusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/prometheus", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), bID) {
		t.Errorf("PrometheusHandler without a key: status %d, want 200 with every tenant's series", rec.Code)
	}
}
