package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/goldrec/goldrec/internal/store"
)

// fakeClock is a manually-advanced Clock for deterministic rate-limit
// tests.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time           { return c.now }
func (c *fakeClock) Advance(d time.Duration)  { c.now = c.now.Add(d) }
func newFakeClock(start time.Time) *fakeClock { return &fakeClock{now: start} }

// compactEvery is store.Journal's compaction period: its log is
// rewritten to one state record once it holds this many records.
const compactEvery = 64

// logLines returns the non-blank lines of the file at path (none when
// it is missing).
func logLines(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return out
}

// reopen opens a fresh store and registry over dir; the store closes
// with the test.
func reopen(t *testing.T, dir string) *Registry {
	t.Helper()
	st, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	r, err := Open(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustCreate(t *testing.T, r *Registry, name string, q Quotas) (Info, string) {
	t.Helper()
	info, key, err := r.Create(name, q)
	if err != nil {
		t.Fatalf("Create(%q): %v", name, err)
	}
	return info, key
}

func TestCreateAuthenticate(t *testing.T) {
	r, err := Open(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	info, key := mustCreate(t, r, "acme", Quotas{MaxDatasets: 3})
	if !strings.HasPrefix(info.ID, "tn_") {
		t.Errorf("tenant id = %q, want tn_ prefix", info.ID)
	}
	if !strings.HasPrefix(key, "grk_") || len(key) < 20 {
		t.Errorf("key = %q, want long grk_ key", key)
	}
	if len(info.KeyIDs) != 1 || len(info.KeyIDs[0]) != 8 {
		t.Errorf("key ids = %v, want one 8-hex-digit id", info.KeyIDs)
	}
	if strings.Contains(strings.Join(info.KeyIDs, ""), key) {
		t.Error("key id leaks the plaintext key")
	}

	got, _, ok := r.AuthenticateKey(key)
	if !ok || got.ID != info.ID {
		t.Fatalf("AuthenticateKey(minted key) = %+v, %v", got, ok)
	}
	if _, _, ok := r.AuthenticateKey("grk_deadbeefdeadbeefdeadbeefdeadbeef"); ok {
		t.Error("wrong key authenticated")
	}
	if _, _, ok := r.AuthenticateKey(""); ok {
		t.Error("empty key authenticated")
	}
	if got.Quotas.MaxDatasets != 3 {
		t.Errorf("quotas did not round-trip: %+v", got.Quotas)
	}
}

func TestQuotasValidate(t *testing.T) {
	bad := []Quotas{
		{MaxDatasets: -1},
		{MaxSessions: -1},
		{MaxUploadBytes: -1},
		{DecisionsPerSec: -0.5},
		{DecisionBurst: -2},
	}
	for _, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a negative quota", q)
		}
	}
	if err := (Quotas{}).Validate(); err != nil {
		t.Errorf("zero quotas rejected: %v", err)
	}
	r, _ := Open(nil, nil)
	if _, _, err := r.Create("bad", Quotas{MaxDatasets: -1}); err == nil {
		t.Error("Create accepted negative quotas")
	}
}

func TestRotate(t *testing.T) {
	r, _ := Open(nil, nil)
	info, oldKey := mustCreate(t, r, "acme", Quotas{})

	// Additive mint: both keys work.
	after, newKey, err := r.Rotate(info.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.KeyIDs) != 2 {
		t.Fatalf("key ids after additive rotate = %v", after.KeyIDs)
	}
	if _, _, ok := r.AuthenticateKey(oldKey); !ok {
		t.Error("old key dead after additive rotate")
	}
	if _, _, ok := r.AuthenticateKey(newKey); !ok {
		t.Error("new key dead after additive rotate")
	}

	// Revoking rotate: only the newest key works.
	after, finalKey, err := r.Rotate(info.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.KeyIDs) != 1 {
		t.Fatalf("key ids after revoking rotate = %v", after.KeyIDs)
	}
	for _, dead := range []string{oldKey, newKey} {
		if _, _, ok := r.AuthenticateKey(dead); ok {
			t.Error("revoked key still authenticates")
		}
	}
	if _, _, ok := r.AuthenticateKey(finalKey); !ok {
		t.Error("final key dead after revoking rotate")
	}

	if _, _, err := r.Rotate("tn_0000000000000000", false); err == nil {
		t.Error("rotate on unknown tenant succeeded")
	}
}

func TestDelete(t *testing.T) {
	r, _ := Open(nil, nil)
	info, key := mustCreate(t, r, "gone", Quotas{})
	if err := r.Delete(info.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r.AuthenticateKey(key); ok {
		t.Error("deleted tenant's key still authenticates")
	}
	if _, err := r.Get(info.ID); err == nil {
		t.Error("deleted tenant still gettable")
	}
	if err := r.Delete(info.ID); err == nil {
		t.Error("double delete succeeded")
	}
}

func TestRateLimit(t *testing.T) {
	fc := newFakeClock(time.Unix(1700000000, 0))
	r, err := Open(nil, fc)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := mustCreate(t, r, "slow", Quotas{DecisionsPerSec: 2, DecisionBurst: 2})

	// The bucket starts full: burst decisions pass, the next is refused
	// with a sub-second retry hint (rate 2/s → next token in ≤ 500ms).
	for i := 0; i < 2; i++ {
		if ok, _ := r.AllowDecisions(info.ID, 1); !ok {
			t.Fatalf("decision %d refused within burst", i)
		}
	}
	ok, retry := r.AllowDecisions(info.ID, 1)
	if ok {
		t.Fatal("decision allowed beyond burst with no time passing")
	}
	if retry <= 0 || retry > 500*time.Millisecond {
		t.Fatalf("retry-after = %v, want (0, 500ms]", retry)
	}

	// Advancing by the hint accrues exactly one token.
	fc.Advance(retry)
	if ok, _ := r.AllowDecisions(info.ID, 1); !ok {
		t.Fatal("decision refused after waiting out retry-after")
	}
	if ok, _ := r.AllowDecisions(info.ID, 1); ok {
		t.Fatal("second decision allowed after a single-token refill")
	}

	// A long idle stretch refills to burst, not beyond.
	fc.Advance(time.Hour)
	allowed := 0
	for i := 0; i < 10; i++ {
		if ok, _ := r.AllowDecisions(info.ID, 1); ok {
			allowed++
		}
	}
	if allowed != 2 {
		t.Fatalf("allowed %d decisions after refill, want burst=2", allowed)
	}

	// Zero rate means unlimited, as does an unknown tenant.
	free, _ := mustCreate(t, r, "free", Quotas{})
	for i := 0; i < 100; i++ {
		if ok, _ := r.AllowDecisions(free.ID, 1); !ok {
			t.Fatal("unlimited tenant rate-limited")
		}
	}
	if ok, _ := r.AllowDecisions("tn_0000000000000000", 1); !ok {
		t.Error("unknown tenant rate-limited")
	}
}

func TestRateLimitBatch(t *testing.T) {
	fc := newFakeClock(time.Unix(1700000000, 0))
	r, err := Open(nil, fc)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := mustCreate(t, r, "batcher", Quotas{DecisionsPerSec: 2, DecisionBurst: 4})

	// All-or-nothing: a batch larger than the balance is refused
	// without burning any token — the full bucket must still admit a
	// burst-sized batch afterwards.
	ok, retry := r.AllowDecisions(info.ID, 6)
	if ok {
		t.Fatal("batch of 6 admitted with burst 4")
	}
	// 2 tokens short at 2/s → at least a second until it could fit.
	if retry < time.Second {
		t.Fatalf("retry-after = %v, want >= 1s (2 tokens short at 2/s)", retry)
	}
	if ok, _ := r.AllowDecisions(info.ID, 4); !ok {
		t.Fatal("burst-sized batch refused after a rejected oversized batch (tokens were burned)")
	}
	if ok, _ := r.AllowDecisions(info.ID, 1); ok {
		t.Fatal("decision allowed from a drained bucket")
	}

	// Refill admits exactly the accrued amount, batch-wise.
	fc.Advance(time.Second) // +2 tokens
	if ok, _ := r.AllowDecisions(info.ID, 3); ok {
		t.Fatal("batch of 3 admitted with only 2 tokens accrued")
	}
	if ok, _ := r.AllowDecisions(info.ID, 2); !ok {
		t.Fatal("batch of 2 refused with 2 tokens accrued")
	}

	// n <= 0 and unlimited tenants are always admitted.
	if ok, _ := r.AllowDecisions(info.ID, 0); !ok {
		t.Error("zero-size batch refused")
	}
	free, _ := mustCreate(t, r, "free", Quotas{})
	if ok, _ := r.AllowDecisions(free.ID, 1000); !ok {
		t.Error("unlimited tenant's batch refused")
	}
}

func TestDefaultBurst(t *testing.T) {
	if b := (Quotas{DecisionsPerSec: 2.5}).burst(); b != 3 {
		t.Errorf("burst(2.5/s) = %v, want ceil = 3", b)
	}
	if b := (Quotas{DecisionsPerSec: 0.1}).burst(); b != 1 {
		t.Errorf("burst(0.1/s) = %v, want 1", b)
	}
	if b := (Quotas{DecisionsPerSec: 5, DecisionBurst: 20}).burst(); b != 20 {
		t.Errorf("explicit burst = %v, want 20", b)
	}
}

// TestPersistenceRoundTrip: tenants created through one registry are
// recovered byte-identically by a fresh registry over the same store.
func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, aKey := mustCreate(t, r, "alpha", Quotas{MaxDatasets: 2, DecisionsPerSec: 5})
	b, _ := mustCreate(t, r, "beta", Quotas{})
	if _, _, err := r.Rotate(a.ID, false); err != nil {
		t.Fatal(err)
	}
	victim, _ := mustCreate(t, r, "victim", Quotas{})
	if err := r.Delete(victim.ID); err != nil {
		t.Fatal(err)
	}
	before := mustJSON(t, r.List())
	st.Close()

	st2, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r2, err := Open(st2, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := mustJSON(t, r2.List())
	if string(before) != string(after) {
		t.Fatalf("registry did not round-trip\nbefore: %s\nafter:  %s", before, after)
	}
	if got, _, ok := r2.AuthenticateKey(aKey); !ok || got.ID != a.ID {
		t.Error("recovered registry rejects alpha's key")
	}
	if _, err := r2.Get(b.ID); err != nil {
		t.Errorf("recovered registry lost beta: %v", err)
	}
	if _, err := r2.Get(victim.ID); err == nil {
		t.Error("recovered registry resurrected a deleted tenant")
	}
}

// TestCompaction: past compactEvery changes the registry rewrites its
// log to a state record, writes no snapshot.json, and recovery still
// matches.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := mustCreate(t, r, "churny", Quotas{})
	for i := 0; i < compactEvery+4; i++ {
		if _, err := r.SetQuotas(info.ID, Quotas{MaxDatasets: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "tenants", "snapshot.json")); !os.IsNotExist(err) {
		t.Fatalf("compaction wrote snapshot.json: %v", err)
	}
	lines := logLines(t, filepath.Join(dir, "tenants", "changes.jsonl"))
	if len(lines) >= compactEvery || !strings.HasPrefix(lines[0], `{"version":1,`) {
		t.Fatalf("log after %d changes holds %d records, the first %.40s; want a state record first", compactEvery+4, len(lines), lines[0])
	}
	before := mustJSON(t, r.List())
	st.Close()

	st2, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r2, err := Open(st2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after := mustJSON(t, r2.List()); string(before) != string(after) {
		t.Fatalf("compacted registry did not round-trip\nbefore: %s\nafter:  %s", before, after)
	}
	got, err := r2.Get(info.ID)
	if err != nil || got.Quotas.MaxDatasets != compactEvery+4 {
		t.Fatalf("recovered quotas = %+v, %v", got, err)
	}
}

// TestCompactionBoundaryMutation: the mutation whose change record
// lands exactly on the compaction threshold must survive a restart.
// (Regression: compaction used to snapshot the registry before the
// caller applied the mutation and then clear the log holding its
// change record, durably losing every compactEvery-th mutation —
// masked whenever a later change overwrote the same tenant.)
func TestCompactionBoundaryMutation(t *testing.T) {
	// The boundary SetQuotas is the LAST mutation before restart.
	dir := t.TempDir()
	st, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := mustCreate(t, r, "edge", Quotas{}) // change 1
	for i := 2; i <= compactEvery; i++ {          // changes 2..compactEvery
		if _, err := r.SetQuotas(info.ID, Quotas{MaxDatasets: i}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	st2, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r2, err := Open(st2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r2.Get(info.ID)
	if err != nil || got.Quotas.MaxDatasets != compactEvery {
		t.Fatalf("boundary mutation lost: quotas = %+v, %v; want MaxDatasets=%d", got.Quotas, err, compactEvery)
	}

	// A Delete on the boundary must not resurrect the tenant (and its
	// revoked keys) after restart.
	dir2 := t.TempDir()
	st3, err := store.OpenFS(dir2, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Open(st3, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim, victimKey := mustCreate(t, r3, "victim", Quotas{}) // change 1
	pad, _ := mustCreate(t, r3, "pad", Quotas{})               // change 2
	for i := 3; i < compactEvery; i++ {                        // changes 3..compactEvery-1
		if _, err := r3.SetQuotas(pad.ID, Quotas{MaxDatasets: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r3.Delete(victim.ID); err != nil { // change compactEvery → compacts
		t.Fatal(err)
	}
	st3.Close()
	st4, err := store.OpenFS(dir2, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st4.Close()
	r4, err := Open(st4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r4.Get(victim.ID); err == nil {
		t.Fatal("boundary delete lost: tenant resurrected after restart")
	}
	if _, _, ok := r4.AuthenticateKey(victimKey); ok {
		t.Fatal("boundary delete lost: revoked key authenticates after restart")
	}
}

// writeParentDir writes a tenant registry in the parent format by
// hand: snapshot.json beside changes.jsonl.
func writeParentDir(t *testing.T, dir, snapshot string, changes ...string) {
	t.Helper()
	sub := filepath.Join(dir, "tenants")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "snapshot.json"), []byte(snapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	for _, c := range changes {
		log.WriteString(c + "\n")
	}
	if err := os.WriteFile(filepath.Join(sub, "changes.jsonl"), []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStaleLogConvergence: a change log replayed over a snapshot that
// already holds it — the parent's crash window between its snapshot
// write and its log clear — converges to the snapshot state, and so
// does a snapshot.json left beside a rewritten log — the crash window
// between a rewrite and the snapshot's removal.
func TestStaleLogConvergence(t *testing.T) {
	const (
		acme0 = `{"id":"tn_0a","name":"acme","created":"2024-01-02T03:04:05Z","quotas":{},"key_hashes":[]}`
		acme7 = `{"id":"tn_0a","name":"acme","created":"2024-01-02T03:04:05Z","quotas":{"max_datasets":7},"key_hashes":[]}`
		acme9 = `{"id":"tn_0a","name":"acme","created":"2024-01-02T03:04:05Z","quotas":{"max_datasets":9},"key_hashes":[]}`
	)
	dir := t.TempDir()
	writeParentDir(t, dir, `{"version":1,"tenants":[`+acme7+`]}`,
		`{"op":"put","tenant":`+acme0+`}`,
		`{"op":"put","tenant":`+acme7+`}`)
	got, err := reopen(t, dir).Get("tn_0a")
	if err != nil || got.Quotas.MaxDatasets != 7 {
		t.Fatalf("after stale-log replay: %+v, %v; want MaxDatasets=7", got, err)
	}

	dir = t.TempDir()
	gone := `{"id":"tn_0b","name":"gone","created":"2024-01-03T00:00:00Z","quotas":{},"key_hashes":[]}`
	writeParentDir(t, dir, `{"version":1,"tenants":[`+acme0+`,`+gone+`]}`, `{"version":1,"tenants":[`+acme9+`]}`)
	r := reopen(t, dir)
	got, err = r.Get("tn_0a")
	if err != nil || got.Quotas.MaxDatasets != 9 || len(r.List()) != 1 {
		t.Fatalf("snapshot.json beside a rewritten log: %+v, %v, %d tenants; want MaxDatasets=9, 1 tenant", got, err, len(r.List()))
	}
}

// TestRecoverParentFormat: a registry the parent format wrote —
// snapshot.json plus a change log whose head repeats records the
// snapshot already holds — loads to exactly the state written, and the
// next compaction leaves no snapshot.json behind.
func TestRecoverParentFormat(t *testing.T) {
	const key = "grk_00112233445566778899aabbccddeeff"
	acme0 := fmt.Sprintf(`{"id":"tn_0a","name":"acme","created":"2024-01-02T03:04:05Z","quotas":{},"key_hashes":[%q]}`, hashKey(key))
	acme := fmt.Sprintf(`{"id":"tn_0a","name":"acme","created":"2024-01-02T03:04:05Z","quotas":{"max_datasets":7,"decisions_per_sec":2},"key_hashes":[%q]}`, hashKey(key))
	beta := `{"id":"tn_0b","name":"beta","created":"2024-01-03T00:00:00Z","quotas":{},"key_hashes":[]}`
	gone := `{"id":"tn_0c","name":"gone","created":"2024-01-04T00:00:00Z","quotas":{},"key_hashes":[]}`
	late := `{"id":"tn_0d","name":"late","created":"2024-01-05T00:00:00Z","quotas":{"max_sessions":3},"key_hashes":[]}`
	dir := t.TempDir()
	writeParentDir(t, dir, `{"version":1,"tenants":[`+acme+`,`+beta+`,`+gone+`]}`,
		`{"op":"put","tenant":`+acme0+`}`, // stale: the snapshot holds these two
		`{"op":"put","tenant":`+acme+`}`,
		`{"op":"delete","id":"tn_0c"}`, // new since the snapshot
		`{"op":"put","tenant":`+late+`}`)

	day := func(d int) time.Time { return time.Date(2024, 1, d, 0, 0, 0, 0, time.UTC) }
	want := []Info{
		{ID: "tn_0a", Name: "acme", Created: day(2).Add(3*time.Hour + 4*time.Minute + 5*time.Second),
			Quotas: Quotas{MaxDatasets: 7, DecisionsPerSec: 2}, KeyIDs: []string{hashKey(key)[:8]}},
		{ID: "tn_0b", Name: "beta", Created: day(3), KeyIDs: []string{}},
		{ID: "tn_0d", Name: "late", Created: day(5), Quotas: Quotas{MaxSessions: 3}, KeyIDs: []string{}},
	}
	r := reopen(t, dir)
	if got := r.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("parent-format registry loaded as\n%+v\nwant\n%+v", got, want)
	}
	if got, _, ok := r.AuthenticateKey(key); !ok || got.ID != "tn_0a" {
		t.Fatal("parent-format key does not authenticate")
	}

	for i := 0; i < compactEvery; i++ {
		if _, err := r.SetQuotas("tn_0b", Quotas{MaxDatasets: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "tenants", "snapshot.json")); !os.IsNotExist(err) {
		t.Fatalf("snapshot.json survived compaction: %v", err)
	}
	if got, want := mustJSON(t, reopen(t, dir).List()), mustJSON(t, r.List()); string(got) != string(want) {
		t.Fatalf("reloaded after compaction\n%s\nwant\n%s", got, want)
	}
}

// TestCompactionLeavesStateRecord: the compactEvery-th change rewrites
// the log to one state record, and a reload of that one record lists
// the same registry.
func TestCompactionLeavesStateRecord(t *testing.T) {
	dir := t.TempDir()
	r := reopen(t, dir)
	a, _ := mustCreate(t, r, "a", Quotas{})
	mustCreate(t, r, "b", Quotas{})
	for i := 3; i <= compactEvery; i++ {
		if _, err := r.SetQuotas(a.ID, Quotas{MaxDatasets: i}); err != nil {
			t.Fatal(err)
		}
	}
	lines := logLines(t, filepath.Join(dir, "tenants", "changes.jsonl"))
	if len(lines) != 1 || !strings.HasPrefix(lines[0], `{"version":1,"tenants":[`) {
		t.Fatalf("log after %d changes = %d records %.60q; want one state record", compactEvery, len(lines), lines)
	}
	want := mustJSON(t, r.List())
	if got := mustJSON(t, reopen(t, dir).List()); string(got) != string(want) {
		t.Fatalf("state record reloaded as\n%s\nwant\n%s", got, want)
	}
}

func TestListOrder(t *testing.T) {
	fc := newFakeClock(time.Unix(1700000000, 0))
	r, _ := Open(nil, fc)
	var want []string
	for _, name := range []string{"a", "b", "c"} {
		info, _ := mustCreate(t, r, name, Quotas{})
		want = append(want, info.ID)
		fc.Advance(time.Second)
	}
	var got []string
	for _, info := range r.List() {
		got = append(got, info.ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("List order = %v, want creation order %v", got, want)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
