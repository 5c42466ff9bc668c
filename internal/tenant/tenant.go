// Package tenant is goldrecd's multi-tenancy subsystem: a durable
// registry of tenants, their API keys, their resource quotas and their
// request-rate budgets. It is the unit of isolation the service builds
// on — every dataset and session records an owning tenant id, and the
// HTTP layer resolves an API key to that id before any data is touched.
//
// Security model:
//
//   - API keys are generated server-side ("grk_" + 128 random bits) and
//     returned in plaintext exactly once, at mint time. The registry
//     stores only their SHA-256 digests; a stolen snapshot or change
//     log never yields a usable key.
//   - Authentication hashes the presented key and compares digests with
//     crypto/subtle's constant-time compare, so response timing leaks
//     nothing about how much of a guessed key matched.
//
// Rate limiting: each tenant carries a token bucket for reviewer
// decisions (Quotas.DecisionsPerSec refill, Quotas.DecisionBurst
// capacity), advanced by an injected Clock so tests drive it with
// explicit time instead of sleeps.
//
// Durability: the registry persists as a store.Journal on
// store.TenantLog. Every mutation appends a change record before it is
// acknowledged — a "put" carries the tenant's full record, a "delete"
// its id — and compaction rewrites the log to one state record, the
// whole registry, which replay resets to.
package tenant

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/goldrec/goldrec/internal/store"
)

// ErrNotFound is returned when a tenant id is unknown (or was deleted).
var ErrNotFound = errors.New("tenant: not found")

// Clock abstracts time for the rate-limit buckets. The service injects
// its own clock so TTL eviction and rate limiting advance together in
// tests; nil means the wall clock.
type Clock interface {
	Now() time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// Quotas bound one tenant's resource consumption. The zero value of
// every field means "unlimited" — a tenant created with zero Quotas
// behaves exactly like the pre-tenancy service.
type Quotas struct {
	// MaxDatasets caps the datasets the tenant owns, live or passivated.
	MaxDatasets int `json:"max_datasets,omitempty"`
	// MaxSessions caps the tenant's live column sessions.
	MaxSessions int `json:"max_sessions,omitempty"`
	// MaxUploadBytes caps one dataset upload's body size.
	MaxUploadBytes int64 `json:"max_upload_bytes,omitempty"`
	// DecisionsPerSec refills the tenant's decision token bucket.
	DecisionsPerSec float64 `json:"decisions_per_sec,omitempty"`
	// DecisionBurst is the bucket's capacity (0 = ceil(DecisionsPerSec),
	// minimum 1): how many decisions can land back-to-back before the
	// refill rate governs.
	DecisionBurst int `json:"decision_burst,omitempty"`
}

// Validate rejects negative quota values.
func (q Quotas) Validate() error {
	switch {
	case q.MaxDatasets < 0:
		return fmt.Errorf("tenant: max_datasets must be >= 0")
	case q.MaxSessions < 0:
		return fmt.Errorf("tenant: max_sessions must be >= 0")
	case q.MaxUploadBytes < 0:
		return fmt.Errorf("tenant: max_upload_bytes must be >= 0")
	case q.DecisionsPerSec < 0:
		return fmt.Errorf("tenant: decisions_per_sec must be >= 0")
	case q.DecisionBurst < 0:
		return fmt.Errorf("tenant: decision_burst must be >= 0")
	}
	return nil
}

// burst returns the effective bucket capacity.
func (q Quotas) burst() float64 {
	if q.DecisionBurst > 0 {
		return float64(q.DecisionBurst)
	}
	b := q.DecisionsPerSec
	if b != float64(int64(b)) {
		b = float64(int64(b) + 1)
	}
	if b < 1 {
		b = 1
	}
	return b
}

// Info is the public view of one tenant — everything an admin response
// carries. Key material appears only as KeyIDs (digest prefixes).
type Info struct {
	ID      string    `json:"id"`
	Name    string    `json:"name"`
	Created time.Time `json:"created"`
	Quotas  Quotas    `json:"quotas"`
	// KeyIDs lists the first 8 hex digits of each active key's SHA-256
	// digest, enough to tell keys apart without exposing them.
	KeyIDs []string `json:"key_ids"`
}

// record is the persisted form of one tenant: Info plus the full key
// digests.
type record struct {
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	Created   time.Time `json:"created"`
	Quotas    Quotas    `json:"quotas"`
	KeyHashes []string  `json:"key_hashes"` // hex SHA-256, sorted
}

func (r record) info() Info {
	ids := make([]string, len(r.KeyHashes))
	for i, h := range r.KeyHashes {
		ids[i] = keyIDFromHash(h)
	}
	return Info{ID: r.ID, Name: r.Name, Created: r.Created, Quotas: r.Quotas, KeyIDs: ids}
}

func keyIDFromHash(hexHash string) string {
	if len(hexHash) < 8 {
		return hexHash
	}
	return hexHash[:8]
}

// hashKey returns the hex SHA-256 digest of an API key.
func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// state is the log's state record: the whole registry.
type state struct {
	Version int      `json:"version"`
	Tenants []record `json:"tenants"`
}

// change is one change record. Put carries the tenant's whole record.
type change struct {
	Op     string  `json:"op"` // "put" or "delete"
	Tenant *record `json:"tenant,omitempty"`
	ID     string  `json:"id,omitempty"`
}

// tenant is one live registry entry: the persisted record plus the
// in-memory token bucket.
type tenant struct {
	rec record // guarded by Registry.mu

	// bucket state, guarded by its own mutex so the decision hot path
	// never takes the registry write lock.
	bmu    sync.Mutex
	tokens float64
	last   time.Time // zero until the first AllowDecisions
}

// Registry is the durable tenant registry. All methods are safe for
// concurrent use.
type Registry struct {
	clock Clock

	mu      sync.RWMutex
	tenants map[string]*tenant
	log     *store.Journal // guarded by mu
}

// Open loads the registry from the store (its log replay) and returns
// it ready for use. A nil store means memory-only (store.Null); a nil
// clock means the wall clock.
func Open(st store.Store, clock Clock) (*Registry, error) {
	if st == nil {
		st = store.Null{}
	}
	if clock == nil {
		clock = systemClock{}
	}
	r := &Registry{clock: clock, tenants: make(map[string]*tenant), log: store.NewJournal(st, store.TenantLog, "")}
	if err := r.log.Replay(r.apply); err != nil {
		return nil, err
	}
	return r, nil
}

// apply folds one log record into the registry: a state record
// replaces it, a change record updates one tenant.
func (r *Registry) apply(data []byte) error {
	var rec struct {
		change
		state
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("tenant: corrupt log record: %w", err)
	}
	switch {
	case rec.Op == "put" && rec.Tenant != nil:
		r.tenants[rec.Tenant.ID] = &tenant{rec: *rec.Tenant}
	case rec.Op == "delete":
		delete(r.tenants, rec.ID)
	case rec.Op == "" && rec.Version == 1:
		clear(r.tenants)
		for _, t := range rec.Tenants {
			r.tenants[t.ID] = &tenant{rec: t}
		}
	default:
		return fmt.Errorf("tenant: unknown log record (op %q)", rec.Op)
	}
	return nil
}

// newID returns a fresh tenant id ("tn_" + 64 random bits).
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("tenant: crypto/rand failed: " + err.Error())
	}
	return "tn_" + hex.EncodeToString(b[:])
}

// mintKey returns a fresh plaintext API key ("grk_" + 128 random bits).
func mintKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("tenant: crypto/rand failed: " + err.Error())
	}
	return "grk_" + hex.EncodeToString(b[:])
}

// logChange appends one change record — the durability point of every
// mutation. Callers apply the mutation in memory first and roll it back
// if logChange fails: a compaction here writes the state it finds.
// Caller holds r.mu.
func (r *Registry) logChange(c change) error {
	if err := r.log.Append(c, r.stateLocked); err != nil {
		return fmt.Errorf("tenant: logging change: %w", err)
	}
	return nil
}

// stateLocked returns the registry's state record. Caller holds r.mu.
func (r *Registry) stateLocked() any {
	st := state{Version: 1, Tenants: make([]record, 0, len(r.tenants))}
	for _, t := range r.tenants {
		st.Tenants = append(st.Tenants, t.rec)
	}
	sort.Slice(st.Tenants, func(a, b int) bool { return st.Tenants[a].ID < st.Tenants[b].ID })
	return st
}

// Create registers a new tenant with one freshly minted API key and
// returns the key in plaintext — the only time it is ever visible.
func (r *Registry) Create(name string, q Quotas) (Info, string, error) {
	if err := q.Validate(); err != nil {
		return Info{}, "", err
	}
	if name == "" {
		name = "tenant"
	}
	key := mintKey()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := newID()
	for r.tenants[id] != nil {
		id = newID()
	}
	rec := record{
		ID:        id,
		Name:      name,
		Created:   r.clock.Now().UTC(),
		Quotas:    q,
		KeyHashes: []string{hashKey(key)},
	}
	r.tenants[id] = &tenant{rec: rec}
	if err := r.logChange(change{Op: "put", Tenant: &rec}); err != nil {
		delete(r.tenants, id)
		return Info{}, "", err
	}
	return rec.info(), key, nil
}

// Get returns one tenant's public view.
func (r *Registry) Get(id string) (Info, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[id]
	if !ok {
		return Info{}, fmt.Errorf("tenant %s: %w", id, ErrNotFound)
	}
	return t.rec.info(), nil
}

// List returns every tenant, oldest first.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t.rec.info())
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Created.Equal(out[b].Created) {
			return out[a].Created.Before(out[b].Created)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Delete removes a tenant; its keys stop authenticating immediately.
// The tenant's datasets are not touched — they stay in the service,
// visible only to the admin, until deleted through the data API.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	if !ok {
		return fmt.Errorf("tenant %s: %w", id, ErrNotFound)
	}
	delete(r.tenants, id)
	if err := r.logChange(change{Op: "delete", ID: id}); err != nil {
		r.tenants[id] = t
		return err
	}
	return nil
}

// Rotate mints a new API key for the tenant. With revokeExisting the
// new key replaces every old one (a compromised-key response); without
// it the new key is added alongside them (zero-downtime rollover: add,
// redeploy clients, then rotate again with revokeExisting).
func (r *Registry) Rotate(id string, revokeExisting bool) (Info, string, error) {
	key := mintKey()
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	if !ok {
		return Info{}, "", fmt.Errorf("tenant %s: %w", id, ErrNotFound)
	}
	old := t.rec
	rec := t.rec
	if revokeExisting {
		rec.KeyHashes = []string{hashKey(key)}
	} else {
		rec.KeyHashes = append(append([]string(nil), rec.KeyHashes...), hashKey(key))
		sort.Strings(rec.KeyHashes)
	}
	t.rec = rec
	if err := r.logChange(change{Op: "put", Tenant: &rec}); err != nil {
		t.rec = old
		return Info{}, "", err
	}
	return rec.info(), key, nil
}

// SetQuotas replaces a tenant's quotas. The rate-limit bucket keeps its
// current fill; the new rate and burst govern from the next decision.
func (r *Registry) SetQuotas(id string, q Quotas) (Info, error) {
	if err := q.Validate(); err != nil {
		return Info{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	if !ok {
		return Info{}, fmt.Errorf("tenant %s: %w", id, ErrNotFound)
	}
	old := t.rec
	rec := t.rec
	rec.Quotas = q
	t.rec = rec
	if err := r.logChange(change{Op: "put", Tenant: &rec}); err != nil {
		t.rec = old
		return Info{}, err
	}
	return rec.info(), nil
}

// AuthenticateKey resolves an API key to its tenant and the short id
// of the matched key (the same id ListKeys reports), so callers can
// attribute actions to a specific credential — the audit log's actor
// field — without ever holding the key itself. Digest comparisons are
// constant-time; the scan visits every key of every tenant, which is
// fine at admin-managed registry sizes.
func (r *Registry) AuthenticateKey(key string) (Info, string, bool) {
	digest := []byte(hashKey(key))
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, t := range r.tenants {
		for _, h := range t.rec.KeyHashes {
			if subtle.ConstantTimeCompare(digest, []byte(h)) == 1 {
				return t.rec.info(), keyIDFromHash(h), true
			}
		}
	}
	return Info{}, "", false
}

// AllowDecisions spends n tokens from the tenant's decision bucket,
// atomically: either the bucket holds all n and the whole batch is
// admitted, or nothing is spent and the wait until n tokens will have
// accrued is reported (the Retry-After the HTTP layer should
// advertise). An unknown tenant or a zero rate is unlimited.
// All-or-nothing matters for batched ingest — admitting half a batch
// would burn tokens on work that is then rejected whole. A batch larger than the
// bucket's burst can never be admitted; callers enforce their own
// batch-size cap below the minimum burst they configure.
func (r *Registry) AllowDecisions(id string, n int) (bool, time.Duration) {
	if n <= 0 {
		return true, 0
	}
	r.mu.RLock()
	t, ok := r.tenants[id]
	var q Quotas
	if ok {
		q = t.rec.Quotas
	}
	r.mu.RUnlock()
	if !ok || q.DecisionsPerSec <= 0 {
		return true, 0
	}
	burst := q.burst()
	t.bmu.Lock()
	defer t.bmu.Unlock()
	now := r.clock.Now()
	if t.last.IsZero() {
		// First decision ever: start with a full bucket.
		t.tokens = burst
	} else {
		t.tokens += now.Sub(t.last).Seconds() * q.DecisionsPerSec
		if t.tokens > burst {
			t.tokens = burst
		}
	}
	t.last = now
	need := float64(n)
	if t.tokens >= need {
		t.tokens -= need
		return true, 0
	}
	wait := time.Duration((need - t.tokens) / q.DecisionsPerSec * float64(time.Second))
	return false, wait
}
