// Package library is goldrecd's durable transformation memory: a
// per-tenant record of every string-transformation program a reviewer
// has approved or rejected, persisted across restarts and consulted
// when a tenant uploads a new column.
//
// The paper's loop learns transformations from scratch for every
// column; in practice a tenant's data keeps arriving with the same
// formatting drift (the same "Last, First" transpositions, the same
// unit suffixes), so decisions made on one upload should pre-pay the
// review budget of the next. The library is that memory: each
// approve/reject on a group whose program the engine proposed bumps a
// per-program counter, and at session-open time the programs the
// tenant has approved (and not net-rejected) are offered to the engine
// as warm-start priors (core.Options.Warm).
//
// Durability mirrors the tenant registry: each tenant's library is a
// store.Journal on store.LibraryLog, whose "put" change records carry a
// program's whole stats and whose state record carries every program.
// Programs are keyed by their canonical serialized form
// (dsl.EncodeProgram), so the same transformation learned from
// different uploads lands on one counter.
package library

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"github.com/goldrec/goldrec/internal/dsl"
	"github.com/goldrec/goldrec/internal/store"
)

// ProgramStats is the persisted memory of one program: how often
// reviewers approved and rejected groups the engine explained with it.
type ProgramStats struct {
	// Key is the program's canonical serialized form
	// (dsl.EncodeProgram) — the identity decisions accumulate under.
	Key string `json:"key"`
	// Display is the program's human-readable rendering, stored so the
	// library API can show it without re-parsing.
	Display    string `json:"display"`
	Approvals  int    `json:"approvals"`
	Rejections int    `json:"rejections"`
}

// Prior is one warm-start candidate: an eligible program parsed back
// from its canonical key, with the outcome counts that seed the
// session's approve-rate prior.
type Prior struct {
	Key        string
	Program    dsl.Program
	Approvals  int
	Rejections int
}

// entry is one in-memory program record: the persisted stats plus the
// parsed program (parsed once, at record or load time).
type entry struct {
	stats ProgramStats
	prog  dsl.Program
	// parsed marks that prog is usable; false for a loaded key that no
	// longer parses (a library written by a newer encoding version).
	// The stats survive either way — only prior eligibility is lost.
	parsed bool
}

// state is the log's state record: every program's stats.
type state struct {
	Version  int            `json:"version"`
	Programs []ProgramStats `json:"programs"`
}

// change is one change record. Put carries the program's whole stats.
type change struct {
	Op      string        `json:"op"` // "put"
	Program *ProgramStats `json:"program,omitempty"`
}

// Library is one tenant's transformation memory. All methods are safe
// for concurrent use.
type Library struct {
	tenantID string

	mu       sync.Mutex
	programs map[string]*entry
	log      *store.Journal // guarded by mu
}

// Registry owns the per-tenant libraries, loading persisted state at
// boot and creating empty libraries on first touch.
type Registry struct {
	store store.Store

	mu   sync.Mutex
	libs map[string]*Library
}

// Open loads every persisted library from the store and returns the
// registry ready for use. A nil store means memory-only (store.Null).
func Open(st store.Store) (*Registry, error) {
	if st == nil {
		st = store.Null{}
	}
	r := &Registry{store: st, libs: make(map[string]*Library)}
	tenants, err := st.ListLogs(store.LibraryLog)
	if err != nil {
		return nil, fmt.Errorf("library: listing tenants: %w", err)
	}
	for _, id := range tenants {
		l, err := load(st, id)
		if err != nil {
			return nil, err
		}
		r.libs[id] = l
	}
	return r, nil
}

// newLibrary returns the tenant's empty library.
func newLibrary(st store.Store, tenantID string) *Library {
	return &Library{tenantID: tenantID, programs: make(map[string]*entry), log: store.NewJournal(st, store.LibraryLog, tenantID)}
}

// load rebuilds one tenant's library from its log.
func load(st store.Store, tenantID string) (*Library, error) {
	l := newLibrary(st, tenantID)
	if err := l.log.Replay(l.apply); err != nil {
		return nil, err
	}
	return l, nil
}

// apply folds one log record into the library: a state record
// replaces it, a change record updates one program.
func (l *Library) apply(data []byte) error {
	var rec struct {
		change
		state
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("library %q: corrupt log record: %w", l.tenantID, err)
	}
	switch {
	case rec.Op == "put" && rec.Program != nil:
		l.programs[rec.Program.Key] = newEntry(*rec.Program)
	case rec.Op == "" && rec.Version == 1:
		clear(l.programs)
		for _, ps := range rec.Programs {
			l.programs[ps.Key] = newEntry(ps)
		}
	default:
		return fmt.Errorf("library %q: unknown log record (op %q)", l.tenantID, rec.Op)
	}
	return nil
}

// newEntry builds an entry from persisted stats, re-parsing the
// canonical key. A key that fails to parse keeps its stats but never
// becomes a prior.
func newEntry(ps ProgramStats) *entry {
	e := &entry{stats: ps}
	if p, err := dsl.ParseProgram(ps.Key); err == nil {
		e.prog = p
		e.parsed = true
	}
	return e
}

// For returns the tenant's library, creating an empty one on first
// touch ("" is the open-mode library).
func (r *Registry) For(tenantID string) *Library {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l, ok := r.libs[tenantID]; ok {
		return l
	}
	l := newLibrary(r.store, tenantID)
	r.libs[tenantID] = l
	return l
}

// Delete purges the tenant's library, in memory and on disk. Deleting
// a tenant that never recorded anything is not an error.
func (r *Registry) Delete(tenantID string) error {
	r.mu.Lock()
	delete(r.libs, tenantID)
	r.mu.Unlock()
	return r.store.DeleteLog(store.LibraryLog, tenantID)
}

// TotalPrograms returns the number of remembered programs across every
// tenant (the service's gauge metric).
func (r *Registry) TotalPrograms() int {
	r.mu.Lock()
	libs := make([]*Library, 0, len(r.libs))
	for _, l := range r.libs {
		libs = append(libs, l)
	}
	r.mu.Unlock()
	n := 0
	for _, l := range libs {
		n += l.Len()
	}
	return n
}

// Record folds one reviewer verdict on a program into the library. An
// empty program (an identity group with nothing to learn) records
// nothing. The in-memory mutation is applied before the change record
// is logged and rolled back if logging fails, mirroring the tenant
// registry: a compaction inside the append writes the state it finds.
func (l *Library) Record(p dsl.Program, approved bool) error {
	if len(p) == 0 {
		return nil
	}
	key := dsl.EncodeProgram(p)
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.programs[key]
	if !ok {
		e = &entry{stats: ProgramStats{Key: key, Display: p.String()}, prog: p, parsed: true}
		l.programs[key] = e
	}
	old := e.stats
	if approved {
		e.stats.Approvals++
	} else {
		e.stats.Rejections++
	}
	if err := l.log.Append(change{Op: "put", Program: &e.stats}, l.stateLocked); err != nil {
		e.stats = old
		if !ok {
			delete(l.programs, key)
		}
		return fmt.Errorf("library %q: logging change: %w", l.tenantID, err)
	}
	return nil
}

// stateLocked returns the library's state record. Caller holds l.mu.
func (l *Library) stateLocked() any {
	return state{Version: 1, Programs: l.listLocked()}
}

// Priors returns the programs worth offering a new session as
// warm-start candidates, sorted by key for deterministic engine input.
// Eligible means: the key still parses, the program is deterministic
// (a warm pre-decision must replay identically), it was approved at
// least once, and approvals outnumber rejections — a program reviewers
// have since contradicted stops being offered.
func (l *Library) Priors() []Prior {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Prior
	for _, e := range l.programs {
		s := e.stats
		if !e.parsed || s.Approvals < 1 || s.Approvals <= s.Rejections || !e.prog.Deterministic() {
			continue
		}
		out = append(out, Prior{Key: s.Key, Program: e.prog, Approvals: s.Approvals, Rejections: s.Rejections})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// List returns every remembered program's stats, sorted by key.
func (l *Library) List() []ProgramStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.listLocked()
}

// listLocked is List with l.mu held.
func (l *Library) listLocked() []ProgramStats {
	out := make([]ProgramStats, 0, len(l.programs))
	for _, e := range l.programs {
		out = append(out, e.stats)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// Len returns the number of remembered programs.
func (l *Library) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.programs)
}
