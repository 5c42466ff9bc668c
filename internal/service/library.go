package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/dsl"
	"github.com/goldrec/goldrec/internal/events"
	"github.com/goldrec/goldrec/internal/store"
)

// This file wires the per-tenant transformation library
// (internal/library) into the service: every acknowledged reviewer
// verdict is folded into the owning tenant's library, every session
// open consults it for warm-start priors, and GET/DELETE /v1/library
// expose the memory through Scope, the service's data API: a tenant
// reads and purges only its own library, and svc.As("") — the unscoped
// view — addresses the open-mode library.
//
// The library is advisory memory, never the system of record: the
// session WAL is. A library write that fails is logged and dropped —
// the verdict it mirrored is already durable — and a session whose
// warm-start record cannot be made durable opens cold instead, so WAL
// replay always reproduces exactly what the reviewer saw.

// LibraryProgram is one remembered program in GET /v1/library.
type LibraryProgram struct {
	// Key is the program's canonical serialized form — the identity
	// decisions accumulate under across uploads.
	Key string `json:"key"`
	// Display is the human-readable rendering of the program.
	Display    string `json:"display"`
	Approvals  int    `json:"approvals"`
	Rejections int    `json:"rejections"`
	// Eligible marks a program the next session open would offer the
	// engine as a warm-start prior: deterministic, approved at least
	// once, and not net-rejected since.
	Eligible bool `json:"eligible,omitempty"`
}

// LibraryInfo is the GET /v1/library document: the caller's
// transformation memory, per-program stats included.
type LibraryInfo struct {
	Programs []LibraryProgram `json:"programs"`
	// Eligible counts the programs currently offered as warm-start
	// priors.
	Eligible int `json:"eligible"`
}

// Library returns the scope's transformation memory: the per-program
// approve/reject stats accumulated across the owner's uploads. A
// tenant only ever sees (and deletes) its own library; the unscoped
// view addresses the open-mode library.
func (sc Scope) Library() LibraryInfo {
	lib := sc.svc.library.For(sc.owner)
	eligible := make(map[string]bool)
	for _, p := range lib.Priors() {
		eligible[p.Key] = true
	}
	stats := lib.List()
	out := LibraryInfo{Programs: make([]LibraryProgram, 0, len(stats)), Eligible: len(eligible)}
	for _, ps := range stats {
		out.Programs = append(out.Programs, LibraryProgram{
			Key:        ps.Key,
			Display:    ps.Display,
			Approvals:  ps.Approvals,
			Rejections: ps.Rejections,
			Eligible:   eligible[ps.Key],
		})
	}
	return out
}

// DeleteLibrary purges the scope's transformation memory, in memory and
// on disk: future uploads open cold until new decisions accumulate.
// Sessions already opened warm keep their frozen priors (the OpWarm WAL
// record, not the live library, is their replay base).
func (sc Scope) DeleteLibrary() error {
	s := sc.svc
	if err := s.library.Delete(sc.owner); err != nil {
		return fmt.Errorf("%w: deleting library: %v", ErrStorage, err)
	}
	s.opts.Logf("library %q: deleted", sc.owner)
	s.emitEvent(sc.ctx, events.Event{Type: events.TypeLibraryPurged, Tenant: sc.owner})
	return nil
}

// warmStartFor assembles a new session's warm-start context from the
// owner's library: every eligible prior, frozen at open time. nil means
// a cold open (no OpWarm record is written).
func (s *Service) warmStartFor(owner string) *goldrec.WarmStart {
	priors := s.library.For(owner).Priors()
	if len(priors) == 0 {
		return nil
	}
	w := &goldrec.WarmStart{Programs: make([]goldrec.WarmProgram, len(priors))}
	for i, p := range priors {
		w.Programs[i] = goldrec.WarmProgram{Key: p.Key, Approvals: p.Approvals, Rejections: p.Rejections}
	}
	return w
}

// errStopReplay aborts a WAL replay early once loadWarmRecord has seen
// the first record; it never escapes to callers.
var errStopReplay = errors.New("stop replay")

// loadWarmRecord reads a resuming session's frozen warm-start context:
// the OpWarm record is always the first of the WAL when present, so the
// scan stops after one record. Replay must rebuild the engine from this
// frozen record — never the live library, which kept learning after the
// session opened — or the regenerated groups would not match the WAL's
// issue records.
func (s *Service) loadWarmRecord(ctx context.Context, cs *columnSession) (*goldrec.WarmStart, error) {
	var warm *goldrec.WarmStart
	err := s.store.ReplayWAL(ctx, cs.datasetID, cs.id, func(rec store.WALRecord) error {
		if rec.Op == store.OpWarm {
			w := new(goldrec.WarmStart)
			if err := json.Unmarshal(rec.Warm, w); err != nil {
				return fmt.Errorf("corrupt warm record: %w", err)
			}
			warm = w
		}
		return errStopReplay
	})
	if err != nil && !errors.Is(err, errStopReplay) {
		return nil, err
	}
	return warm, nil
}

// openWarm resolves the warm-start context for a session's generator.
// Fresh sessions consult the live library and freeze the offered priors
// into the WAL's first record before any group can be issued; resuming
// sessions read the frozen record back. A fresh session whose warm
// record cannot be made durable opens cold (in memory too): the library
// only ever pre-pays review budget, it must never cost replay fidelity.
func (s *Service) openWarm(ctx context.Context, cs *columnSession) (*goldrec.WarmStart, error) {
	if cs.resume {
		return s.loadWarmRecord(ctx, cs)
	}
	warm := s.warmStartFor(cs.owner)
	if warm == nil {
		return nil, nil
	}
	data, err := json.Marshal(warm)
	if err == nil {
		err = s.store.AppendWAL(ctx, cs.datasetID, cs.id, store.WALRecord{Op: store.OpWarm, Warm: data})
	}
	if err != nil {
		s.opts.Logf("session %s: warm-start record not durable, opening cold: %v", cs.id, err)
		return nil, nil
	}
	s.metrics.bumpLibraryHit(cs.owner)
	return warm, nil
}

// recordVerdict folds one acknowledged verdict into the owning tenant's
// library. Only plain approvals teach the library to pre-apply: warm
// start replays programs forward, so a backward approval (the reviewer
// wanted the inverse direction) records nothing rather than teaching
// the wrong direction. Failures are logged and dropped — the verdict is
// already durable in the session WAL; the library is advisory. Caller
// holds cs.mu with the generator parked (sess is live).
func (s *Service) recordVerdict(ctx context.Context, cs *columnSession, groupID int, decision goldrec.Decision) {
	if decision == goldrec.ApprovedBackward {
		return
	}
	g, ok := cs.sess.Group(groupID)
	if !ok {
		return
	}
	p, err := dsl.ParseProgram(g.ProgramKey())
	if err != nil || len(p) == 0 {
		return
	}
	if err := s.library.For(cs.owner).Record(p, decision == goldrec.Approved); err != nil {
		s.opts.Logf("session %s: recording verdict in library: %v", cs.id, err)
		return
	}
	s.emitEvent(ctx, events.Event{
		Type:    events.TypeLibraryTaught,
		Tenant:  cs.owner,
		Dataset: cs.datasetID,
		Session: cs.id,
		Data:    map[string]any{"program": g.ProgramKey(), "approved": decision == goldrec.Approved},
	})
}

// handleLibrary serves GET and DELETE /v1/library.
func (s *Service) handleLibrary(w http.ResponseWriter, r *http.Request) {
	sc := s.scope(r)
	if r.Method == http.MethodDelete {
		respondNoContent(w, sc.DeleteLibrary())
		return
	}
	writeJSON(w, http.StatusOK, sc.Library())
}
