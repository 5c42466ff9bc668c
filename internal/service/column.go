package service

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"github.com/goldrec/goldrec"
)

// reviewEngine is the part of *goldrec.Session a column session drives.
// It exists so the protocol tests can substitute a fake engine.
type reviewEngine interface {
	NextGroupCtx(ctx context.Context) (*goldrec.Group, bool)
	Group(id int) (*goldrec.Group, bool)
	Decide(id int, d goldrec.Decision) (goldrec.ApplyStats, error)
	Stats() goldrec.SessionStats
	ApproveRate() float64
	Timings() goldrec.PhaseTimings
	ReviewState() goldrec.ReviewState
}

// columnSession owns the review of one column and its lock protocol.
// All fields below mu are guarded by it; every wake-up closes changed
// and replaces it (see waitLocked).
//
// The generator (step) runs the engine with mu released and busy set,
// so readers never wait on the engine: group pages, the plan and info
// read only the fields mu guards (plus ApproveRate and the groups'
// RemainingSites, which only Decide mutates). Everything else that
// touches sess waits for busy to clear, and decisions wait further for
// the generator to park (awaitParkedLocked), which keeps the group
// sequence — and so the WAL — a function of the decisions alone.
// Callbacks run under mu with the engine idle.
type columnSession struct {
	id        string
	datasetID string
	column    string
	col       int
	// owner mirrors the dataset's owning tenant: a session is always
	// owned by (and counted against) its dataset's tenant.
	owner    string
	d        *dataset
	prefetch int // undecided groups the generator keeps buffered
	// resume makes the generator replay the session's WAL (restoring a
	// passivated or pre-restart session) before producing new groups.
	resume bool

	mu      sync.Mutex
	changed chan struct{}
	// rev counts state changes a groups reader could observe (pending,
	// status); SSE group streams skip wake-ups that leave it unchanged.
	// bumpLocked is the only writer.
	rev       uint64
	sess      reviewEngine     // nil until candidate generation finishes
	pending   []*goldrec.Group // issued, undecided, oldest first
	exhausted bool
	closed    bool
	// busy means the generator is inside sess.NextGroupCtx with mu
	// released; sess must not be touched until it clears.
	busy bool
	// stats snapshots sess.Stats() after every publish, issue,
	// exhaustion and decision (or holds the archive's), so info never
	// reads counters the generator bumps while busy.
	stats goldrec.SessionStats
	// stalled means the generator stopped because the store rejected an
	// issue append; see StatusStalled.
	stalled bool
	// compacted means this session's decisions were folded into the
	// dataset snapshot and its WAL deleted.
	compacted bool
	// archived replaces sess for a session restored after compaction:
	// the final ReviewState is served from the archive and no further
	// decisions are possible.
	archived *goldrec.ReviewState
}

// newColumnSession returns a session on column col of d that reads as
// initializing until publish (id "" when the registry names it).
func newColumnSession(d *dataset, id, column string, col, prefetch int) *columnSession {
	return &columnSession{
		id:        id,
		datasetID: d.id,
		column:    column,
		col:       col,
		owner:     d.owner,
		d:         d,
		prefetch:  prefetch,
		changed:   make(chan struct{}),
	}
}

// notifyLocked wakes every waiter to recheck its predicate, without
// marking a change. Caller holds cs.mu.
func (cs *columnSession) notifyLocked() {
	close(cs.changed)
	cs.changed = make(chan struct{})
}

// bumpLocked marks an observable state change (pending buffer, status)
// and wakes every waiter. Caller holds cs.mu.
func (cs *columnSession) bumpLocked() {
	cs.rev++
	cs.notifyLocked()
}

// waitLocked releases cs.mu until the next wake-up or until a or b
// closes (a nil channel never fires), then re-acquires it; false means
// a or b closed. Taking changed under mu loses no wake-up, and a wait
// ends on cancel without a watcher goroutine. Caller holds cs.mu.
func (cs *columnSession) waitLocked(a, b <-chan struct{}) bool {
	changed := cs.changed
	cs.mu.Unlock()
	defer cs.mu.Lock()
	select {
	case <-changed:
		return true
	case <-a:
	case <-b:
	}
	return false
}

// publish makes the built (and replayed) engine live with the replay's
// undecided groups; false means the session closed meanwhile.
func (cs *columnSession) publish(sess reviewEngine, pending []*goldrec.Group) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		return false
	}
	cs.sess = sess
	cs.pending = pending
	cs.stats = sess.Stats()
	cs.bumpLocked()
	return true
}

// step is one generator step: wait for room in the buffer, then run
// NextGroupCtx with mu released and busy set, so a reviewer can read
// group 0 while groups 1..prefetch-1 are still being computed. Back
// under mu, if the session is still open, exhausted runs when the
// stream has ended; otherwise issue must make the group durable before
// it joins the buffer as its pending'th entry, or fail and stall the
// session. step reports whether the generator should go on.
func (cs *columnSession) step(ctx context.Context, issue func(g *goldrec.Group, pending int) error, exhausted func()) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for len(cs.pending) >= cs.prefetch && !cs.closed {
		cs.waitLocked(nil, nil)
	}
	if cs.closed {
		return false
	}
	cs.busy = true
	cs.mu.Unlock()
	g, ok := cs.sess.NextGroupCtx(ctx)
	cs.mu.Lock()
	cs.busy = false
	cs.stats = cs.sess.Stats()
	// Clearing busy only releases the waits for it: no rev bump, or
	// idle SSE streams would re-send unchanged pages.
	cs.notifyLocked()
	if cs.closed {
		return false
	}
	if !ok {
		cs.exhausted = true
		cs.bumpLocked()
		exhausted()
		return false
	}
	if err := issue(g, len(cs.pending)+1); err != nil {
		// Issued groups stay decidable; stalled releases long polls.
		cs.stalled = true
		cs.bumpLocked()
		return false
	}
	cs.pending = append(cs.pending, g)
	cs.bumpLocked()
	return true
}

// awaitParkedLocked blocks until the generator is parked: its buffer
// is full, or the stream is exhausted, stalled or closed (or the
// session is not yet published, which the callers reject). A decision
// admitted only here lands between the same two engine steps as when
// the generator held cs.mu across the whole prefetch: a reviewer who
// answers one group at a time sees the lag-prefetch schedule (issue
// prefetch groups, then decide k / issue k+prefetch) whatever the
// timing, so the group sequence and the WAL depend on the decisions
// alone. Caller holds cs.mu.
func (cs *columnSession) awaitParkedLocked() {
	for cs.sess != nil && !cs.closed && !cs.exhausted && !cs.stalled &&
		(cs.busy || len(cs.pending) < cs.prefetch) {
		cs.waitLocked(nil, nil)
	}
}

// decide records decisions[i] on groups ids[i] once the generator has
// parked: validate the whole batch, make it durable through log, apply
// it, then run applied (see Scope.decideGroups). A rejected request
// allocates nothing here.
func (cs *columnSession) decide(ids []int, decisions []goldrec.Decision, log func() error, applied func()) (BatchDecisionsResult, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.awaitParkedLocked()
	if cs.closed {
		return BatchDecisionsResult{}, fmt.Errorf("session %s: %w", cs.id, ErrNotFound)
	}
	if cs.archived != nil {
		return BatchDecisionsResult{}, fmt.Errorf("session %s is finished and compacted: %w", cs.id, ErrConflict)
	}
	if cs.sess == nil {
		return BatchDecisionsResult{}, fmt.Errorf("session %s is still initializing: %w", cs.id, ErrConflict)
	}
	// Validate here (rather than letting sess.Decide fail) so only
	// decisions that will succeed reach the WAL — replay must never hit
	// a failing record, and a reviewer must never get half a submission
	// applied.
	for _, gid := range ids {
		g, ok := cs.sess.Group(gid)
		if !ok {
			return BatchDecisionsResult{}, fmt.Errorf("%w: no issued group %d", ErrConflict, gid)
		}
		if g.Decision() != goldrec.Pending {
			return BatchDecisionsResult{}, fmt.Errorf("%w: group %d already decided (%s)", ErrConflict, gid, g.Decision())
		}
		// Undecided groups must also be in the pending buffer: a group
		// enters it exactly when its issue record lands in the WAL. A
		// group the generator pulled but failed to log (stall window)
		// is issued in the engine yet absent here — deciding it would
		// write a decide record replay can never satisfy.
		if !slices.ContainsFunc(cs.pending, func(p *goldrec.Group) bool { return p.ID == gid }) {
			return BatchDecisionsResult{}, fmt.Errorf("%w: group %d is not awaiting a decision", ErrConflict, gid)
		}
	}
	if err := log(); err != nil {
		return BatchDecisionsResult{}, err
	}
	results := make([]DecisionResult, len(ids))
	cs.d.applyMu.RLock()
	for i, gid := range ids {
		stats, err := cs.sess.Decide(gid, decisions[i])
		if err != nil {
			cs.d.applyMu.RUnlock()
			// Unreachable given the validation above; the WAL now holds
			// records the session does not. Surface loudly.
			return BatchDecisionsResult{}, fmt.Errorf("%w: decision on group %d logged but not applied: %v", ErrStorage, gid, err)
		}
		results[i] = DecisionResult{GroupID: gid, Decision: decisions[i], Applied: stats, Stats: cs.sess.Stats()}
	}
	cs.d.applyMu.RUnlock()
	cs.pending = slices.DeleteFunc(cs.pending, func(g *goldrec.Group) bool { return slices.Contains(ids, g.ID) })
	cs.stats = cs.sess.Stats()
	// Freed buffer slots let the generator pull the next groups while
	// the reviewer reads the response, and long-polling group fetches
	// re-check their predicate.
	cs.bumpLocked()
	res := BatchDecisionsResult{
		Results:     results,
		Status:      cs.statusLocked(),
		Pending:     len(cs.pending),
		ApproveRate: cs.sess.ApproveRate(),
		Stats:       cs.stats,
	}
	for _, g := range cs.pending {
		res.RemainingGain += float64(g.RemainingSites()) * res.ApproveRate
	}
	applied()
	return res, nil
}

// page renders up to limit buffered groups (0 = all), oldest first,
// with the rev and change channel it was rendered at. With a non-nil
// cancel it first waits until the buffer holds min(limit, prefetch)
// groups (limit 0 counts as prefetch), the stream ends or stalls, the
// session closes, or cancel or drain closes: a one-at-a-time reviewer
// gets group 0 the moment it is logged, while a page-everything
// reviewer still sees a full buffer.
func (cs *columnSession) page(limit int, cancel, drain <-chan struct{}) (GroupPage, uint64, <-chan struct{}, error) {
	want := cs.prefetch
	if limit > 0 && limit < want {
		want = limit
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for cancel != nil && len(cs.pending) < want && !cs.exhausted && !cs.stalled && !cs.closed {
		if !cs.waitLocked(cancel, drain) {
			break
		}
	}
	if cs.closed {
		return GroupPage{}, 0, nil, fmt.Errorf("session %s: %w", cs.id, ErrNotFound)
	}
	page := GroupPage{Status: cs.statusLocked(), Pending: len(cs.pending)}
	n := len(cs.pending)
	if limit > 0 && limit < n {
		n = limit
	}
	if cs.sess != nil {
		page.ApproveRate = cs.sess.ApproveRate()
	}
	page.Groups = make([]goldrec.GroupState, 0, n)
	for _, g := range cs.pending[:n] {
		// Buffered groups are undecided by invariant, so their gain is
		// sites × the page's approve rate.
		sites := g.RemainingSites()
		page.Groups = append(page.Groups, goldrec.GroupState{
			ID:        g.ID,
			Program:   g.Program,
			Structure: g.Structure,
			Pairs:     append([]goldrec.Replacement(nil), g.Pairs...),
			Decision:  g.Decision(),
			Sites:     sites,
			Gain:      float64(sites) * page.ApproveRate,
		})
	}
	return page, cs.rev, cs.changed, nil
}

// readPending calls read under mu with the buffered groups and the
// approve rate, unless the session is closed, initializing or archived.
func (cs *columnSession) readPending(read func(pending []*goldrec.Group, approveRate float64)) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed || cs.sess == nil || cs.archived != nil {
		return
	}
	read(cs.pending, cs.sess.ApproveRate())
}

func (cs *columnSession) info() SessionInfo {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	info := SessionInfo{
		ID:        cs.id,
		DatasetID: cs.datasetID,
		Column:    cs.column,
		Status:    cs.statusLocked(),
		Pending:   len(cs.pending),
		Stats:     cs.stats,
	}
	if cs.sess != nil {
		// The phase timings are atomics: safe while the generator is busy.
		info.Timings = cs.sess.Timings()
	}
	return info
}

func (cs *columnSession) statusLocked() string {
	switch {
	case cs.closed:
		return StatusClosed
	case cs.archived != nil:
		return StatusExhausted
	case cs.sess == nil:
		return StatusInitializing
	case cs.exhausted && len(cs.pending) == 0:
		return StatusExhausted
	case cs.stalled:
		return StatusStalled
	default:
		return StatusReviewing
	}
}

// state snapshots the review progress once the engine is idle.
func (cs *columnSession) state() goldrec.ReviewState {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for cs.busy {
		cs.waitLocked(nil, nil)
	}
	if cs.archived != nil {
		return *cs.archived
	}
	if cs.sess == nil {
		return goldrec.ReviewState{Dataset: cs.d.cons.Dataset().Name, Column: cs.column}
	}
	return cs.sess.ReviewState()
}

// close marks the session closed and wakes every waiter. Idempotent.
func (cs *columnSession) close() {
	cs.mu.Lock()
	cs.closed = true
	cs.bumpLocked()
	cs.mu.Unlock()
}

// retire closes the session for deletion, then runs fold under mu (so
// no decision slips in after it); a fold error reopens the session. It
// first waits out a resuming session's replay — deleting the WAL
// mid-replay would strand applied changes never folded — and a
// NextGroup, since the fold reads the engine.
func (cs *columnSession) retire(fold func() error) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for (cs.resume && cs.sess == nil && !cs.closed && cs.archived == nil) || cs.busy {
		cs.waitLocked(nil, nil)
	}
	if cs.closed {
		return fmt.Errorf("session %s: %w", cs.id, ErrNotFound)
	}
	cs.closed = true
	cs.bumpLocked()
	if err := fold(); err != nil {
		cs.closed = false
		cs.bumpLocked()
		return err
	}
	return nil
}
