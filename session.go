package goldrec

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/goldrec/goldrec/internal/core"
	"github.com/goldrec/goldrec/internal/dsl"
	"github.com/goldrec/goldrec/internal/oracle"
	"github.com/goldrec/goldrec/internal/replace"
	"github.com/goldrec/goldrec/internal/tgraph"
	"github.com/goldrec/goldrec/table"
)

// Session standardizes one column: it owns the candidate replacements,
// their replacement sets, and the grouping engine.
//
// A Session is not safe for concurrent use; callers that share one
// across goroutines must serialize access (the goldrecd service wraps
// every session in a mutex). Sessions on *distinct* columns of the same
// dataset may run concurrently: candidate generation and Apply read and
// write only the session's own column. Open at most one session per
// column, and do not read golden records while any session is applying.
type Session struct {
	cons  *Consolidator
	col   int
	store *replace.Store
	eng   *core.Engine

	// issued tracks the groups handed out by NextGroup, indexed by
	// Group.ID, so that decisions can arrive by id (for example over
	// the wire) rather than via the *Group pointer.
	issued []*Group

	// exported tracks the groups written by ExportReview so that
	// ApplyReview can address them by id, and exportToken names that
	// export: ApplyReview only accepts files carrying the token of the
	// latest export, so a stale file can never address rebound ids.
	exported    []*Group
	exportSeq   int
	exportToken string

	// exhausted is set once NextGroup has reported no groups remain.
	exhausted bool

	// decided and approvals accumulate the session's decision history
	// (first-time decisions only); they drive the empirical approve-rate
	// prior behind Group.Gain.
	decided   int
	approvals int

	// priorA and priorN seed the approve-rate prior from warm-start
	// outcome counts: priorA past approvals out of priorN past decisions
	// on the programs offered to this session (see ApproveRate).
	priorA int
	priorN int

	stats SessionStats
}

// SessionStats summarizes a session's progress.
type SessionStats struct {
	// Candidates is the number of candidate replacements generated.
	Candidates int `json:"candidates"`
	// GroupsSeen counts issued groups: those handed out by NextGroup
	// plus the warm groups pre-decided at session open.
	GroupsSeen int `json:"groups_seen"`
	// GroupsApplied counts approved + applied groups.
	GroupsApplied int `json:"groups_applied"`
	// CellsChanged counts cell updates from applied groups.
	CellsChanged int `json:"cells_changed"`
	// WarmGroups counts groups pre-decided at session open from
	// warm-start priors (included in GroupsSeen and GroupsApplied).
	WarmGroups int `json:"warm_groups,omitempty"`
	// WarmCells counts cell updates from warm pre-applied groups
	// (included in CellsChanged).
	WarmCells int `json:"warm_cells,omitempty"`
}

// Replacement is one member of a group, for display and auditing.
type Replacement struct {
	// LHS and RHS are the candidate pair; applying Forward rewrites
	// LHS-sites to RHS.
	LHS string `json:"lhs"`
	RHS string `json:"rhs"`
	// Sites is the current size of the replacement set |L[lhs→rhs]| —
	// how many cells the replacement would touch.
	Sites int `json:"sites"`
}

// Group is a replacement group sharing one transformation program, ready
// for human verification (Section 3 Step 3).
type Group struct {
	// ID addresses the group within its session: issued groups get
	// sequential ids starting at 0 (warm groups first, then NextGroup's
	// in hand-out order), usable with Session.Group and Session.Decide.
	ID int
	// Program renders the shared transformation in the paper's DSL
	// notation, e.g. "SubStr(...) ⊕ ConstantStr(". ") ⊕ SubStr(...)".
	Program string
	// Structure is the shared structure signature (Section 7.2).
	Structure string
	// Pairs lists the member replacements in review order: largest
	// replacement set first (replace.SortForReview). This is also the
	// order Apply performs them in, and order matters — an earlier
	// member's rewrite can shrink a later member's replacement set.
	Pairs []Replacement
	// Warm marks a group pre-decided at session open from a warm-start
	// prior: its program was approved on an earlier upload, so it was
	// applied Forward without a fresh human review.
	Warm bool

	sess     *Session
	prog     dsl.Program
	members  []*replace.Candidate
	decision Decision
	applied  ApplyStats
}

// ProgramKey returns the group's shared program in its canonical
// serialized form — the identity the goldrecd transformation library
// accumulates decisions under (empty-program groups key as the empty
// encoding).
func (g *Group) ProgramKey() string { return dsl.EncodeProgram(g.prog) }

// Decision is the reviewer's verdict on an issued group.
type Decision int

const (
	// Pending means no decision has been recorded yet.
	Pending Decision = iota
	// Approved applies the group Forward.
	Approved
	// ApprovedBackward applies the group Backward.
	ApprovedBackward
	// Rejected records that the group must not be applied.
	Rejected
)

// String returns the review-file spelling of the decision.
func (d Decision) String() string {
	switch d {
	case Pending:
		return "pending"
	case Approved:
		return "approve"
	case ApprovedBackward:
		return "approve-backward"
	case Rejected:
		return "reject"
	}
	return fmt.Sprintf("Decision(%d)", int(d))
}

// MarshalJSON renders the decision as its String form.
func (d Decision) MarshalJSON() ([]byte, error) {
	return []byte(`"` + d.String() + `"`), nil
}

// UnmarshalJSON parses the String form (see ParseDecision).
func (d *Decision) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseDecision(s)
	if err != nil {
		return err
	}
	*d = parsed
	return nil
}

// ParseDecision converts a review-file decision string ("approve",
// "approve-backward", "reject", "pending" or "") to a Decision.
func ParseDecision(s string) (Decision, error) {
	switch s {
	case "approve":
		return Approved, nil
	case "approve-backward":
		return ApprovedBackward, nil
	case "reject":
		return Rejected, nil
	case "", "pending":
		return Pending, nil
	}
	return Pending, fmt.Errorf("goldrec: unknown decision %q", s)
}

// Decision reports the verdict recorded for the group (Pending until
// Decide or Apply is called on it).
func (g *Group) Decision() Decision { return g.decision }

// Size returns the number of member replacements.
func (g *Group) Size() int { return len(g.Pairs) }

// TotalSites sums the member replacement sets — the group's "profit".
func (g *Group) TotalSites() int {
	n := 0
	for _, p := range g.Pairs {
		n += p.Sites
	}
	return n
}

// RemainingSites sums the members' *current* replacement-set sizes.
// Unlike TotalSites (a snapshot taken when the group was built), it
// shrinks as other approved groups rewrite overlapping cells, so it is
// the honest count of cells a review of this group could still fix.
func (g *Group) RemainingSites() int {
	n := 0
	for _, c := range g.members {
		n += c.SiteCount()
	}
	return n
}

// Gain estimates the expected number of cells one review of this group
// would fix: RemainingSites times the session's empirical approve rate
// (Sun et al., 2019 spend a fixed human budget by expected gain rather
// than raw group size). Already-decided groups — and groups not backed
// by a session — gain nothing from another look and return 0.
func (g *Group) Gain() float64 {
	if g.sess == nil || g.decision != Pending {
		return 0
	}
	return float64(g.RemainingSites()) * g.sess.ApproveRate()
}

// ApproveRate is the session's empirical probability that a reviewed
// group is approved: a Laplace-smoothed ratio of approvals to recorded
// decisions. A cold session starts at the uninformative 0.5; a
// warm-started one folds the library's past outcomes on the offered
// programs into the same ratio as pseudo-counts, so the prior opens
// already sharpened by history and keeps updating as this session's
// verdicts accumulate.
func (s *Session) ApproveRate() float64 {
	return float64(s.approvals+s.priorA+1) / float64(s.decided+s.priorN+2)
}

// record registers a group's first decision: it stamps the group and
// feeds the decision-history counters behind ApproveRate. Calls on an
// already-decided group are no-ops, which is what keeps every counter a
// count of *first-time* decisions.
func (s *Session) record(g *Group, d Decision, applied ApplyStats) {
	if g.decision != Pending || d == Pending {
		return
	}
	g.decision = d
	g.applied = applied
	s.decided++
	if d == Approved || d == ApprovedBackward {
		s.approvals++
	}
}

// WarmProgram is one warm-start prior: a previously reviewed program in
// its canonical serialized form (the internal DSL encoding — the keys
// the goldrecd library API reports), with the outcome counts that seed
// the session's approve-rate prior.
type WarmProgram struct {
	Key        string `json:"key"`
	Approvals  int    `json:"approvals"`
	Rejections int    `json:"rejections"`
}

// WarmStart carries a set of previously approved transformation
// programs into a new session. Groups of candidate replacements fully
// explained by a warm program are pre-decided at session open — applied
// Forward and issued as already-Approved groups with Warm provenance —
// and the past outcome counts seed ApproveRate's prior. Keys that no
// longer parse, or that name empty or non-deterministic programs, are
// skipped.
type WarmStart struct {
	Programs []WarmProgram `json:"programs"`
}

func newSession(ctx context.Context, cons *Consolidator, col int, warm *WarmStart) *Session {
	s := &Session{cons: cons, col: col}
	s.store = replace.NewStore(cons.ds, col, replace.Options{TokenLevel: true})
	cands := s.store.Candidates()
	reps := make([]core.Rep, 0, len(cands))
	for _, c := range cands {
		reps = append(reps, core.Rep{S: c.LHS, T: c.RHS, Ext: c.ID})
	}
	var priors []core.WarmPrior
	if warm != nil {
		for _, wp := range warm.Programs {
			p, err := dsl.ParseProgram(wp.Key)
			if err != nil || len(p) == 0 || !p.Deterministic() {
				continue
			}
			priors = append(priors, core.WarmPrior{Program: p, Approvals: wp.Approvals, Rejections: wp.Rejections})
			s.priorA += wp.Approvals
			s.priorN += wp.Approvals + wp.Rejections
		}
	}
	// The paper's configuration: token-level candidates (Appendix A),
	// the affix extension (Section 7.3), θ = 6 (Section 8.2) and both
	// Appendix E static orders, which Section 7.4 needs for pivot search
	// on long values to terminate in reasonable time.
	s.eng = core.NewEngineCtx(ctx, reps, core.Options{
		Graph:           tgraph.Options{MinimalSubStr: true},
		MaxPathLen:      core.DefaultMaxPathLen,
		ConstantScoring: true,
		Warm:            priors,
	})
	s.stats.Candidates = len(cands)
	// Pre-decide the groups the warm priors claimed: issue them with the
	// session's first sequential ids (so replayed human decisions keep
	// their offsets), apply Forward, and stamp them Approved without
	// touching the human decision counters — the library's pseudo-counts
	// already carry this history into ApproveRate.
	for _, wg := range s.eng.WarmGroups() {
		g := s.issue(wg)
		g.Warm = true
		stats := s.applyMembers(g, Forward)
		g.decision = Approved
		g.applied = stats
		s.stats.GroupsApplied++
		s.stats.CellsChanged += stats.CellsChanged
		s.stats.WarmGroups++
		s.stats.WarmCells += stats.CellsChanged
	}
	return s
}

// issue converts an engine group to its public form, registers it as
// issued and assigns its id. The members go into review order
// (replace.SortForReview), which is the order Pairs lists and
// applyMembers applies. It keeps every member: a group from NextGroup
// holds no emptied candidate, because applyMembers prunes each
// candidate whose replacement set empties (eng.Remove) before the
// engine forms its next group. Warm groups all form at engine
// construction, so an earlier warm group's application can empty a
// later one's members; those pairs show zero Sites.
func (s *Session) issue(g *core.Group) *Group {
	out := &Group{
		ID:        len(s.issued),
		Program:   g.Program.String(),
		Structure: strings.ReplaceAll(g.Sig, "\x00", " → "),
		Pairs:     make([]Replacement, len(g.Members)),
		sess:      s,
		prog:      g.Program,
		members:   make([]*replace.Candidate, len(g.Members)),
	}
	for i, m := range g.Members {
		out.members[i] = s.store.Candidate(m.Ext)
	}
	replace.SortForReview(out.members)
	for i, c := range out.members {
		out.Pairs[i] = Replacement{LHS: c.LHS, RHS: c.RHS, Sites: c.SiteCount()}
	}
	s.issued = append(s.issued, out)
	s.stats.GroupsSeen++
	return out
}

// NextGroup returns the next largest remaining group (Algorithm 7). ok
// is false when no groups remain.
func (s *Session) NextGroup() (*Group, bool) {
	return s.NextGroupCtx(context.Background())
}

// NextGroupCtx is NextGroup carrying a trace context: the engine's
// group_search (and any lazy graph_build) work records as child spans
// of whatever span the context holds. With a plain context it behaves
// exactly like NextGroup.
func (s *Session) NextGroupCtx(ctx context.Context) (*Group, bool) {
	g := s.eng.NextGroupCtx(ctx)
	if g == nil {
		s.exhausted = true
		return nil, false
	}
	return s.issue(g), true
}

// Exhausted reports whether NextGroup has run out of groups. More
// groups never appear after that: applying decisions only shrinks the
// remaining work.
func (s *Session) Exhausted() bool { return s.exhausted }

// Group returns a previously issued group by id (ok is false for ids
// NextGroup has not handed out).
func (s *Session) Group(id int) (*Group, bool) {
	if id < 0 || id >= len(s.issued) {
		return nil, false
	}
	return s.issued[id], true
}

// Decide records a verdict for an issued group and, for the approve
// decisions, applies it in the corresponding direction. It errs on
// unknown ids, on Pending, and on groups that already have a decision —
// each group is decided exactly once.
func (s *Session) Decide(id int, d Decision) (ApplyStats, error) {
	g, ok := s.Group(id)
	if !ok {
		return ApplyStats{}, fmt.Errorf("goldrec: no issued group %d (have %d)", id, len(s.issued))
	}
	if d == Pending {
		return ApplyStats{}, fmt.Errorf("goldrec: group %d: Pending is not a decision", id)
	}
	if g.decision != Pending {
		return ApplyStats{}, fmt.Errorf("goldrec: group %d already decided (%s)", id, g.decision)
	}
	if d < Pending || d > Rejected {
		return ApplyStats{}, fmt.Errorf("goldrec: group %d: unknown decision %d", id, int(d))
	}
	return s.decide(g, d), nil
}

// decide carries out a validated verdict on a group: the approvals
// apply it in their direction, Rejected only records the verdict, and
// Pending leaves the group open (still decidable through Decide).
func (s *Session) decide(g *Group, d Decision) ApplyStats {
	switch d {
	case Approved:
		return s.Apply(g, Forward)
	case ApprovedBackward:
		return s.Apply(g, Backward)
	case Rejected:
		s.record(g, Rejected, ApplyStats{})
	}
	return ApplyStats{}
}

// approval is the approve decision for a direction.
func approval(dir Direction) Decision {
	if dir == Backward {
		return ApprovedBackward
	}
	return Approved
}

// ApplyStats reports one Apply call's effect.
type ApplyStats struct {
	// PairsApplied counts member replacements with at least one
	// changed cell.
	PairsApplied int `json:"pairs_applied"`
	// CellsChanged counts updated cells.
	CellsChanged int `json:"cells_changed"`
}

// Apply performs every member replacement of an approved group in the
// given direction, updates the replacement sets (Section 7.1), and
// removes emptied candidates from the grouping engine. The first Apply
// on a group records its decision (Approved or ApprovedBackward) and
// updates the session counters; a re-apply of an already-decided group
// still performs the raw replacements but touches no counters, so
// GroupsApplied and CellsChanged always agree with the first-time
// decisions ReviewState reports (the public decision paths — Decide,
// ApplyReview — refuse re-applies outright).
func (s *Session) Apply(g *Group, dir Direction) ApplyStats {
	stats := s.applyMembers(g, dir)
	if g.decision == Pending {
		s.record(g, approval(dir), stats)
		s.stats.GroupsApplied++
		s.stats.CellsChanged += stats.CellsChanged
	}
	return stats
}

// applyMembers performs a group's raw member replacements in the given
// direction and review order (replace.Store.ApplyGroup), updating the
// replacement sets and pruning emptied candidates from the engine. It
// touches no decision state — Apply and the warm pre-decide path layer
// their own bookkeeping on top.
func (s *Session) applyMembers(g *Group, dir Direction) ApplyStats {
	res := s.store.ApplyGroup(g.members, dir == Backward)
	s.eng.Remove(res.Emptied...)
	return ApplyStats{PairsApplied: res.PairsApplied, CellsChanged: res.CellsChanged}
}

// Stats returns the session's progress counters.
func (s *Session) Stats() SessionStats { return s.stats }

// PhaseTimings reports the cumulative wall time the session's engine
// spent in each phase: context preparation (structure split and the
// constant table), graph build (transformation-graph construction and
// indexing, each structure group's preparation timed whichever
// goroutine ran it), and group search (pivot path search and group
// assembly, NextGroup's wall time less the time it ran or waited on a
// preparation). NextGroup prepares structure groups ahead while it
// searches, so GraphBuild and GroupSearch may overlap; each phase also
// runs on several goroutines, so its CPU time can exceed its duration.
// Every field only grows. Durations marshal to JSON as nanoseconds.
type PhaseTimings struct {
	ContextPrep time.Duration `json:"context_prep_ns"`
	GraphBuild  time.Duration `json:"graph_build_ns"`
	GroupSearch time.Duration `json:"group_search_ns"`
}

// Timings returns the session's accumulated engine-phase timings.
func (s *Session) Timings() PhaseTimings {
	t := s.eng.Timings()
	return PhaseTimings{
		ContextPrep: t.ContextPrep,
		GraphBuild:  t.GraphBuild,
		GroupSearch: t.GroupSearch,
	}
}

// GraphStats sums the sizes of the transformation graphs built so far
// (graphs build lazily as NextGroup needs them, so the counts
// grow as the session progresses).
type GraphStats struct {
	Nodes  int `json:"nodes"`
	Edges  int `json:"edges"`
	Labels int `json:"labels"`
}

// GraphStats returns the session's cumulative transformation-graph
// sizes.
func (s *Session) GraphStats() GraphStats {
	g := s.eng.GraphStats()
	return GraphStats{Nodes: g.Nodes, Edges: g.Edges, Labels: g.Labels}
}

// GroupState is the serializable snapshot of one issued group.
type GroupState struct {
	ID        int           `json:"id"`
	Program   string        `json:"program"`
	Structure string        `json:"structure"`
	Pairs     []Replacement `json:"pairs"`
	Decision  Decision      `json:"decision"`
	// Warm marks a group pre-decided at session open from a warm-start
	// prior (see Group.Warm).
	Warm bool `json:"warm,omitempty"`
	// Sites is the group's remaining replacement-set size at snapshot
	// time (see Group.RemainingSites).
	Sites int `json:"sites"`
	// Gain is the expected number of cells one review of this group
	// would fix (see Group.Gain); zero once the group is decided.
	Gain float64 `json:"gain"`
	// Applied reports the apply stats for approved groups (zero for
	// pending and rejected ones).
	Applied ApplyStats `json:"applied"`
}

// ReviewState is the serializable snapshot of a session's review
// progress: every issued group with its decision, plus the counters.
// Services use it to page pending groups to remote reviewers and to
// rebuild their view after a reconnect.
type ReviewState struct {
	Dataset string `json:"dataset"`
	Column  string `json:"column"`
	// Exhausted is true once the group stream has ended.
	Exhausted bool `json:"exhausted"`
	// ApproveRate is the empirical approve-rate prior the per-group
	// gains are computed with (see Session.ApproveRate).
	ApproveRate float64      `json:"approve_rate"`
	Stats       SessionStats `json:"stats"`
	Groups      []GroupState `json:"groups"`
}

// ReviewState snapshots the issued groups and their decisions. The
// snapshot is a deep-enough copy: mutating it does not affect the
// session.
func (s *Session) ReviewState() ReviewState {
	st := ReviewState{
		Dataset:     s.cons.ds.Name,
		Column:      s.cons.ds.Attrs[s.col],
		Exhausted:   s.exhausted,
		ApproveRate: s.ApproveRate(),
		Stats:       s.stats,
		Groups:      make([]GroupState, len(s.issued)),
	}
	for i, g := range s.issued {
		sites := g.RemainingSites()
		gain := 0.0
		if g.decision == Pending {
			gain = float64(sites) * st.ApproveRate
		}
		st.Groups[i] = GroupState{
			ID:        g.ID,
			Program:   g.Program,
			Structure: g.Structure,
			Pairs:     append([]Replacement(nil), g.Pairs...),
			Decision:  g.decision,
			Warm:      g.Warm,
			Sites:     sites,
			Gain:      gain,
			Applied:   g.applied,
		}
	}
	return st
}

// OracleVerifier returns a verification callback backed by ground truth:
// a simulated human that approves a group when at least threshold of its
// member pairs are true variants (0 means the 0.5 default) and picks the
// direction that moves values toward their canonical form. It exists for
// evaluation and examples; production use supplies a real human through
// RunBudget.
func (s *Session) OracleVerifier(tr *table.Truth, threshold float64) func(*Group) (bool, Direction) {
	o := oracle.New(s.cons.ds, tr, s.col, oracle.Options{ApproveThreshold: threshold})
	return func(g *Group) (bool, Direction) {
		d := o.VerifyGroup(g.members)
		dir := Forward
		if d.Invert {
			dir = Backward
		}
		return d.Approved, dir
	}
}

// RunBudget drives the verification loop of Algorithm 1 (lines 5-9):
// fetch groups largest-first, ask verify for a decision, apply approved
// groups, and stop after budget groups (0 = until exhausted). Every
// reviewed group gets its decision recorded, so ReviewState afterwards
// shows no Pending entries. It returns the number of groups reviewed.
func (s *Session) RunBudget(budget int, verify func(*Group) (bool, Direction)) int {
	reviewed := 0
	for budget <= 0 || reviewed < budget {
		g, ok := s.NextGroup()
		if !ok {
			break
		}
		reviewed++
		d := Rejected
		if ok, dir := verify(g); ok {
			d = approval(dir)
		}
		s.decide(g, d)
	}
	return reviewed
}
