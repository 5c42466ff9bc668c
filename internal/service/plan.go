package service

import (
	"fmt"
	"sort"

	"github.com/goldrec/goldrec"
)

// Budget planning (ROADMAP: review-budget optimization, after Sun et
// al., "Optimizing Human Involvement for Entity Matching and
// Consolidation", 2019): a reviewer with N decisions to spend across
// many live columns should not spend them largest-group-first within
// one column — they should chase expected gain. Plan ranks every
// pending group across sessions by Group.Gain (remaining sites × the
// session's empirical approve rate) and greedily allocates the budget
// to the top N. Under the priced gains the greedy top-N is exactly the
// optimum of "pick N groups maximizing total gain" (the planner tests
// verify this against a brute-force search) — but the prices
// themselves are an approximation: groups within one column can share
// sites, so the sum over an allocation can double-count cells two
// selected groups would both fix. Re-planning between review rounds
// absorbs that: applied groups shrink the survivors' remaining sites
// before the next allocation.

// PlanGroup is one pending group selected by the planner, in
// allocation (descending-gain) order.
type PlanGroup struct {
	GroupID int `json:"group_id"`
	// Sites is the group's remaining replacement-set size.
	Sites int `json:"sites"`
	// Gain is the expected number of cells one review would fix.
	Gain float64 `json:"gain"`
}

// PlanColumn is the slice of the budget allocated to one column
// session.
type PlanColumn struct {
	SessionID string `json:"session_id"`
	DatasetID string `json:"dataset_id"`
	// Dataset is the dataset's human-readable name.
	Dataset string `json:"dataset"`
	Column  string `json:"column"`
	// Budget is how many of the overall budget's reviews this column
	// received.
	Budget int `json:"budget"`
	// Gain is the column's share of the plan's total expected gain.
	Gain float64 `json:"gain"`
	// ApproveRate is the session's empirical approve-rate prior.
	ApproveRate float64 `json:"approve_rate"`
	// Groups lists the allocated groups, best first — the order the
	// reviewer should take them in.
	Groups []PlanGroup `json:"groups"`
}

// BudgetPlan is the planner's allocation of a review budget across
// columns.
type BudgetPlan struct {
	// Budget echoes the requested budget.
	Budget int `json:"budget"`
	// Allocated is how many reviews the plan actually assigns —
	// min(Budget, Pending).
	Allocated int `json:"allocated"`
	// Pending counts every reviewable pending group that competed for
	// the budget.
	Pending int `json:"pending"`
	// Gain is the plan's total expected gain (cells fixed).
	Gain float64 `json:"gain"`
	// Columns holds the per-column allocations, ordered by each
	// column's best group (the first column is where the reviewer's
	// first decision should go). Columns that received no budget are
	// omitted.
	Columns []PlanColumn `json:"columns"`
}

// planCandidate is one pending group while the planner is ranking.
type planCandidate struct {
	sessionID   string
	datasetID   string
	dataset     string
	column      string
	groupID     int
	sites       int
	gain        float64
	approveRate float64
}

// Plan ranks the pending groups of the scope's live sessions (every
// session when unscoped) by expected gain and greedily allocates a
// review budget of budget groups across them. Collection is shard-friendly:
// session pointers are gathered one registry shard at a time (no
// cross-shard or global lock), the tenant filter is applied during that
// walk, and each session's groups are read under that session's own
// mutex. Passivated sessions are not restored — planning is advisory
// and must not defeat passivation; touch a session to bring it back
// into the pool.
func (sc Scope) Plan(budget int) (BudgetPlan, error) {
	s := sc.svc
	if err := s.alive(); err != nil {
		return BudgetPlan{}, err
	}
	if budget <= 0 {
		return BudgetPlan{}, fmt.Errorf("budget must be positive, got %d", budget)
	}
	return assemblePlan(budget, s.collectCandidates(s.allSessions(sc.owner))), nil
}

// PlanDataset is Plan restricted to one dataset's live sessions. It
// touches the dataset (and restores a passivated one), exactly like
// every other dataset-addressed call.
func (sc Scope) PlanDataset(datasetID string, budget int) (BudgetPlan, error) {
	s := sc.svc
	if err := s.alive(); err != nil {
		return BudgetPlan{}, err
	}
	if budget <= 0 {
		return BudgetPlan{}, fmt.Errorf("budget must be positive, got %d", budget)
	}
	d, err := s.lookupDataset(sc.owner, datasetID)
	if err != nil {
		return BudgetPlan{}, err
	}
	return assemblePlan(budget, s.collectCandidates(s.datasetSessions(d))), nil
}

// allSessions gathers the owner's live sessions ("" = all) shard by
// shard. rangeAll holds one shard's read lock at a time and the filter
// plus append are non-blocking, so the planner never stalls traffic on
// other shards (or even on the shard being walked).
func (s *Service) allSessions(owner string) []*columnSession {
	var out []*columnSession
	s.sessions.rangeAll(func(_ string, cs *columnSession) bool {
		if owner == "" || cs.owner == owner {
			out = append(out, cs)
		}
		return true
	})
	return out
}

// collectCandidates snapshots the pending groups of the given
// sessions. Each session's buffer is read under its own mutex, outside
// any registry lock.
func (s *Service) collectCandidates(sessions []*columnSession) []planCandidate {
	var out []planCandidate
	for _, cs := range sessions {
		name := cs.d.cons.Dataset().Name
		cs.readPending(func(pending []*goldrec.Group, rate float64) {
			for _, g := range pending {
				// Buffered groups are undecided by invariant (a decision
				// removes them), so gain is just sites × rate — no second
				// walk of the member list through Group.Gain.
				sites := g.RemainingSites()
				out = append(out, planCandidate{
					sessionID:   cs.id,
					datasetID:   cs.datasetID,
					dataset:     name,
					column:      cs.column,
					groupID:     g.ID,
					sites:       sites,
					gain:        float64(sites) * rate,
					approveRate: rate,
				})
			}
		})
	}
	return out
}

// assemblePlan ranks the candidates and takes the top budget of them.
// The sort key is a total order (gain, sites, dataset name, column,
// group id, then ids as the final arbiter), so the plan is identical
// regardless of shard count or registry iteration order.
func assemblePlan(budget int, cands []planCandidate) BudgetPlan {
	sort.Slice(cands, func(a, b int) bool {
		x, y := cands[a], cands[b]
		switch {
		case x.gain != y.gain:
			return x.gain > y.gain
		case x.sites != y.sites:
			return x.sites > y.sites
		case x.dataset != y.dataset:
			return x.dataset < y.dataset
		case x.column != y.column:
			return x.column < y.column
		case x.groupID != y.groupID:
			return x.groupID < y.groupID
		default:
			return x.datasetID < y.datasetID
		}
	})
	plan := BudgetPlan{Budget: budget, Pending: len(cands)}
	take := cands
	if budget < len(take) {
		take = take[:budget]
	}
	// Fold the ranked selection into per-column slices. Columns appear
	// in the order of their best group, so the first column is where
	// the reviewer's first decision should go.
	bySession := make(map[string]int)
	for _, c := range take {
		i, ok := bySession[c.sessionID]
		if !ok {
			i = len(plan.Columns)
			bySession[c.sessionID] = i
			plan.Columns = append(plan.Columns, PlanColumn{
				SessionID:   c.sessionID,
				DatasetID:   c.datasetID,
				Dataset:     c.dataset,
				Column:      c.column,
				ApproveRate: c.approveRate,
			})
		}
		col := &plan.Columns[i]
		col.Budget++
		col.Gain += c.gain
		col.Groups = append(col.Groups, PlanGroup{GroupID: c.groupID, Sites: c.sites, Gain: c.gain})
		plan.Allocated++
		plan.Gain += c.gain
	}
	return plan
}
