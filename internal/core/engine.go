package core

import (
	"cmp"
	"container/heap"
	"context"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/goldrec/goldrec/internal/dsl"
	"github.com/goldrec/goldrec/internal/obs/trace"
	"github.com/goldrec/goldrec/internal/tgraph"
)

// Mode selects the grouping algorithm variant of Section 8.2.
type Mode int

const (
	// ModeOneShot is the vanilla UnsupervisedGrouping of Algorithm 2:
	// no early termination.
	ModeOneShot Mode = iota
	// ModeEarlyTerm adds the two threshold-based early terminations of
	// Section 5.2 (Algorithm 4).
	ModeEarlyTerm
)

// Options configure a grouping engine.
type Options struct {
	// Graph controls transformation-graph construction.
	Graph tgraph.Options
	// MaxPathLen is θ (default 6).
	MaxPathLen int
	// ConstantScoring enables the Appendix E constant-string static
	// order using freqStruc/sqrt(freqGlobal) scores.
	ConstantScoring bool
	// MaxSteps bounds each pivot search's DFS extensions
	// (0 = unlimited). With a budget the engine degrades gracefully on
	// dense graphs (e.g. when the Appendix E static orders are
	// disabled for ablation) at the cost of exactness: a truncated
	// search may miss the true pivot.
	MaxSteps int
	// Warm seeds the engine with prior programs from a transformation
	// library. Deterministic priors are pre-applied before grouping:
	// every alive replacement a prior maps exactly (Run(S) == T) is
	// claimed into a pre-decided warm group and excluded from the
	// search. Priors are tried in slice order, so callers must order
	// them deterministically (the library sorts by canonical key);
	// non-deterministic programs are skipped — affix functions have
	// many outputs and cannot pre-decide anything.
	Warm []WarmPrior
}

// WarmPrior is one library program offered to the engine for
// warm-start pre-application, with its historical review outcomes.
type WarmPrior struct {
	Program    dsl.Program
	Approvals  int
	Rejections int
}

// maxConstLen caps, in bytes, the substring length the constant
// scorer's substring index tracks; longer substrings score zero and are
// pruned (the whole-string constant is always kept by the builder).
const maxConstLen = 16

// Group is one replacement group: the set of replacements that share the
// pivot transformation path Path (a program in the DSL) and the structure
// signature Sig.
type Group struct {
	Sig     string
	Path    []tgraph.LabelID
	Program dsl.Program
	Members []Rep
	// Warm marks a group pre-decided from a library prior during
	// warm start rather than discovered by the pivot search.
	Warm bool
}

// Size returns the number of member replacements.
func (g *Group) Size() int { return len(g.Members) }

// Engine partitions candidate replacements by structure (Section 7.2)
// and groups each partition by shared pivot paths. It supports both the
// upfront AllGroups (Algorithm 2) and the incremental NextGroup
// (Algorithms 5-7).
type Engine struct {
	opts Options
	ctxs []*Context
	// loc maps an external replacement id to its context and index.
	loc map[int]struct {
		ctx *Context
		idx int
	}
	subs  *substrIndex // the constant scorer's counts; nil when off
	units *unitHeap
	warm  []*Group
	// order holds every context's placeholder unit, largest key first:
	// the order prepare-ahead walks. Every context before order[next]
	// is prepared or has no alive replacement.
	order []unit
	next  int
	// prepMu lets one preparation run at a time, the main loop's or
	// prepare-ahead's: all of them count into the constant table's one
	// structural table.
	prepMu sync.Mutex
	// noAhead turns prepare-ahead off (tests compare against it).
	noAhead bool
	// The phase timings (in nanoseconds) are atomic because they are
	// read while grouping runs: goldrecd's session info reads Timings
	// while its group generator runs NextGroup outside the session
	// lock, and prepare-ahead adds to buildNanos from its goroutine.
	prepNanos   atomic.Int64
	buildNanos  atomic.Int64
	searchNanos atomic.Int64
}

// Timings reports cumulative wall time spent in each engine phase:
// context preparation (structure split and the constant table in
// NewEngine), graph build (tgraph construction and indexing in
// Context.Prepare, each preparation's wall time whichever goroutine ran
// it), and group search (NextGroup's own wall time less the time it
// waited on or ran a preparation). NextGroup prepares structure groups
// ahead on a second goroutine while it searches, so GraphBuild and
// GroupSearch may overlap and their sum can exceed the wall time
// spent; graph builds and the constant table run on GOMAXPROCS
// goroutines, so the CPU time a phase takes can exceed its duration.
// Every field only grows.
type Timings struct {
	ContextPrep time.Duration
	GraphBuild  time.Duration
	GroupSearch time.Duration
}

// Timings returns the engine's accumulated phase timings.
func (e *Engine) Timings() Timings {
	return Timings{
		ContextPrep: time.Duration(e.prepNanos.Load()),
		GraphBuild:  time.Duration(e.buildNanos.Load()),
		GroupSearch: time.Duration(e.searchNanos.Load()),
	}
}

// GraphStats sums the sizes of every transformation graph built so far
// (unprepared contexts contribute nothing — graphs build lazily in the
// incremental algorithm). Not safe concurrently with AllGroups.
func (e *Engine) GraphStats() tgraph.Stats {
	var total tgraph.Stats
	for _, c := range e.ctxs {
		if !c.Prepared() {
			continue
		}
		for _, g := range c.Graphs {
			s := g.Stats()
			total.Nodes += s.Nodes
			total.Edges += s.Edges
			total.Labels += s.Labels
		}
	}
	return total
}

// NewEngine builds the engine over a set of candidate replacements. Ext
// ids must be unique.
func NewEngine(reps []Rep, opts Options) *Engine {
	return NewEngineCtx(context.Background(), reps, opts)
}

// NewEngineCtx is NewEngine carrying a trace context: construction is
// the paper pipeline's context_prep phase (structure split plus the
// constant table) and records as one span on the request that opened
// the session.
func NewEngineCtx(ctx context.Context, reps []Rep, opts Options) *Engine {
	pctx, sp := trace.StartSpan(ctx, "context_prep")
	defer sp.End()
	start := time.Now()
	e := &Engine{opts: opts}
	e.ctxs = splitByStructure(reps)
	e.loc = make(map[int]struct {
		ctx *Context
		idx int
	}, len(reps))
	for _, c := range e.ctxs {
		for i, r := range c.Reps {
			e.loc[r.Ext] = struct {
				ctx *Context
				idx int
			}{c, i}
		}
	}
	if len(opts.Warm) > 0 {
		e.preapplyWarm(pctx)
	}
	if opts.ConstantScoring {
		e.subs = newSubstrIndex(maxConstLen)
		// Count over what grouping will actually see: warm-claimed
		// replacements are already decided and must not skew the
		// constant scores.
		for _, c := range e.ctxs {
			for i, r := range c.Reps {
				if !c.preDead[i] {
					e.subs.add(r.T)
				}
			}
		}
		e.subs.seal()
	}
	e.units = &unitHeap{}
	for ci, c := range e.ctxs {
		heap.Push(e.units, unit{ctx: ci, gi: -1, up: c.AliveCount()})
	}
	e.order = slices.Clone(*e.units)
	slices.SortStableFunc(e.order, func(a, b unit) int { return cmp.Compare(b.up, a.up) })
	for i, u := range e.order {
		e.ctxs[u.ctx].rank = i
	}
	e.prepNanos.Store(time.Since(start).Nanoseconds())
	return e
}

// preapplyWarm claims replacements exactly reproduced by deterministic
// library priors into pre-decided warm groups, before any graph is
// built. One warm group forms per (prior, structure group) pair so a
// group keeps the single signature the review UI renders. Priors are
// tried in order; a replacement claimed by an earlier prior is gone for
// later ones, so the whole pass is deterministic for a fixed prior
// order and replacement set.
func (e *Engine) preapplyWarm(ctx context.Context) {
	_, sp := trace.StartSpan(ctx, "library_preapply")
	defer sp.End()
	matched := 0
	for _, w := range e.opts.Warm {
		if len(w.Program) == 0 || !w.Program.Deterministic() {
			continue
		}
		for _, c := range e.ctxs {
			var members []Rep
			for i, r := range c.Reps {
				if c.preDead[i] {
					continue
				}
				if out, ok := w.Program.Run(r.S); ok && out == r.T {
					members = append(members, r)
				}
			}
			if len(members) == 0 {
				continue
			}
			for _, r := range members {
				if l, ok := e.loc[r.Ext]; ok {
					l.ctx.remove(l.idx)
				}
			}
			matched += len(members)
			e.warm = append(e.warm, &Group{
				Sig:     c.Sig,
				Program: w.Program,
				Members: members,
				Warm:    true,
			})
		}
	}
	sp.Annotate("priors", strconv.Itoa(len(e.opts.Warm)))
	sp.Annotate("groups", strconv.Itoa(len(e.warm)))
	sp.Annotate("members", strconv.Itoa(matched))
}

// WarmGroups returns the pre-decided groups formed from library priors
// at construction, in formation order. The slice is owned by the
// engine; callers must not mutate it.
func (e *Engine) WarmGroups() []*Group { return e.warm }

// graphOptions returns the tgraph options for one context, wiring in the
// per-structure-group constant table when enabled. Its scores read the
// engine's one structural count table, so they are valid only until
// graphOptions is called for another context.
func (e *Engine) graphOptions(c *Context) tgraph.Options {
	opt := e.opts.Graph
	if e.subs != nil {
		e.subs.countContext(c)
		opt.Constants = e.subs
	}
	return opt
}

// prepare builds c's graphs unless they are built. One preparation runs
// at a time, whichever goroutine asks; a is set when prepare-ahead asks,
// and then prepare gives way once a stops.
func (e *Engine) prepare(ctx context.Context, c *Context, a *ahead) {
	if c.Prepared() {
		return
	}
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	if c.Prepared() || a != nil && a.stop.Load() {
		return
	}
	start := time.Now()
	_, sp := trace.StartSpan(ctx, "graph_build")
	c.ahead = a != nil
	c.Prepare(e.graphOptions(c))
	sp.End()
	e.buildNanos.Add(time.Since(start).Nanoseconds())
}

// ahead is one NextGroup call's prepare-ahead: a goroutine that
// prepares structure groups while the main loop searches, in the order
// the unit heap pops their placeholders, up to the first whose key does
// not exceed τ — the main loop raises tau as it finds larger groups.
type ahead struct {
	tau  atomic.Int64
	stop atomic.Bool
	done chan struct{}
}

// startAhead starts prepare-ahead as the main loop is about to prepare
// c itself. It starts from the next context in order other than c that
// needs preparing and whose key exceeds tau, and returns nil without a
// goroutine when there is none, or when GOMAXPROCS is 1 and no core
// would be idle while the main loop searches.
func (e *Engine) startAhead(ctx context.Context, c *Context, tau int) *ahead {
	if runtime.GOMAXPROCS(0) < 2 {
		return nil
	}
	for e.next < len(e.order) && e.ctxs[e.order[e.next].ctx].settled() {
		e.next++
	}
	for i := e.next; i < len(e.order) && e.order[i].up > tau; i++ {
		if d := e.ctxs[e.order[i].ctx]; d != c && !d.settled() {
			a := &ahead{done: make(chan struct{})}
			a.tau.Store(int64(tau))
			go e.prepareAhead(ctx, i, a)
			return a
		}
	}
	return nil
}

// prepareAhead is prepare-ahead's goroutine, walking order from from.
func (e *Engine) prepareAhead(ctx context.Context, from int, a *ahead) {
	defer close(a.done)
	for _, u := range e.order[from:] {
		if a.stop.Load() || int64(u.up) <= a.tau.Load() {
			return
		}
		if c := e.ctxs[u.ctx]; !c.settled() {
			e.prepare(ctx, c, a)
		}
	}
}

// join stops prepare-ahead and waits for it: a preparation under way
// completes first.
func (a *ahead) join() {
	a.stop.Store(true)
	<-a.done
}

// searchOpts returns the per-mode pivot search options.
func (e *Engine) searchOpts(mode Mode) SearchOpts {
	return SearchOpts{
		MaxPathLen: e.opts.MaxPathLen,
		LocalTerm:  mode != ModeOneShot,
		GlobalTerm: mode != ModeOneShot,
		MaxSteps:   e.opts.MaxSteps,
	}
}

// AllGroups runs the upfront grouping of Algorithm 2: every alive
// replacement is assigned to the group of its pivot path, and the groups
// are returned sorted by size descending (the verification order of
// Section 3 Step 3).
func (e *Engine) AllGroups(mode Mode) []*Group {
	var all []*Group
	for _, c := range e.ctxs {
		e.prepare(context.Background(), c, nil)
		start := time.Now()
		all = append(all, e.groupContext(c, mode)...)
		e.searchNanos.Add(time.Since(start).Nanoseconds())
	}
	sortGroups(all)
	return all
}

// groupContext groups one prepared context by pivot path. Because a
// graph can have several pivot paths with the same (maximal) support, the
// raw per-graph search result is DFS-order dependent and would split
// groups that Algorithm 7 keeps together; a canonical second pass assigns
// every graph to the lexicographically smallest path among its
// maximal-support candidates, which restores the paper's claim that the
// one-shot and incremental algorithms produce the same groups.
func (e *Engine) groupContext(c *Context, mode Mode) []*Group {
	opts := e.searchOpts(mode)
	type found struct {
		gi    int
		count int
	}
	var founds []found
	paths := make(map[string][]tgraph.LabelID)
	for gi, g := range c.Graphs {
		if g == nil || !c.alive[gi] {
			continue
		}
		res, ok := c.SearchPivot(g, 0, opts)
		if !ok {
			// Cannot happen: the whole-string constant path always
			// spans g itself. Guard anyway.
			continue
		}
		founds = append(founds, found{gi: gi, count: res.count})
		paths[pathKey(res.path)] = res.path
	}
	// Support sets of every distinct pivot path found.
	type pathInfo struct {
		key     string
		path    []tgraph.LabelID
		support map[int32]bool
		size    int
	}
	keys := make([]string, 0, len(paths))
	for k := range paths {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	infos := make([]pathInfo, 0, len(keys))
	for _, k := range keys {
		sup := c.pathSupport(paths[k])
		m := make(map[int32]bool, len(sup))
		for _, g := range sup {
			m[g] = true
		}
		infos = append(infos, pathInfo{key: k, path: paths[k], support: m, size: len(sup)})
	}
	// Canonical assignment: smallest key among max-support candidates.
	byPath := make(map[string]*Group)
	var order []string
	for _, f := range founds {
		var chosen *pathInfo
		for i := range infos {
			in := &infos[i]
			if in.size == f.count && in.support[int32(f.gi)] {
				chosen = in
				break // keys are sorted, first hit is smallest
			}
		}
		if chosen == nil {
			continue // unreachable: the graph's own pivot qualifies
		}
		grp, exists := byPath[chosen.key]
		if !exists {
			grp = &Group{Sig: c.Sig, Path: chosen.path, Program: c.Program(chosen.path)}
			byPath[chosen.key] = grp
			order = append(order, chosen.key)
		}
		grp.Members = append(grp.Members, c.Reps[f.gi])
	}
	out := make([]*Group, 0, len(order))
	for _, key := range order {
		out = append(out, byPath[key])
	}
	return out
}

func pathKey(path []tgraph.LabelID) string {
	b := make([]byte, 0, len(path)*4)
	for _, id := range path {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// sortGroups orders groups by size descending with deterministic
// tie-breaking (structure signature, then program rendering).
func sortGroups(gs []*Group) {
	sort.Slice(gs, func(a, b int) bool {
		if len(gs[a].Members) != len(gs[b].Members) {
			return len(gs[a].Members) > len(gs[b].Members)
		}
		if gs[a].Sig != gs[b].Sig {
			return gs[a].Sig < gs[b].Sig
		}
		pa, pb := gs[a].Program.Key(), gs[b].Program.Key()
		if pa != pb {
			return pa < pb
		}
		return gs[a].Members[0].Ext < gs[b].Members[0].Ext
	})
}

// Remove drops replacements (by external id) from future grouping — the
// framework calls it when an applied group empties a replacement set
// (Section 7.1).
//
// A context prepare-ahead built but the main loop has not expanded is
// dropped first, so the removal reaches its build as one made before
// preparation — as when the main loop prepares it itself, which it then
// does again.
func (e *Engine) Remove(exts ...int) {
	for _, ext := range exts {
		if l, ok := e.loc[ext]; ok {
			if l.ctx.ahead {
				l.ctx.unprepare()
				e.next = min(e.next, l.ctx.rank)
			}
			l.ctx.remove(l.idx)
		}
	}
}

// ---- incremental engine (Section 6, Algorithms 5-7) ----

type unit struct {
	ctx int
	gi  int // -1 = unprepared context placeholder
	up  int
}

type unitHeap []unit

func (h unitHeap) Len() int            { return len(h) }
func (h unitHeap) Less(i, j int) bool  { return h[i].up > h[j].up }
func (h unitHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *unitHeap) Push(x interface{}) { *h = append(*h, x.(unit)) }
func (h *unitHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// validatedTau computes τ, the largest *validated* lower bound among
// alive graphs. Lower bounds whose witness predates a removal are
// re-validated by re-intersecting the witness path (witnessed lower
// bounds keep Theorem 6.4 correct under removals).
func (e *Engine) validatedTau() (tau int, ctx *Context, gi int) {
	tau = 1
	for {
		best, bestCtx, bestGi := 1, (*Context)(nil), -1
		for _, c := range e.ctxs {
			if !c.Prepared() {
				continue
			}
			for i := range c.Graphs {
				if c.Graphs[i] == nil || !c.alive[i] || c.lo[i] <= best {
					continue
				}
				best, bestCtx, bestGi = c.lo[i], c, i
			}
		}
		if bestCtx == nil {
			return tau, nil, -1
		}
		if bestCtx.witnessGen[bestGi] == bestCtx.gen {
			return best, bestCtx, bestGi
		}
		// Stale: re-validate against the alive set.
		support := bestCtx.pathSupport(bestCtx.witness[bestGi])
		n := len(support)
		if n < 1 {
			n = 1
		}
		bestCtx.lo[bestGi] = n
		bestCtx.witnessGen[bestGi] = bestCtx.gen
	}
}

// NextGroup is GenerateNextLargestGroup (Algorithm 7): it returns the
// largest remaining replacement group and removes its members from
// future consideration. It returns nil when no replacements remain.
func (e *Engine) NextGroup() *Group {
	return e.NextGroupCtx(context.Background())
}

// NextGroupCtx is NextGroup carrying a trace context: the call records
// as one group_search span, with a graph_build child per context whose
// graphs it had to build lazily along the way.
//
// Every structure group whose placeholder key exceeds the final τ is
// prepared before the group can be returned. The main loop prepares the
// first itself and starts prepare-ahead on the rest, which builds them
// in pop order while the loop searches; the loop still expands each
// context into its unit heap when it pops the placeholder, so pop
// order, τ and the group returned are those of preparing on demand.
// Prepare-ahead is joined before the group's members are removed.
func (e *Engine) NextGroupCtx(ctx context.Context) *Group {
	var sp *trace.Span
	ctx, sp = trace.StartSpan(ctx, "group_search")
	defer sp.End()
	start := time.Now()
	// waited is the time the main loop spent running a preparation or
	// blocked on one: build time, not search time.
	var waited time.Duration
	defer func() {
		e.searchNanos.Add((time.Since(start) - waited).Nanoseconds())
	}()
	var a *ahead
	aheadTried := e.noAhead
	tau, tauCtx, tauGi := e.validatedTau()
	var best searchResult
	var bestCtx *Context
	best.count = tau
	var fallbackCtx *Context
	fallbackGi := -1

	searchOpts := e.searchOpts(ModeEarlyTerm)

	for e.units.Len() > 0 {
		it := heap.Pop(e.units).(unit)
		c := e.ctxs[it.ctx]
		if it.gi == -1 {
			if c.expanded {
				continue
			}
			if len(c.Reps) == len(c.preDead) {
				continue // nothing alive
			}
			if tau >= it.up && fallbackCtx != nil {
				// Even this whole context cannot beat τ; put it back
				// for later invocations and stop.
				heap.Push(e.units, it)
				break
			}
			if !c.Prepared() {
				if !aheadTried {
					aheadTried = true
					a = e.startAhead(ctx, c, tau)
				}
				t := time.Now()
				e.prepare(ctx, c, nil)
				waited += time.Since(t)
			}
			c.expanded, c.ahead = true, false
			for gi, g := range c.Graphs {
				if g != nil && c.alive[gi] {
					heap.Push(e.units, unit{ctx: it.ctx, gi: gi, up: c.up[gi]})
				}
			}
			continue
		}
		if c.Graphs[it.gi] == nil || !c.alive[it.gi] {
			continue
		}
		if it.up != c.up[it.gi] {
			// Stale entry; reinsert with the current bound.
			heap.Push(e.units, unit{ctx: it.ctx, gi: it.gi, up: c.up[it.gi]})
			continue
		}
		if fallbackCtx == nil {
			fallbackCtx, fallbackGi = c, it.gi
		}
		if tau >= it.up {
			heap.Push(e.units, it)
			break
		}
		res, ok := c.SearchPivot(c.Graphs[it.gi], tau, searchOpts)
		if ok {
			tau = res.count
			if a != nil {
				a.tau.Store(int64(tau))
			}
			best = res
			bestCtx = c
			c.lo[it.gi] = res.count
			c.up[it.gi] = res.count
			c.witness[it.gi] = res.path
			c.witnessGen[it.gi] = c.gen
		} else {
			c.up[it.gi] = tau
		}
		heap.Push(e.units, unit{ctx: it.ctx, gi: it.gi, up: c.up[it.gi]})
	}
	if a != nil {
		t := time.Now()
		a.join()
		waited += time.Since(t)
	}

	if bestCtx == nil {
		// No search beat τ. The largest group is the validated witness
		// (or a singleton when τ = 1).
		switch {
		case tauCtx != nil && tauCtx.witness[tauGi] != nil:
			path := tauCtx.witness[tauGi]
			support := tauCtx.pathSupport(path)
			if len(support) > 0 {
				best = searchResult{path: path, support: support, count: len(support)}
				bestCtx = tauCtx
			}
		}
		if bestCtx == nil && fallbackCtx != nil {
			res, ok := fallbackCtx.SearchPivot(fallbackCtx.Graphs[fallbackGi], 0,
				SearchOpts{MaxPathLen: e.opts.MaxPathLen, LocalTerm: true})
			if ok {
				best = res
				bestCtx = fallbackCtx
			}
		}
		if bestCtx == nil {
			return nil
		}
	}

	grp := &Group{
		Sig:     bestCtx.Sig,
		Path:    best.path,
		Program: bestCtx.Program(best.path),
	}
	for _, gid := range best.support {
		grp.Members = append(grp.Members, bestCtx.Reps[gid])
		bestCtx.remove(int(gid))
	}
	return grp
}
