package core

import "github.com/goldrec/goldrec/internal/tgraph"

// SearchOpts controls the pivot-path search.
type SearchOpts struct {
	// MaxPathLen is θ, the maximum number of string functions in a
	// path (Section 8.2 uses 6). 0 means the default of 6.
	MaxPathLen int
	// LocalTerm enables the local threshold-based early termination of
	// Section 5.2: a branch is extended only when its list is strictly
	// longer than the best transformation path found so far.
	LocalTerm bool
	// GlobalTerm enables the global threshold-based early termination:
	// completed paths raise the lower bounds of every graph in their
	// support, and branches below the searched graph's own bound are
	// skipped.
	GlobalTerm bool
	// MaxSteps bounds the number of DFS extensions per search
	// (0 = unlimited). It is an escape hatch for the prune-free
	// OneShot mode on long strings; the reproduction experiments leave
	// it unset so the Figure 9 comparison stays honest.
	MaxSteps int
}

// DefaultMaxPathLen is the paper's θ = 6.
const DefaultMaxPathLen = 6

func (o SearchOpts) maxPathLen() int {
	if o.MaxPathLen <= 0 {
		return DefaultMaxPathLen
	}
	return o.MaxPathLen
}

// searchResult is the outcome of one SearchPivot invocation.
type searchResult struct {
	path    []tgraph.LabelID
	support []int32 // spanning graphs, sorted
	count   int     // len(support)
}

type searcher struct {
	ctx  *Context
	g    *tgraph.Graph
	opts SearchOpts

	best      searchResult
	seedCount int // |ℓmax| seed of Algorithm 7 (τ); best must exceed it
	maxLen    int
	steps     int
	// bufs[d] holds the posting list of the current depth-d extension;
	// siblings reuse it once the subtree below has been searched.
	bufs    [][]Posting
	support []int32 // scratch for the support of a completed path
}

// SearchPivot finds the pivot path of graph g: the transformation path in
// g shared by the largest number of alive graphs in the context
// (Algorithm 3, with Algorithm 4's early terminations switchable and the
// seeded ℓmax of Algorithm 7). It returns ok=false when no path with
// support greater than seedCount exists (the incremental algorithm then
// tightens g's upper bound to τ).
func (c *Context) SearchPivot(g *tgraph.Graph, seedCount int, opts SearchOpts) (searchResult, bool) {
	s := &searcher{
		ctx:       c,
		g:         g,
		opts:      opts,
		seedCount: seedCount,
		maxLen:    opts.maxPathLen(),
		bufs:      make([][]Posting, opts.maxPathLen()),
	}
	s.best.count = seedCount
	s.dfs(1, nil, c.seedList())
	if s.best.path == nil {
		return searchResult{}, false
	}
	return s.best, true
}

func (s *searcher) dfs(node int, path []tgraph.LabelID, l []Posting) {
	s.steps++
	if s.opts.MaxSteps > 0 && s.steps > s.opts.MaxSteps {
		return
	}
	if node == s.g.FinalNode() {
		// ρ is a transformation path; its support is the set of graphs
		// it spans (Line 2-5 of Algorithm 3).
		support := spanningGraphsInto(s.support, l, s.ctx.Graphs)
		s.support = support
		n := len(support)
		if s.opts.GlobalTerm {
			// Algorithm 4: raise the global lower bounds of every
			// graph containing ρ, remembering the witness so the
			// incremental engine can re-validate after removals. The
			// graphs raised here share one copy of ρ.
			var witness []tgraph.LabelID
			for _, gid := range support {
				if s.ctx.lo[gid] < n {
					if witness == nil {
						witness = append([]tgraph.LabelID(nil), path...)
					}
					s.ctx.lo[gid] = n
					s.ctx.witness[gid] = witness
					s.ctx.witnessGen[gid] = s.ctx.gen
				}
			}
		}
		if n > s.best.count {
			s.best.count = n
			s.best.path = append([]tgraph.LabelID(nil), path...)
			s.best.support = append([]int32(nil), support...)
		}
		return
	}
	if len(path) >= s.maxLen {
		return
	}
	lo, hi := s.g.Edges(node)
	for e := lo; e < hi; e++ {
		to, labels := s.g.Edge(e)
		for _, f := range labels {
			l2 := intersectInto(s.bufs[len(path)], l, s.ctx.Index.List(f), s.ctx.alive)
			s.bufs[len(path)] = l2
			cnt := distinctGraphs(l2)
			if cnt == 0 {
				continue
			}
			if s.opts.LocalTerm && cnt <= s.best.count {
				continue
			}
			if s.opts.GlobalTerm && cnt < s.ctx.lo[s.g.ID] {
				continue
			}
			path = append(path, f)
			s.dfs(to, path, l2)
			path = path[:len(path)-1]
		}
	}
}
