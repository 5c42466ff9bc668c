package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/goldrec/goldrec/internal/dsl"
	"github.com/goldrec/goldrec/internal/structure"
	"github.com/goldrec/goldrec/internal/tgraph"
)

// Rep is a candidate replacement handed to the grouping engine: the two
// strings plus an opaque external identifier the caller uses to map
// groups back to its own candidate store.
type Rep struct {
	S, T string
	Ext  int
}

// Context is the grouping state of one structure group (Section 7.2):
// the graphs of its replacements, their shared label registry and
// inverted index, and the per-graph bounds of the incremental algorithm.
type Context struct {
	Sig  string
	Reps []Rep

	// prepared is set, last, once Prepare has built everything below:
	// prepare-ahead builds contexts while the main loop reads them.
	prepared atomic.Bool
	// ahead marks a context prepare-ahead built and the main loop has
	// not yet expanded into its unit heap; expanded marks one it has.
	ahead    bool
	expanded bool
	rank     int // position in Engine.order

	Reg    *tgraph.Registry
	Graphs []*tgraph.Graph // Graphs[i] may be nil (unbuildable rep)
	Index  *Index

	alive    []bool
	aliveN   int
	seeds    []Posting // ⟨G,1,1⟩ for every alive graph
	seedsGen int64     // removal generation the seeds were built at

	lo         []int // global lower bounds Glo (Algorithm 4 / Section 6)
	up         []int // upper bounds Gup (Lemma 6.2)
	witness    [][]tgraph.LabelID
	witnessGen []int64
	gen        int64 // bumped on every removal

	// preDead collects removals that arrive before Prepare; Prepare
	// skips them.
	preDead map[int]bool
}

// newContext builds an unprepared context; Prepare is called lazily
// (Section 7.2: the structure-group size serves as the initial upper
// bound until the group is first visited).
func newContext(sig string, reps []Rep) *Context {
	return &Context{Sig: sig, Reps: reps}
}

// Prepared reports whether graphs and index have been built.
func (c *Context) Prepared() bool { return c.prepared.Load() }

// settled reports whether c needs no preparation: it is prepared, or
// nothing of it is alive (counted as before preparation).
func (c *Context) settled() bool {
	return c.Prepared() || len(c.Reps) == len(c.preDead)
}

// AliveCount returns the number of alive (not yet grouped/removed)
// replacements.
func (c *Context) AliveCount() int {
	if !c.Prepared() {
		return len(c.Reps) - len(c.preDead)
	}
	return c.aliveN
}

// Prepare is Algorithm 6 for one structure group: it builds the graphs,
// the inverted index, and initializes lower bounds to 1 and upper bounds
// per Lemma 6.2. Replacements whose graphs cannot be built (empty or
// overlong strings) are marked dead.
func (c *Context) Prepare(opt tgraph.Options) {
	if c.Prepared() {
		return
	}
	c.buildGraphs(opt)
	c.index()
}

// index completes Prepare over the built graphs: liveness, the inverted
// index, the initial bounds and the seed list.
func (c *Context) index() {
	n := len(c.Reps)
	c.alive = make([]bool, n)
	c.lo = make([]int, n)
	c.up = make([]int, n)
	c.witness = make([][]tgraph.LabelID, n)
	c.witnessGen = make([]int64, n)
	for i, g := range c.Graphs {
		if g == nil {
			continue
		}
		g.ID = i
		c.alive[i] = true
		c.aliveN++
	}
	c.Index = BuildIndex(c.Graphs, c.Reg.Len())
	for i, g := range c.Graphs {
		if g == nil {
			continue
		}
		c.lo[i] = 1
		c.up[i] = c.upperBound(g)
	}
	c.refreshSeeds()
	c.prepared.Store(true)
}

// unprepare drops what Prepare built, keeping the removals: the next
// Prepare builds the context as if it had never been prepared.
func (c *Context) unprepare() {
	c.prepared.Store(false)
	c.ahead = false
	c.Reg, c.Graphs, c.Index = nil, nil, nil
	c.alive, c.aliveN, c.seeds, c.seedsGen = nil, 0, nil, 0
	c.lo, c.up, c.witness, c.witnessGen, c.gen = nil, nil, nil, nil, 0
}

// buildGraphs builds the graphs of the alive replacements (Section 7.2
// makes them independent apart from the label registry) on GOMAXPROCS
// workers, each interning into a registry of its own. A serial pass then
// rebases them onto c.Reg in replacement order, so c.Reg assigns exactly
// the LabelIDs of building every graph in order on c.Reg itself, and
// seals it: nothing interns into a prepared context. Under
// Engine.NextGroup the build may be prepare-ahead's, running while the
// main loop searches other contexts, so graph_build and group_search
// wall time can overlap.
func (c *Context) buildGraphs(opt tgraph.Options) {
	n := len(c.Reps)
	c.Reg = tgraph.NewRegistry()
	c.Graphs = make([]*tgraph.Graph, n)
	regs := make([]*tgraph.Registry, n) // the registry graph i was built on
	first := make([]tgraph.LabelID, n)  // its Len when graph i's build began
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg := tgraph.NewRegistry()
			// Each worker claims graphs in increasing order, the
			// order Rebase needs within one registry.
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if c.preDead[i] {
					continue
				}
				regs[i], first[i] = reg, tgraph.LabelID(reg.Len())
				c.Graphs[i] = tgraph.Build(c.Reps[i].S, c.Reps[i].T, reg, opt)
			}
		}()
	}
	wg.Wait()
	for i, g := range c.Graphs {
		if g != nil {
			regs[i].Rebase(g, first[i], c.Reg)
		}
	}
	c.Reg.Seal()
}

// upperBound implements Lemma 6.2: for every node position k of t, some
// edge covering k must appear in the pivot path, so the largest inverted
// list among the labels of covering edges bounds the pivot support; the
// smallest such bound over all k is the tightest.
func (c *Context) upperBound(g *tgraph.Graph) int {
	m := g.N - 1 // positions 1..m must be covered
	ub := make([]int, m+1)
	for i := 1; i <= m; i++ {
		lo, hi := g.Edges(i)
		for e := lo; e < hi; e++ {
			to, labels := g.Edge(e)
			best := 0
			for _, f := range labels {
				if n := c.Index.GraphCount(f); n > best {
					best = n
				}
			}
			for k := i; k < to && k <= m; k++ {
				if best > ub[k] {
					ub[k] = best
				}
			}
		}
	}
	min := math.MaxInt
	for k := 1; k <= m; k++ {
		if ub[k] < min {
			min = ub[k]
		}
	}
	if min == math.MaxInt {
		min = 1
	}
	if alive := c.aliveN; min > alive {
		min = alive
	}
	return min
}

// refreshSeeds rebuilds the initial posting list ⟨G,1,1⟩ over alive
// graphs (the "ℓ contains all the graphs in G" initialization of
// Algorithm 2 line 5).
func (c *Context) refreshSeeds() {
	c.seeds = c.seeds[:0]
	for i, ok := range c.alive {
		if ok {
			c.seeds = append(c.seeds, Posting{G: int32(i), I: 1, J: 1})
		}
	}
	c.seedsGen = c.gen
}

func (c *Context) seedList() []Posting {
	if c.seedsGen != c.gen {
		c.refreshSeeds()
	}
	return c.seeds
}

// remove marks the replacement at index i dead; future intersections and
// counts ignore it.
func (c *Context) remove(i int) {
	if !c.Prepared() {
		if c.preDead == nil {
			c.preDead = make(map[int]bool)
		}
		c.preDead[i] = true
		return
	}
	if c.alive[i] {
		c.alive[i] = false
		c.aliveN--
		c.gen++
	}
}

// pathSupport recomputes the spanning support of a label path against the
// current alive set. Used to validate stale lower-bound witnesses after
// removals and to materialize witness groups.
func (c *Context) pathSupport(path []tgraph.LabelID) []int32 {
	l := c.seedList()
	for _, f := range path {
		l = intersectInto(nil, l, c.Index.List(f), c.alive)
		if len(l) == 0 {
			return nil
		}
	}
	return spanningGraphsInto(nil, l, c.Graphs)
}

// Program materializes a label path as a dsl.Program.
func (c *Context) Program(path []tgraph.LabelID) dsl.Program {
	if c.Reg == nil || path == nil {
		return nil
	}
	return c.Reg.Program(path)
}

// splitByStructure partitions replacements into contexts by the
// structure signature of Definition 4.
func splitByStructure(reps []Rep) []*Context {
	sigs := make([]string, len(reps))
	for i, r := range reps {
		sigs[i] = structure.PairSignature(r.S, r.T)
	}
	parts := structure.Partition(len(reps), func(i int) string { return sigs[i] })
	out := make([]*Context, 0, len(parts))
	for _, idxs := range parts {
		group := make([]Rep, 0, len(idxs))
		for _, i := range idxs {
			group = append(group, reps[i])
		}
		out = append(out, newContext(sigs[idxs[0]], group))
	}
	return out
}
