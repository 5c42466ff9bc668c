// Package replace generates candidate replacements from clustered records
// and maintains the replacement sets L[lhs→rhs] of Section 7.1: where
// each replacement was generated from, how to apply an approved
// replacement, and how the sets change after cells are updated.
//
// Two generation granularities are implemented: whole-value pairs within
// a cluster (Section 3 Step 1) and fine-grained token-level pairs from
// LCS-aligned token sequences (Appendix A).
package replace

import (
	"fmt"
	"sort"
	"strings"

	"github.com/goldrec/goldrec/internal/align"
	"github.com/goldrec/goldrec/internal/tgraph"
	"github.com/goldrec/goldrec/table"
)

// Pair is a candidate replacement lhs→rhs (two different strings).
type Pair struct {
	LHS, RHS string
}

// Site records one place a replacement can be applied: a cell, and —
// for token-level candidates — the token span holding the LHS. Whole is
// true for value-level sites (the LHS is the entire cell value).
type Site struct {
	Cell           table.Cell
	TokBeg, TokEnd int
	Whole          bool
}

// Candidate is a replacement plus its replacement set (the paper's
// L[lhs→rhs]).
type Candidate struct {
	ID int
	Pair
	Sites []Site
}

// SiteCount returns |L[lhs→rhs]|, the replacement's "profit" if applied.
func (c *Candidate) SiteCount() int { return len(c.Sites) }

func (c *Candidate) String() string {
	return fmt.Sprintf("%q→%q (%d sites)", c.LHS, c.RHS, len(c.Sites))
}

// Options control candidate generation.
type Options struct {
	// TokenLevel adds the fine-grained LCS-aligned candidates of
	// Appendix A.
	TokenLevel bool
}

// maxValuesPerCluster caps the distinct values considered per cluster.
// Pair enumeration is quadratic, so pathological clusters are
// truncated; the paper's datasets have small distinct value counts per
// cluster.
const maxValuesPerCluster = 64

// Store owns the candidates of one column of a dataset and keeps their
// replacement sets consistent with the (mutable) cell values.
type Store struct {
	ds   *table.Dataset
	col  int
	opts Options

	cands  []*Candidate
	byPair map[Pair]*Candidate
	// clusterCands[ci] lists candidate ids that may have sites in
	// cluster ci (append-only; filtered on use).
	clusterCands map[int][]int
}

// NewStore enumerates the candidate replacements of the column and builds
// their replacement sets. Empty values and values longer than
// tgraph.MaxStringLen runes yield no candidates: the graph builder
// could not graph them.
func NewStore(ds *table.Dataset, col int, opts Options) *Store {
	st := &Store{
		ds:           ds,
		col:          col,
		opts:         opts,
		byPair:       make(map[Pair]*Candidate),
		clusterCands: make(map[int][]int),
	}
	for ci := range ds.Clusters {
		st.generateCluster(ci)
	}
	return st
}

// Candidates returns all candidates (live and emptied) in creation order.
func (st *Store) Candidates() []*Candidate { return st.cands }

// Candidate returns a candidate by id.
func (st *Store) Candidate(id int) *Candidate { return st.cands[id] }

// Lookup returns the candidate for a pair, or nil.
func (st *Store) Lookup(p Pair) *Candidate { return st.byPair[p] }

// Mirror returns the opposite-direction candidate, or nil.
func (st *Store) Mirror(c *Candidate) *Candidate {
	return st.byPair[Pair{LHS: c.RHS, RHS: c.LHS}]
}

func (st *Store) candidateFor(p Pair) *Candidate {
	if c, ok := st.byPair[p]; ok {
		return c
	}
	c := &Candidate{ID: len(st.cands), Pair: p}
	st.cands = append(st.cands, c)
	st.byPair[p] = c
	return c
}

func (st *Store) addSite(ci int, p Pair, s Site) {
	c := st.candidateFor(p)
	c.Sites = append(c.Sites, s)
	ids := st.clusterCands[ci]
	if len(ids) == 0 || ids[len(ids)-1] != c.ID {
		st.clusterCands[ci] = append(ids, c.ID)
	}
}

// generateCluster adds the candidate sites contributed by cluster ci
// based on its *current* cell values.
func (st *Store) generateCluster(ci int) {
	cl := &st.ds.Clusters[ci]
	// Distinct values with their rows, in first-appearance order for
	// determinism.
	type valRows struct {
		val  string
		rows []int
	}
	byVal := make(map[string]int)
	var vals []valRows
	for ri, r := range cl.Records {
		v := r.Values[st.col]
		if v == "" || len([]rune(v)) > tgraph.MaxStringLen {
			continue
		}
		if i, ok := byVal[v]; ok {
			vals[i].rows = append(vals[i].rows, ri)
			continue
		}
		byVal[v] = len(vals)
		vals = append(vals, valRows{val: v, rows: []int{ri}})
	}
	if len(vals) > maxValuesPerCluster {
		vals = vals[:maxValuesPerCluster]
	}
	for a := 0; a < len(vals); a++ {
		for b := 0; b < len(vals); b++ {
			if a == b {
				continue
			}
			u, w := vals[a], vals[b]
			// Value-level candidate u→w: every cell holding u is a
			// site (the paper appends (i,j) to L[vij→vik]).
			for _, ri := range u.rows {
				st.addSite(ci, Pair{u.val, w.val}, Site{
					Cell:  table.Cell{Cluster: ci, Row: ri, Col: st.col},
					Whole: true,
				})
			}
			if st.opts.TokenLevel && a < b {
				st.generateTokenPairs(ci, u.val, w.val, u.rows, w.rows)
			}
		}
	}
}

// generateTokenPairs implements Appendix A: split both values into
// whitespace tokens, align them by LCS, and emit a candidate pair per
// aligned non-identical segment (in both directions). A gap with the
// same number of tokens on both sides is refined into per-position
// single-token pairs — without the refinement, replacements applied to
// neighbouring tokens would coarsen later alignments and lose the
// fine-grained candidates (e.g. "9th St," vs "9 Street," must keep
// yielding 9th↔9 and St,↔Street,).
func (st *Store) generateTokenPairs(ci int, u, w string, uRows, wRows []int) {
	tu, tw := strings.Fields(u), strings.Fields(w)
	if len(tu) == 0 || len(tw) == 0 {
		return
	}
	emit := func(aBeg, aEnd, bBeg, bEnd int) {
		lhs := strings.Join(tu[aBeg:aEnd], " ")
		rhs := strings.Join(tw[bBeg:bEnd], " ")
		if lhs == "" || rhs == "" || lhs == rhs {
			return // pure insertions/deletions have no replacement form
		}
		if lhs == u && rhs == w {
			return // identical to the value-level candidate
		}
		for _, ri := range uRows {
			st.addSite(ci, Pair{lhs, rhs}, Site{
				Cell:   table.Cell{Cluster: ci, Row: ri, Col: st.col},
				TokBeg: aBeg, TokEnd: aEnd,
			})
		}
		for _, ri := range wRows {
			st.addSite(ci, Pair{rhs, lhs}, Site{
				Cell:   table.Cell{Cluster: ci, Row: ri, Col: st.col},
				TokBeg: bBeg, TokEnd: bEnd,
			})
		}
	}
	for _, g := range align.Gaps(tu, tw) {
		// Refine only anchored gaps: a gap spanning both entire values
		// means the LCS found nothing in common, and positional pairs
		// of two unrelated values are noise (the whole-value candidate
		// already covers that case).
		wholeBoth := g.ABeg == 0 && g.AEnd == len(tu) && g.BBeg == 0 && g.BEnd == len(tw)
		if n := g.AEnd - g.ABeg; !wholeBoth && n > 1 && n == g.BEnd-g.BBeg {
			for k := 0; k < n; k++ {
				emit(g.ABeg+k, g.ABeg+k+1, g.BBeg+k, g.BBeg+k+1)
			}
			continue
		}
		emit(g.ABeg, g.AEnd, g.BBeg, g.BEnd)
	}
}

// ApplyResult reports the effect of applying a replacement.
type ApplyResult struct {
	// CellsChanged is the number of cells whose value was updated.
	CellsChanged int
	// Emptied lists candidate ids whose replacement sets became empty;
	// Section 7.1 removes them from Φ (the caller forwards them to the
	// grouping engine).
	Emptied []int
}

// Apply performs the replacement at every site of the candidate and
// updates the replacement sets of the affected clusters (Section 7.1).
// Stale sites (the cell changed since the site was recorded) are
// revalidated against the current value and skipped when the LHS is no
// longer present.
func (st *Store) Apply(c *Candidate) ApplyResult {
	var res ApplyResult
	affected := make(map[int]bool)
	liveBefore := make(map[int]int)
	for _, site := range c.Sites {
		ci := site.Cell.Cluster
		if !affected[ci] {
			affected[ci] = true
			for _, id := range st.clusterCands[ci] {
				liveBefore[id] += 0 // mark; counts filled below
			}
		}
	}
	for id := range liveBefore {
		liveBefore[id] = len(st.cands[id].Sites)
	}

	for _, site := range c.Sites {
		if st.applySite(c, site) {
			res.CellsChanged++
		}
	}

	// Recompute the contributions of every affected cluster from the
	// current cell values: this realizes the L-set update rules of
	// Section 7.1 (including "if a replacement set becomes empty ...
	// remove the replacement from Φ").
	for ci := range affected {
		st.clearCluster(ci)
	}
	for ci := range affected {
		st.generateCluster(ci)
	}
	for id, before := range liveBefore {
		if before > 0 && len(st.cands[id].Sites) == 0 {
			res.Emptied = append(res.Emptied, id)
		}
	}
	sort.Ints(res.Emptied)
	return res
}

// SortForReview puts a group's candidates into review order, in place:
// largest current replacement set first, ties in their given order. The
// order is also the order ApplyGroup applies them in, and it matters: an
// earlier member's rewrite shrinks or empties the sites of later members
// that share its cells. The goldrec Session and the paper harness both
// present and apply every group in this one order.
func SortForReview(cands []*Candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		return len(cands[i].Sites) > len(cands[j].Sites)
	})
}

// GroupResult reports the effect of applying a group's candidates.
type GroupResult struct {
	// PairsApplied counts candidates with at least one changed cell.
	PairsApplied int
	// CellsChanged counts updated cells.
	CellsChanged int
	// Emptied lists the ids of candidates whose replacement sets became
	// empty, for the grouping engine to drop (see ApplyResult.Emptied).
	Emptied []int
}

// ApplyGroup applies an approved group: each candidate in turn, in the
// order given (review order, see SortForReview). With mirror set it
// applies each candidate's opposite-direction candidate instead — the
// backward approval — and skips candidates that have no mirror.
func (st *Store) ApplyGroup(cands []*Candidate, mirror bool) GroupResult {
	var res GroupResult
	for _, c := range cands {
		if mirror {
			if c = st.Mirror(c); c == nil {
				continue
			}
		}
		r := st.Apply(c)
		if r.CellsChanged > 0 {
			res.PairsApplied++
			res.CellsChanged += r.CellsChanged
		}
		res.Emptied = append(res.Emptied, r.Emptied...)
	}
	return res
}

// applySite rewrites one cell; reports whether the cell changed.
func (st *Store) applySite(c *Candidate, site Site) bool {
	cur := st.ds.Value(site.Cell)
	if site.Whole {
		if cur != c.LHS {
			return false // stale
		}
		st.ds.SetValue(site.Cell, c.RHS)
		return true
	}
	toks := strings.Fields(cur)
	lhsToks := strings.Fields(c.LHS)
	span := findSpan(toks, lhsToks, site.TokBeg)
	if span < 0 {
		return false // stale: the LHS tokens are gone
	}
	out := make([]string, 0, len(toks))
	out = append(out, toks[:span]...)
	out = append(out, strings.Fields(c.RHS)...)
	out = append(out, toks[span+len(lhsToks):]...)
	next := strings.Join(out, " ")
	if next == cur {
		return false
	}
	st.ds.SetValue(site.Cell, next)
	return true
}

// findSpan locates lhs as a contiguous token run in toks, preferring the
// recorded position, then the nearest occurrence.
func findSpan(toks, lhs []string, hint int) int {
	if len(lhs) == 0 || len(lhs) > len(toks) {
		return -1
	}
	matchAt := func(i int) bool {
		if i < 0 || i+len(lhs) > len(toks) {
			return false
		}
		for k := range lhs {
			if toks[i+k] != lhs[k] {
				return false
			}
		}
		return true
	}
	if matchAt(hint) {
		return hint
	}
	for d := 1; d <= len(toks); d++ {
		if matchAt(hint - d) {
			return hint - d
		}
		if matchAt(hint + d) {
			return hint + d
		}
	}
	return -1
}

// clearCluster removes every site contributed by cluster ci.
func (st *Store) clearCluster(ci int) {
	for _, id := range st.clusterCands[ci] {
		c := st.cands[id]
		w := 0
		for _, s := range c.Sites {
			if s.Cell.Cluster != ci {
				c.Sites[w] = s
				w++
			}
		}
		c.Sites = c.Sites[:w]
	}
	st.clusterCands[ci] = st.clusterCands[ci][:0]
}
