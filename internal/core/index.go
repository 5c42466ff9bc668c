// Package core implements the unsupervised grouping algorithms of the
// paper: the inverted index over transformation-graph edge labels with
// adjacency-aware list intersection (Section 5.1), the pivot-path search
// with local and global threshold early termination (Algorithms 3-4), the
// one-shot UnsupervisedGrouping (Algorithm 2) and the incremental top-k
// grouping (Section 6, Algorithms 5-7), including the structure-group
// refinement of Section 7.2.
package core

import (
	"cmp"
	"slices"

	"github.com/goldrec/goldrec/internal/tgraph"
)

// Posting is one inverted-list entry ⟨G, i, j⟩: the edge from node i to
// node j of graph G carries the list's label (Section 5.1).
type Posting struct {
	G    int32
	I, J int16
}

// Index is the inverted index from edge labels to postings, built once
// per grouping context (structure group). Label ids are dense from 0 in
// the context's registry, and the lists are stored flat: label f's
// postings are postings[off[f]:off[f+1]], sorted by (G, I, J).
type Index struct {
	postings []Posting
	off      []int32
	// graphCount[f] is the number of distinct graphs with at least one
	// posting for f, the |I[f]| of Lemma 6.2's upper bounds, as built:
	// removals do not lower it.
	graphCount []int32
}

// BuildIndex indexes every edge label of every graph, whose labels are
// ids below n. Graph IDs must equal their slice positions. It counts
// each label's postings first, then fills every list into one array.
func BuildIndex(graphs []*tgraph.Graph, n int) *Index {
	ix := &Index{off: make([]int32, n+1)}
	// off[f+1] counts f's postings, then the prefix sums make off[f]
	// f's start; filling advances off[f] to f's end, and the shift
	// below restores starts.
	eachPosting(graphs, func(f tgraph.LabelID, _ Posting) { ix.off[f+1]++ })
	for f := 1; f <= n; f++ {
		ix.off[f] += ix.off[f-1]
	}
	ix.postings = make([]Posting, ix.off[n])
	eachPosting(graphs, func(f tgraph.LabelID, p Posting) {
		ix.postings[ix.off[f]] = p
		ix.off[f]++
	})
	copy(ix.off[1:], ix.off[:n])
	ix.off[0] = 0
	// Graphs are visited in ID order and edges in (i,j) order, so each
	// list is already sorted by (G, I, J). Count distinct graphs.
	ix.graphCount = make([]int32, n)
	for f := range ix.graphCount {
		ix.graphCount[f] = int32(distinctGraphs(ix.List(tgraph.LabelID(f))))
	}
	return ix
}

// eachPosting calls fn with every label of every edge of every graph and
// its posting, graphs in ID order and edges in (i,j) order.
func eachPosting(graphs []*tgraph.Graph, fn func(tgraph.LabelID, Posting)) {
	for _, g := range graphs {
		if g == nil {
			continue
		}
		for i := 1; i < g.N; i++ {
			lo, hi := g.Edges(i)
			for k := lo; k < hi; k++ {
				to, labels := g.Edge(k)
				p := Posting{G: int32(g.ID), I: int16(i), J: int16(to)}
				for _, f := range labels {
					fn(f, p)
				}
			}
		}
	}
}

// List returns the postings of a label (nil when absent).
func (ix *Index) List(f tgraph.LabelID) []Posting {
	if f < 0 || int(f) >= len(ix.graphCount) {
		return nil
	}
	return ix.postings[ix.off[f]:ix.off[f+1]:ix.off[f+1]]
}

// GraphCount returns the number of distinct graphs containing label f.
func (ix *Index) GraphCount(f tgraph.LabelID) int {
	if f < 0 || int(f) >= len(ix.graphCount) {
		return 0
	}
	return int(ix.graphCount[f])
}

// intersectInto computes the adjacency-aware intersection of Section
// 5.1 into dst's storage (dst's contents are discarded): an entry
// ⟨G,i1,j1⟩ of l and ⟨G,i2,j2⟩ of list join into ⟨G,i1,j2⟩ iff j1 = i2.
// Postings of graphs for which alive[G] is false are dropped. Both inputs
// must be sorted by (G,I,J), and neither may share dst's storage; the
// output is sorted too.
func intersectInto(dst, l, list []Posting, alive []bool) []Posting {
	out := dst[:0]
	a, b := 0, 0
	for a < len(l) && b < len(list) {
		switch {
		case l[a].G < list[b].G:
			a++
		case l[a].G > list[b].G:
			b++
		default:
			g := l[a].G
			ae := a
			for ae < len(l) && l[ae].G == g {
				ae++
			}
			be := b
			for be < len(list) && list[be].G == g {
				be++
			}
			if alive == nil || alive[g] {
				start := len(out)
				for x := a; x < ae; x++ {
					for y := b; y < be; y++ {
						if l[x].J == list[y].I {
							out = append(out, Posting{G: g, I: l[x].I, J: list[y].J})
						}
					}
				}
				out = sortDedupBlock(out, start)
			}
			a, b = ae, be
		}
	}
	return out
}

// sortDedupBlock sorts out[start:] by (I,J) and removes duplicates,
// keeping the overall (G,I,J) order intact. Blocks are tiny in practice.
func sortDedupBlock(out []Posting, start int) []Posting {
	block := out[start:]
	if len(block) <= 1 {
		return out
	}
	slices.SortFunc(block, func(p, q Posting) int {
		if p.I != q.I {
			return cmp.Compare(p.I, q.I)
		}
		return cmp.Compare(p.J, q.J)
	})
	w := start + 1
	for x := start + 1; x < len(out); x++ {
		if out[x] != out[w-1] {
			out[w] = out[x]
			w++
		}
	}
	return out[:w]
}

// distinctGraphs counts the distinct graphs in a sorted posting list.
func distinctGraphs(l []Posting) int {
	n := 0
	var prev int32 = -1
	for _, p := range l {
		if p.G != prev {
			n++
			prev = p.G
		}
	}
	return n
}

// spanningGraphsInto returns, in dst's storage, the distinct graphs with
// a posting reaching that graph's final node — the graphs that *contain*
// the completed path as a transformation path (the support set used for
// grouping). The input must be sorted by (G,I,J).
func spanningGraphsInto(dst []int32, l []Posting, graphs []*tgraph.Graph) []int32 {
	out := dst[:0]
	i := 0
	for i < len(l) {
		g := l[i].G
		spans := false
		for i < len(l) && l[i].G == g {
			if int(l[i].J) == graphs[g].FinalNode() {
				spans = true
			}
			i++
		}
		if spans {
			out = append(out, g)
		}
	}
	return out
}
