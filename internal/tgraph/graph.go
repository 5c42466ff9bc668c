package tgraph

import (
	"bytes"
	"cmp"
	"slices"
	"sync"
	"unicode/utf8"

	"github.com/goldrec/goldrec/internal/dsl"
)

// Graph is the transformation graph of one replacement s→t. Nodes are
// numbered 1..|t|+1. The graph is stored flat (compressed sparse rows):
// node i's out-edges are edges[nodes[i-1]:nodes[i]], sorted by target
// node, and edge k's labels are labels[edges[k-1].end:edges[k].end],
// sorted by id. Edges and Edge read it; label-less edges are absent.
type Graph struct {
	ID     int // index of the replacement within its grouping context
	S, T   string
	N      int // number of nodes, |t|+1
	nodes  []int32
	edges  []edge
	labels []LabelID
}

// edge is one edge e(i,j) of a Graph: to is j (i is implied by the node
// whose range holds it) and end is the end of its labels.
type edge struct {
	to, end int32
}

// Edges returns the range [lo,hi) of node i's out-edges, for Edge.
func (g *Graph) Edges(i int) (lo, hi int) {
	return int(g.nodes[i-1]), int(g.nodes[i])
}

// Edge returns edge k's target node j — it spans t[i,j) from the node i
// whose Edges range holds k — and the interned string functions that
// output t[i,j) on s. The labels are the graph's own: read, do not
// modify.
func (g *Graph) Edge(k int) (to int, labels []LabelID) {
	return int(g.edges[k].to), g.edgeLabels(k)
}

func (g *Graph) edgeLabels(k int) []LabelID {
	lo, hi := int32(0), g.edges[k].end
	if k > 0 {
		lo = g.edges[k-1].end
	}
	return g.labels[lo:hi:hi]
}

// FinalNode returns |t|+1, the node a spanning (transformation) path must
// reach.
func (g *Graph) FinalNode() int { return g.N }

// NumEdges counts edges with at least one label.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumLabels counts the total label occurrences across edges.
func (g *Graph) NumLabels() int { return len(g.labels) }

// Stats summarizes a graph's size for observability: node, edge, and
// label-occurrence counts.
type Stats struct {
	Nodes  int
	Edges  int
	Labels int
}

// Stats returns the graph's size counts. Safe on a nil graph (an
// unbuildable replacement), which reports zeros.
func (g *Graph) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	return Stats{Nodes: g.N, Edges: g.NumEdges(), Labels: g.NumLabels()}
}

// Options control graph construction. The zero value is the unpruned
// label space: affix labels on, every SubStr label of an edge kept, no
// constant table (every constant kept).
type Options struct {
	// NoAffix disables the Prefix/Suffix labels of Appendix D
	// (NoAffix rather than Affix so the zero value matches the paper's
	// full system).
	NoAffix bool
	// MinimalSubStr enables the Appendix E static order on string
	// functions: among the SubStr labels of one edge (which all
	// produce the same substring), only the smallest canonical key is
	// kept. The order is static, so graphs with matching position
	// function sets still share the surviving label.
	MinimalSubStr bool
	// Constants, when non-nil, enables the Appendix E constant-string
	// static order: ConstantStr(t[i,j)) is added only when the table
	// numbers t[i,j) and no adjacent extension t[k,i) / t[j,l) has a
	// strictly larger score (an unnumbered substring scores 0). The
	// whole-of-t constant is always kept. The table's numbers key the
	// constant labels, so every graph of one registry must be built
	// with the same table.
	Constants Constants
}

// Constants numbers and scores the constant strings of the Appendix E
// constant order over a column's targets. Equal strings get equal
// numbers.
type Constants interface {
	// MaxLen is the longest substring, in bytes, the table numbers.
	MaxLen() int
	// Target returns t's numbers: ids has one per rune-aligned
	// substring of at most MaxLen bytes, ordered by start, then by end;
	// whole is the number of all of t. Both read t's UTF-8 encoding
	// with invalid bytes replaced by U+FFFD, as Build reads t. Target
	// is called by builds running in parallel.
	Target(t string) (ids []int32, whole int32)
	// Score is the Appendix E score of the substring numbered id.
	Score(id int32) float64
	// Name returns the substring numbered id.
	Name(id int32) string
}

// MaxStringLen bounds |s| and |t| in runes: Build rejects longer
// replacements, and replace.NewStore makes no candidates from longer
// values.
const MaxStringLen = 120

// Build constructs the transformation graph for s→t (Appendix C),
// interning its labels into reg. It returns nil when either string is
// empty or exceeds MaxStringLen runes. That is Build's own input guard:
// replace.NewStore already drops such values before they become
// candidates.
//
// Labels are interned in a fixed order — SubStr labels by edge (i,j),
// then ConstantStr labels by edge, then affix labels — so building the
// same graphs in the same order on one registry always assigns the same
// LabelIDs. Build is safe for concurrent use with distinct registries.
func Build(s, t string, reg *Registry, opt Options) *Graph {
	b := builders.Get().(*builder)
	defer builders.Put(b)
	return b.build(s, t, reg, opt)
}

// builders pools the scratch buffers of Build, so a run of builds — one
// per goroutine when a structure group builds in parallel — stops
// allocating them per graph.
var builders = sync.Pool{New: func() any { return new(builder) }}

// builder is the scratch of one Build call. The tables indexed by two
// positions are flat: lce and slce by i*(|s|+1)+x.
type builder struct {
	rs, rt []rune
	// lce[i*(n+1)+x]: length of the longest common prefix of t[i:] and
	// s[x:] (0-based). Used both for locating occurrences of t[i,j) in
	// s and for the affix labels.
	lce []int32
	// slce[j*(n+1)+y]: longest common suffix of t[:j] and s[:y]
	// (0-based exclusive ends).
	slce []int32
	// pos holds P[x] of every position x of s back to back, unboxed:
	// P[x] is pos[posOff[x]:posOff[x+1]]. fill is positionLists'
	// per-position write cursor.
	pos          []posFn
	posOff, fill []int32
	// posKeys holds the key of every position function back to back;
	// the key of pos[k] ends at posKeyEnd[k].
	posKeys   []byte
	posKeyEnd []int32
	// minPos[x] is the index in pos of P[x]'s smallest key, and
	// rank[x] orders positions by that key (MinimalSubStr mode); byKey
	// is the positions in that order.
	minPos, rank, byKey []int32
	// minX[j] is the start x of the smallest SubStr candidate so far for
	// edge e(i,j) of the node i being scanned, 0 for none.
	minX      []int32
	tOff      []int      // byte offset of each rune of t, then len(t)
	score     []float64  // the score of each of t's numbered constants
	bestEnd   []float64  // bestEnd[i]: max score of the t[k,i)
	bestStart []float64  // bestStart[j]: max score of the t[j,l)
	occ       []labelOcc // every label of every edge, in intern order
}

// posFn is one position function in flat form: MatchPos(term, k, dir),
// or ConstPos(k) when term is constPos (dir is then 0). A dsl.Pos is
// boxed only when Registry.Func asks for the function.
type posFn struct {
	k    int32
	term dsl.Term
	dir  dsl.Dir
}

// constPos marks a posFn as ConstPos.
const constPos = dsl.Term(dsl.NumTerms)

func (p posFn) boxed() dsl.Pos {
	if p.term == constPos {
		return dsl.ConstPos{K: int(p.k)}
	}
	return dsl.MatchPos{Term: p.term, K: int(p.k), Dir: p.dir}
}

// appendKey appends the bytes p.boxed().AppendKey appends.
func (p posFn) appendKey(b []byte) []byte {
	if p.term == constPos {
		return appendInt(append(b, 'K'), int(p.k))
	}
	b = appendInt(append(b, 'M', p.term.Sig()), int(p.k))
	if p.dir == dsl.DirBegin {
		return append(b, 'B')
	}
	return append(b, 'E')
}

// labelOcc is one label of edge e(i,j).
type labelOcc struct {
	i, j int32
	id   LabelID
}

func (b *builder) build(s, t string, reg *Registry, opt Options) *Graph {
	b.rs, b.rt = appendRunes(b.rs[:0], s), appendRunes(b.rt[:0], t)
	rs, rt := b.rs, b.rt
	if len(rs) == 0 || len(rt) == 0 || len(rs) > MaxStringLen || len(rt) > MaxStringLen {
		return nil
	}
	reg.bind(opt.Constants)
	n, m := len(rs), len(rt)
	w := n + 1

	matches := dsl.AllMatches(rs)
	b.positionLists(n, &matches)

	b.lce = zeroed(b.lce, (m+1)*w)
	for i := m - 1; i >= 0; i-- {
		for x := n - 1; x >= 0; x-- {
			if rt[i] == rs[x] {
				b.lce[i*w+x] = b.lce[(i+1)*w+x+1] + 1
			}
		}
	}
	b.slce = zeroed(b.slce, (m+1)*w)
	for j := 1; j <= m; j++ {
		for y := 1; y <= n; y++ {
			if rt[j-1] == rs[y-1] {
				b.slce[j*w+y] = b.slce[(j-1)*w+y-1] + 1
			}
		}
	}

	b.occ = b.occ[:0]
	if opt.MinimalSubStr {
		b.minimalSubStrLabels(reg)
	} else {
		b.subStrLabels(reg)
	}
	if opt.Constants != nil {
		b.scoredConstLabels(t, reg, opt.Constants)
	} else {
		b.constLabels(t, reg)
	}
	if !opt.NoAffix {
		b.affixLabels(reg, &matches)
	}
	return b.assemble(s, t)
}

// label records id on edge e(i,j).
func (b *builder) label(i, j int, id LabelID) {
	b.occ = append(b.occ, labelOcc{i: int32(i), j: int32(j), id: id})
}

// subStrLabels adds, for every occurrence s[x,y) of t[i,j), every
// combination of a position function locating x and one locating y.
func (b *builder) subStrLabels(reg *Registry) {
	n, m := len(b.rs), len(b.rt)
	w := n + 1
	for i := 1; i <= m; i++ {
		for x := 1; x <= n; x++ {
			run := int(b.lce[(i-1)*w+x-1])
			for l := 1; l <= run; l++ {
				y := x + l
				for a := b.posOff[x]; a < b.posOff[x+1]; a++ {
					for c := b.posOff[y]; c < b.posOff[y+1]; c++ {
						b.subStrLabel(reg, i, i+l, a, c)
					}
				}
			}
		}
	}
}

// minimalSubStrLabels adds the Appendix E static order's one SubStr
// label per edge: the smallest key among those subStrLabels would add.
// No position key holds ',' or ')', and every key byte is at least '-',
// above both; so the smallest S(L,R) pairs the smallest L with the
// smallest R. Keys of different positions differ (a key fixes its
// position), so an edge's smallest label starts at the occurrence x
// whose smallest key ranks lowest and pairs it with the smallest key
// of P[x+l] — one candidate per occurrence, not |P[x]|·|P[x+l]|.
func (b *builder) minimalSubStrLabels(reg *Registry) {
	n, m := len(b.rs), len(b.rt)
	w := n + 1
	b.minPos, b.byKey = zeroed(b.minPos, n+2), b.byKey[:0]
	for x := 1; x <= n+1; x++ {
		best := b.posOff[x]
		for a := best + 1; a < b.posOff[x+1]; a++ {
			if bytes.Compare(b.posKey(a), b.posKey(best)) < 0 {
				best = a
			}
		}
		b.minPos[x] = best
		b.byKey = append(b.byKey, int32(x))
	}
	slices.SortFunc(b.byKey, func(x, y int32) int {
		return bytes.Compare(b.posKey(b.minPos[x]), b.posKey(b.minPos[y]))
	})
	b.rank = zeroed(b.rank, n+2)
	for r, x := range b.byKey {
		b.rank[x] = int32(r)
	}
	for i := 1; i <= m; i++ {
		b.minX = zeroed(b.minX, m+2)
		for x := 1; x <= n; x++ {
			run := int(b.lce[(i-1)*w+x-1])
			for l := 1; l <= run; l++ {
				if best := &b.minX[i+l]; *best == 0 || b.rank[x] < b.rank[*best] {
					*best = int32(x)
				}
			}
		}
		for j := i + 1; j <= m+1; j++ {
			if x := b.minX[j]; x != 0 {
				b.subStrLabel(reg, i, j, b.minPos[x], b.minPos[int(x)+j-i])
			}
		}
	}
}

// subStrLabel records SubStr(pos[l], pos[r]) on edge e(i,j).
func (b *builder) subStrLabel(reg *Registry, i, j int, l, r int32) {
	b.label(i, j, reg.intern(labelKey{kind: kindSubStr, l: b.pos[l], r: b.pos[r]}))
}

// posKey returns the key of pos[k].
func (b *builder) posKey(k int32) []byte {
	lo := int32(0)
	if k > 0 {
		lo = b.posKeyEnd[k-1]
	}
	return b.posKeys[lo:b.posKeyEnd[k]]
}

// constLabels adds every ConstantStr label, keyed by the registry's
// string table. A constant shares t's bytes when t is valid UTF-8;
// otherwise it re-encodes the runes, as []rune(t) replaced the invalid
// bytes.
func (b *builder) constLabels(t string, reg *Registry) {
	m := len(b.rt)
	valid := utf8.ValidString(t)
	if valid {
		b.tOff = b.tOff[:0]
		for off := range t {
			b.tOff = append(b.tOff, off)
		}
		b.tOff = append(b.tOff, len(t))
	}
	for i := 1; i <= m; i++ {
		for j := i + 1; j <= m+1; j++ {
			var c string
			if valid {
				c = t[b.tOff[i-1]:b.tOff[j-1]]
			} else {
				c = string(b.rt[i-1 : j-1])
			}
			b.label(i, j, reg.intern(reg.constStr(c)))
		}
	}
}

// scoredConstLabels adds the ConstantStr labels under the Appendix E
// scoring order, keyed by the numbers of tab: ConstantStr(t[i,j)) is
// kept only when tab numbers it and no adjacent extension t[k,i) /
// t[j,l) scores strictly higher, and the whole-t constant always. t's
// numbers arrive as one list in the order the loops below walk t[i,j):
// by i, then by j while t[i,j) spans at most MaxLen bytes.
func (b *builder) scoredConstLabels(t string, reg *Registry, tab Constants) {
	m, maxLen := len(b.rt), tab.MaxLen()
	ids, whole := tab.Target(t)
	// tOff holds the byte offsets of t's runes re-encoded, which are
	// t's own when t is valid UTF-8.
	b.tOff = b.tOff[:0]
	off := 0
	for _, r := range b.rt {
		b.tOff = append(b.tOff, off)
		off += utf8.RuneLen(r)
	}
	b.tOff = append(b.tOff, off)
	// numbered reports whether tab numbers t[i,j).
	numbered := func(i, j int) bool { return j <= m+1 && b.tOff[j-1]-b.tOff[i-1] <= maxLen }
	b.score = zeroed(b.score, len(ids))
	b.bestEnd, b.bestStart = zeroed(b.bestEnd, m+2), zeroed(b.bestStart, m+2)
	p := 0
	for i := 1; i <= m; i++ {
		for j := i + 1; numbered(i, j); j++ {
			v := tab.Score(ids[p])
			b.score[p] = v
			p++
			if v > b.bestStart[i] {
				b.bestStart[i] = v
			}
			if v > b.bestEnd[j] {
				b.bestEnd[j] = v
			}
		}
	}
	if p != len(ids) {
		panic("tgraph: constant table's id list does not match its target")
	}
	p = 0
	for i := 1; i <= m; i++ {
		j := i + 1
		for ; numbered(i, j); j++ {
			v := b.score[p]
			id := ids[p]
			p++
			// Always keep the whole-string constant so every
			// replacement has at least one transformation path.
			if (i == 1 && j == m+1) || (v >= b.bestEnd[i] && v >= b.bestStart[j]) {
				b.label(i, j, reg.intern(labelKey{kind: kindConst, l: posFn{k: id}}))
			}
		}
		if i == 1 && j <= m+1 {
			b.label(1, m+1, reg.intern(labelKey{kind: kindConst, l: posFn{k: whole}}))
		}
	}
}

// affixLabels adds the affix labels (Appendix D) in the longest-only
// static order: for each match of each term, the longest proper
// prefix/suffix alignment.
func (b *builder) affixLabels(reg *Registry, matches *[dsl.NumTerms][]dsl.Span) {
	m, w := len(b.rt), len(b.rs)+1
	for term := dsl.Term(0); term < dsl.Term(dsl.NumTerms); term++ {
		spans := matches[term]
		mT := len(spans)
		for k, sp := range spans {
			x, y := sp.Beg, sp.End // 1-based in s
			runLen := sp.Len()
			if runLen < 2 {
				continue // no proper non-empty prefix/suffix
			}
			for i := 1; i <= m; i++ {
				l := min(int(b.lce[(i-1)*w+x-1]), runLen-1)
				if l < 1 {
					continue
				}
				b.label(i, i+l, b.internAffix(reg, kindPrefix, term, k+1))
				b.label(i, i+l, b.internAffix(reg, kindPrefix, term, k-mT))
			}
			for j := 2; j <= m+1; j++ {
				l := min(int(b.slce[(j-1)*w+y-1]), runLen-1)
				if l < 1 {
					continue
				}
				b.label(j-l, j, b.internAffix(reg, kindSuffix, term, k+1))
				b.label(j-l, j, b.internAffix(reg, kindSuffix, term, k-mT))
			}
		}
	}
}

func (b *builder) internAffix(reg *Registry, kind labelKind, term dsl.Term, k int) LabelID {
	return reg.intern(labelKey{kind: kind, l: posFn{term: term, k: int32(k)}})
}

// assemble turns the recorded labels into the flat graph: labels
// sorted and deduplicated per edge, edges sorted by To, label-less edges
// absent.
func (b *builder) assemble(s, t string) *Graph {
	occ := b.occ
	slices.SortFunc(occ, compareOcc)
	occ = slices.Compact(occ)
	nEdges := 0
	for k, o := range occ {
		if k == 0 || o.i != occ[k-1].i || o.j != occ[k-1].j {
			nEdges++
		}
	}
	m := len(b.rt)
	g := &Graph{
		S: s, T: t, N: m + 1,
		nodes:  make([]int32, m+2),
		edges:  make([]edge, 0, nEdges),
		labels: make([]LabelID, len(occ)),
	}
	for k, o := range occ {
		g.labels[k] = o.id
		if k == 0 || o.i != occ[k-1].i || o.j != occ[k-1].j {
			g.edges = append(g.edges, edge{to: o.j})
			g.nodes[o.i]++
		}
		g.edges[len(g.edges)-1].end = int32(k + 1)
	}
	for i := 1; i < len(g.nodes); i++ {
		g.nodes[i] += g.nodes[i-1]
	}
	return g
}

// compareOcc orders label occurrences by edge (i,j), then by id.
func compareOcc(p, q labelOcc) int {
	if p.i != q.i {
		return cmp.Compare(p.i, q.i)
	}
	if p.j != q.j {
		return cmp.Compare(p.j, q.j)
	}
	return cmp.Compare(p.id, q.id)
}

// zeroed returns buf resized to n zero elements, reusing its storage.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// positionLists computes P[x] for every position x of an n-rune s
// (Appendix C) under the Appendix E static partial order: all regex-term
// MatchPos functions (forward and backward k, begin and end) are kept;
// ConstPos is the narrowest class and is added only for positions no
// MatchPos expresses. It fills b.pos, b.posOff and every key.
func (b *builder) positionLists(n int, matches *[dsl.NumTerms][]dsl.Span) {
	// Count P[x] into posOff[x+1], then prefix-sum the counts into
	// offsets and write each list in the order it was counted.
	b.posOff = zeroed(b.posOff, n+3)
	for _, spans := range matches {
		for _, sp := range spans {
			b.posOff[sp.Beg+1] += 2
			b.posOff[sp.End+1] += 2
		}
	}
	for x := 1; x <= n+1; x++ {
		if b.posOff[x+1] == 0 {
			b.posOff[x+1] = 2 // the ConstPos fallback
		}
	}
	for x := 1; x < len(b.posOff); x++ {
		b.posOff[x] += b.posOff[x-1]
	}
	b.pos = zeroed(b.pos, int(b.posOff[n+2]))
	b.fill = append(b.fill[:0], b.posOff...)
	add := func(x int, p posFn) {
		b.pos[b.fill[x]] = p
		b.fill[x]++
	}
	for term := dsl.Term(0); term < dsl.Term(dsl.NumTerms); term++ {
		spans := matches[term]
		mT := len(spans)
		for k, sp := range spans {
			add(sp.Beg, posFn{term: term, k: int32(k + 1), dir: dsl.DirBegin})
			add(sp.Beg, posFn{term: term, k: int32(k - mT), dir: dsl.DirBegin})
			add(sp.End, posFn{term: term, k: int32(k + 1), dir: dsl.DirEnd})
			add(sp.End, posFn{term: term, k: int32(k - mT), dir: dsl.DirEnd})
		}
	}
	for x := 1; x <= n+1; x++ {
		if b.fill[x] == b.posOff[x] {
			add(x, posFn{term: constPos, k: int32(x)})
			add(x, posFn{term: constPos, k: int32(x - n - 2)})
		}
	}
	b.posKeys, b.posKeyEnd = b.posKeys[:0], b.posKeyEnd[:0]
	for _, p := range b.pos {
		b.posKeys = p.appendKey(b.posKeys)
		b.posKeyEnd = append(b.posKeyEnd, int32(len(b.posKeys)))
	}
}

func appendInt(b []byte, v int) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}
