package tgraph

import (
	"cmp"
	"slices"
	"sync"
	"unicode/utf8"

	"github.com/goldrec/goldrec/internal/dsl"
)

// Edge is one edge of a transformation graph: it spans t[i,j) where i is
// implied by its position in Graph.Adj and j = To, and carries the
// interned string functions that output t[i,j) on s.
type Edge struct {
	To     int
	Labels []LabelID
}

// Graph is the transformation graph of one replacement s→t. Nodes are
// numbered 1..|t|+1; Adj[i] lists outgoing edges of node i sorted by To.
type Graph struct {
	ID   int // index of the replacement within its grouping context
	S, T string
	N    int // number of nodes, |t|+1
	Adj  [][]Edge
}

// FinalNode returns |t|+1, the node a spanning (transformation) path must
// reach.
func (g *Graph) FinalNode() int { return g.N }

// NumEdges counts edges with at least one label.
func (g *Graph) NumEdges() int {
	n := 0
	for i := 1; i < len(g.Adj); i++ {
		n += len(g.Adj[i])
	}
	return n
}

// NumLabels counts the total label occurrences across edges.
func (g *Graph) NumLabels() int {
	n := 0
	for i := 1; i < len(g.Adj); i++ {
		for _, e := range g.Adj[i] {
			n += len(e.Labels)
		}
	}
	return n
}

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
// constant scoring (every constant kept).
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
	// ConstantScore, when non-nil, enables the Appendix E
	// constant-string static order: ConstantStr(t[i,j)) is added only
	// when no adjacent extension t[k,i) / t[j,l) has a strictly larger
	// score. The whole-of-t constant is always kept.
	ConstantScore func(sub string) float64
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
// positions are flat: lce and slce by i*(|s|+1)+x, score by i*(|t|+2)+j.
type builder struct {
	rs, rt []rune
	// lce[i*(n+1)+x]: length of the longest common prefix of t[i:] and
	// s[x:] (0-based). Used both for locating occurrences of t[i,j) in
	// s and for the affix labels.
	lce []int32
	// slce[j*(n+1)+y]: longest common suffix of t[:j] and s[:y]
	// (0-based exclusive ends).
	slce []int32
	// posKeys holds the key of every position function of s back to
	// back; the key of pos[x][a] ends at posKeyEnd[posBase[x]+a].
	posKeys   []byte
	posKeyEnd []int32
	posBase   []int32
	// minSub[j] is the smallest SubStr candidate so far for edge
	// e(i,j) of the node i being scanned (MinimalSubStr mode).
	minSub      []subStrPick
	tOff        []int     // byte offset of each rune of t, then len(t)
	score       []float64 // ConstantScore of t[i,j)
	bestEnd     []float64 // bestEnd[i]: max score of the t[k,i)
	bestStart   []float64 // bestStart[j]: max score of the t[j,l)
	key, minKey []byte
	occ         []labelOcc // every label of every edge, in intern order
}

// subStrPick names the SubStr candidate with position functions
// pos[x][a] and pos[y][c]; x < 0 means none.
type subStrPick struct{ x, a, y, c int32 }

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
	n, m := len(rs), len(rt)
	w := n + 1

	matches := dsl.AllMatches(rs)
	pos := positionLists(len(rs), matches)

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
	b.subStrLabels(reg, pos, opt.MinimalSubStr)
	b.constLabels(t, reg, opt.ConstantScore)
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
// combination of a position function locating x and one locating y. In
// MinimalSubStr mode only the smallest key per edge survives.
func (b *builder) subStrLabels(reg *Registry, pos [][]dsl.Pos, minimal bool) {
	b.posKeys, b.posKeyEnd, b.posBase = b.posKeys[:0], b.posKeyEnd[:0], b.posBase[:0]
	for _, ps := range pos {
		b.posBase = append(b.posBase, int32(len(b.posKeyEnd)))
		for _, p := range ps {
			b.posKeys = p.AppendKey(b.posKeys)
			b.posKeyEnd = append(b.posKeyEnd, int32(len(b.posKeys)))
		}
	}
	n, m := len(b.rs), len(b.rt)
	w := n + 1
	for i := 1; i <= m; i++ {
		if minimal {
			b.minSub = b.minSub[:0]
			for j := 0; j <= m+1; j++ {
				b.minSub = append(b.minSub, subStrPick{x: -1})
			}
		}
		for x := 1; x <= n; x++ {
			run := int(b.lce[(i-1)*w+x-1])
			for l := 1; l <= run; l++ {
				j, y := i+l, x+l
				for a, pf := range pos[x] {
					for c, pg := range pos[y] {
						p := subStrPick{int32(x), int32(a), int32(y), int32(c)}
						b.key = b.appendSubStrKey(b.key[:0], p)
						if minimal {
							best := &b.minSub[j]
							if best.x >= 0 {
								b.minKey = b.appendSubStrKey(b.minKey[:0], *best)
							}
							if best.x < 0 || string(b.key) < string(b.minKey) {
								*best = p
							}
							continue
						}
						b.label(i, j, reg.internKey(b.key, func() dsl.Func {
							return dsl.SubStr{L: pf, R: pg}
						}))
					}
				}
			}
		}
		if !minimal {
			continue
		}
		for j := i + 1; j <= m+1; j++ {
			p := b.minSub[j]
			if p.x < 0 {
				continue
			}
			b.key = b.appendSubStrKey(b.key[:0], p)
			b.label(i, j, reg.internKey(b.key, func() dsl.Func {
				return dsl.SubStr{L: pos[p.x][p.a], R: pos[p.y][p.c]}
			}))
		}
	}
}

// appendSubStrKey appends the key of SubStr(pos[p.x][p.a], pos[p.y][p.c]).
func (b *builder) appendSubStrKey(dst []byte, p subStrPick) []byte {
	dst = append(dst, 'S', '(')
	dst = append(dst, b.posKey(p.x, p.a)...)
	dst = append(dst, ',')
	dst = append(dst, b.posKey(p.y, p.c)...)
	return append(dst, ')')
}

func (b *builder) posKey(x, a int32) []byte {
	k := b.posBase[x] + a
	lo := int32(0)
	if k > 0 {
		lo = b.posKeyEnd[k-1]
	}
	return b.posKeys[lo:b.posKeyEnd[k]]
}

// constLabels adds the ConstantStr labels, with the optional Appendix E
// scoring order: ConstantStr(t[i,j)) is kept only when no adjacent
// extension t[k,i) / t[j,l) scores strictly higher.
func (b *builder) constLabels(t string, reg *Registry, score func(string) float64) {
	m := len(b.rt)
	// sub returns t[i,j) (1-based), sharing t's bytes when t is valid
	// UTF-8; otherwise it re-encodes the runes, as []rune(t) replaced
	// the invalid bytes.
	valid := utf8.ValidString(t)
	if valid {
		b.tOff = b.tOff[:0]
		for off := range t {
			b.tOff = append(b.tOff, off)
		}
		b.tOff = append(b.tOff, len(t))
	}
	sub := func(i, j int) string {
		if valid {
			return t[b.tOff[i-1]:b.tOff[j-1]]
		}
		return string(b.rt[i-1 : j-1])
	}
	add := func(i, j int) {
		c := sub(i, j)
		b.key = appendQuoted(append(b.key[:0], 'C'), c)
		b.label(i, j, reg.internKey(b.key, func() dsl.Func { return dsl.ConstantStr{S: c} }))
	}
	if score == nil {
		for i := 1; i <= m; i++ {
			for j := i + 1; j <= m+1; j++ {
				add(i, j)
			}
		}
		return
	}
	w := m + 2
	b.score = zeroed(b.score, (m+1)*w)
	b.bestEnd, b.bestStart = zeroed(b.bestEnd, w), zeroed(b.bestStart, w)
	for i := 1; i <= m; i++ {
		for j := i + 1; j <= m+1; j++ {
			v := score(sub(i, j))
			b.score[i*w+j] = v
			if v > b.bestStart[i] {
				b.bestStart[i] = v
			}
			if v > b.bestEnd[j] {
				b.bestEnd[j] = v
			}
		}
	}
	for i := 1; i <= m; i++ {
		for j := i + 1; j <= m+1; j++ {
			// Always keep the whole-string constant so every
			// replacement has at least one transformation path.
			v := b.score[i*w+j]
			if (i == 1 && j == m+1) || (v >= b.bestEnd[i] && v >= b.bestStart[j]) {
				add(i, j)
			}
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
				b.label(i, i+l, b.internAffix(reg, 'P', term, k+1))
				b.label(i, i+l, b.internAffix(reg, 'P', term, k-mT))
			}
			for j := 2; j <= m+1; j++ {
				l := min(int(b.slce[(j-1)*w+y-1]), runLen-1)
				if l < 1 {
					continue
				}
				b.label(j-l, j, b.internAffix(reg, 'F', term, k+1))
				b.label(j-l, j, b.internAffix(reg, 'F', term, k-mT))
			}
		}
	}
}

func (b *builder) internAffix(reg *Registry, kind byte, term dsl.Term, k int) LabelID {
	b.key = appendInt(append(b.key[:0], kind, term.Sig()), k)
	return reg.internKey(b.key, func() dsl.Func {
		if kind == 'P' {
			return dsl.Prefix{Term: term, K: k}
		}
		return dsl.Suffix{Term: term, K: k}
	})
}

// assemble turns the recorded labels into adjacency lists: labels sorted
// and deduplicated per edge, edges sorted by To, label-less edges
// absent. All edges share one backing array, as do all labels.
func (b *builder) assemble(s, t string) *Graph {
	slices.SortFunc(b.occ, func(p, q labelOcc) int {
		if p.i != q.i {
			return cmp.Compare(p.i, q.i)
		}
		if p.j != q.j {
			return cmp.Compare(p.j, q.j)
		}
		return cmp.Compare(p.id, q.id)
	})
	occ := slices.Compact(b.occ)
	nEdges := 0
	labels := make([]LabelID, len(occ))
	for k, o := range occ {
		labels[k] = o.id
		if k == 0 || o.i != occ[k-1].i || o.j != occ[k-1].j {
			nEdges++
		}
	}
	m := len(b.rt)
	g := &Graph{S: s, T: t, N: m + 1, Adj: make([][]Edge, m+2)}
	edges := make([]Edge, 0, nEdges)
	for lo, hi, first := 0, 0, 0; lo < len(occ); lo = hi {
		i, j := occ[lo].i, occ[lo].j
		for hi = lo; hi < len(occ) && occ[hi].i == i && occ[hi].j == j; hi++ {
		}
		if len(g.Adj[i]) == 0 {
			first = len(edges)
		}
		edges = append(edges, Edge{To: int(j), Labels: labels[lo:hi:hi]})
		g.Adj[i] = edges[first:len(edges):len(edges)]
	}
	return g
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
// MatchPos expresses.
func positionLists(n int, matches [dsl.NumTerms][]dsl.Span) [][]dsl.Pos {
	pos := make([][]dsl.Pos, n+2)
	add := func(x int, p dsl.Pos) {
		pos[x] = append(pos[x], p)
	}
	for term := dsl.Term(0); term < dsl.Term(dsl.NumTerms); term++ {
		spans := matches[term]
		mT := len(spans)
		for k, sp := range spans {
			add(sp.Beg, dsl.MatchPos{Term: term, K: k + 1, Dir: dsl.DirBegin})
			add(sp.Beg, dsl.MatchPos{Term: term, K: k - mT, Dir: dsl.DirBegin})
			add(sp.End, dsl.MatchPos{Term: term, K: k + 1, Dir: dsl.DirEnd})
			add(sp.End, dsl.MatchPos{Term: term, K: k - mT, Dir: dsl.DirEnd})
		}
	}
	// ConstPos fallback for positions without any match-based function.
	for x := 1; x <= n+1; x++ {
		if len(pos[x]) == 0 {
			pos[x] = append(pos[x],
				dsl.ConstPos{K: x},
				dsl.ConstPos{K: x - n - 2})
		}
	}
	return pos
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

func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	for _, r := range s {
		switch r {
		case '"', '\\':
			b = append(b, '\\', byte(r))
		default:
			b = appendRune(b, r)
		}
	}
	return append(b, '"')
}

func appendRune(b []byte, r rune) []byte {
	if r < 128 {
		return append(b, byte(r))
	}
	return append(b, string(r)...)
}
