package tgraph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/goldrec/goldrec/internal/dsl"
)

// findEdge returns the labels of edge e(i,j), nil when g has none.
func findEdge(g *Graph, i, j int) []LabelID {
	lo, hi := g.Edges(i)
	for k := lo; k < hi; k++ {
		if to, labels := g.Edge(k); to == j {
			return labels
		}
	}
	return nil
}

// labelOf returns the id reg interned f under, -1 when it holds none.
func labelOf(reg *Registry, f dsl.Func) LabelID {
	key := string(f.AppendKey(nil))
	for id := 0; id < reg.Len(); id++ {
		if string(reg.Func(LabelID(id)).AppendKey(nil)) == key {
			return LabelID(id)
		}
	}
	return -1
}

func hasLabel(t *testing.T, g *Graph, reg *Registry, i, j int, want dsl.Func) bool {
	t.Helper()
	key := string(want.AppendKey(nil))
	for _, id := range findEdge(g, i, j) {
		if string(reg.Func(id).AppendKey(nil)) == key {
			return true
		}
	}
	return false
}

func TestBuildFigure5(t *testing.T) {
	// The transformation graph for "Lee, Mary" → "M. Lee" (Figure 5).
	reg := NewRegistry()
	g := Build("Lee, Mary", "M. Lee", reg, Options{})
	if g == nil {
		t.Fatal("Build returned nil")
	}
	if g.N != 7 {
		t.Fatalf("N = %d, want 7 (|t|+1)", g.N)
	}
	// e1,7 carries Constant("M. Lee").
	if !hasLabel(t, g, reg, 1, 7, dsl.ConstantStr{S: "M. Lee"}) {
		t.Error("e1,7 should carry ConstantStr(\"M. Lee\")")
	}
	// e1,4 carries the constant for t[1,4) = "M. " (Figure 5 prints it
	// as Constant("M.") with the trailing blank invisible).
	if !hasLabel(t, g, reg, 1, 4, dsl.ConstantStr{S: "M. "}) {
		t.Error("e1,4 should carry ConstantStr(\"M. \")")
	}
	// e2,4 carries f3 = Constant(". ").
	if !hasLabel(t, g, reg, 2, 4, dsl.ConstantStr{S: ". "}) {
		t.Error("e2,4 should carry ConstantStr(\". \")")
	}
	// e4,7 carries f1 = SubStr(PA, PB) where PA = beg 1st TC, PB = end
	// 1st Tl.
	f1 := dsl.SubStr{
		L: dsl.MatchPos{Term: dsl.TermCapital, K: 1, Dir: dsl.DirBegin},
		R: dsl.MatchPos{Term: dsl.TermLower, K: 1, Dir: dsl.DirEnd},
	}
	if !hasLabel(t, g, reg, 4, 7, f1) {
		t.Error("e4,7 should carry f1")
	}
	// Example 4.1: e4,7 also carries SubStr(PA, PE) with PE = beg of
	// 1st punctuation match.
	fAE := dsl.SubStr{
		L: dsl.MatchPos{Term: dsl.TermCapital, K: 1, Dir: dsl.DirBegin},
		R: dsl.MatchPos{Term: dsl.TermPunct, K: 1, Dir: dsl.DirBegin},
	}
	if !hasLabel(t, g, reg, 4, 7, fAE) {
		t.Error("e4,7 should carry SubStr(PA, PE)")
	}
	// e1,2 carries f2 = SubStr(PC, PD), PC = end 1st Tb, PD = end last TC.
	f2 := dsl.SubStr{
		L: dsl.MatchPos{Term: dsl.TermSpace, K: 1, Dir: dsl.DirEnd},
		R: dsl.MatchPos{Term: dsl.TermCapital, K: -1, Dir: dsl.DirEnd},
	}
	if !hasLabel(t, g, reg, 1, 2, f2) {
		t.Error("e1,2 should carry f2")
	}
}

func TestBuildEdgeCountDefinition(t *testing.T) {
	// Definition 2: there is an edge for every 1 ≤ i < j ≤ |t|+1, and
	// without constant pruning every edge has at least the constant
	// label, so the count is |t|(|t|+1)/2.
	reg := NewRegistry()
	g := Build("abc", "xyz", reg, Options{})
	want := 3 * 4 / 2
	if got := g.NumEdges(); got != want {
		t.Errorf("NumEdges = %d, want %d", got, want)
	}
}

func TestBuildRejectsDegenerate(t *testing.T) {
	reg := NewRegistry()
	if g := Build("", "x", reg, Options{}); g != nil {
		t.Error("empty s should be rejected")
	}
	if g := Build("x", "", reg, Options{}); g != nil {
		t.Error("empty t should be rejected")
	}
	// The limit counts runes, not bytes: é is two bytes in UTF-8.
	atMax := strings.Repeat("é", MaxStringLen)
	over := atMax + "é"
	if g := Build(atMax, "x", reg, Options{}); g == nil {
		t.Error("s of MaxStringLen runes should be accepted")
	}
	if g := Build("x", atMax, reg, Options{}); g == nil {
		t.Error("t of MaxStringLen runes should be accepted")
	}
	if g := Build(over, "x", reg, Options{}); g != nil {
		t.Error("s of MaxStringLen+1 runes should be rejected")
	}
	if g := Build("x", over, reg, Options{}); g != nil {
		t.Error("t of MaxStringLen+1 runes should be rejected")
	}
}

func TestBuildAffixLabels(t *testing.T) {
	// Example D.1: the graph of Street→St has edge e2,3 labeled
	// Prefix(Tl, 1); Avenue→Ave has e2,4 labeled Prefix(Tl, 1).
	reg := NewRegistry()
	g1 := Build("Street", "St", reg, Options{})
	if !hasLabel(t, g1, reg, 2, 3, dsl.Prefix{Term: dsl.TermLower, K: 1}) {
		t.Error("Street→St: e2,3 should carry Prefix(Tl,1)")
	}
	g2 := Build("Avenue", "Ave", reg, Options{})
	if !hasLabel(t, g2, reg, 2, 4, dsl.Prefix{Term: dsl.TermLower, K: 1}) {
		t.Error("Avenue→Ave: e2,4 should carry Prefix(Tl,1)")
	}
	// Longest-only static order: Street→St's edge e2,3 is the longest
	// prefix alignment, so shorter alignments of the same match add no
	// labels elsewhere... for "Street"→"Str" the prefix "tr" at e2,4.
	g3 := Build("Street", "Str", reg, Options{})
	if !hasLabel(t, g3, reg, 2, 4, dsl.Prefix{Term: dsl.TermLower, K: 1}) {
		t.Error("Street→Str: e2,4 should carry Prefix(Tl,1)")
	}
	if hasLabel(t, g3, reg, 2, 3, dsl.Prefix{Term: dsl.TermLower, K: 1}) {
		t.Error("Street→Str: e2,3 should NOT carry Prefix(Tl,1) (longest-only)")
	}
}

func TestBuildNoAffixOption(t *testing.T) {
	reg := NewRegistry()
	g := Build("Street", "St", reg, Options{NoAffix: true})
	if hasLabel(t, g, reg, 2, 3, dsl.Prefix{Term: dsl.TermLower, K: 1}) {
		t.Error("NoAffix graph should not carry Prefix labels")
	}
}

func TestBuildSuffixLabels(t *testing.T) {
	// "Johnson"→"son": "son" is a suffix of the lowercase match
	// "ohnson" (the 1st Tl match).
	reg := NewRegistry()
	g := Build("Johnson", "son", reg, Options{})
	if !hasLabel(t, g, reg, 1, 4, dsl.Suffix{Term: dsl.TermLower, K: 1}) {
		t.Error("Johnson→son: e1,4 should carry Suffix(Tl,1)")
	}
}

func TestBuildConstantScoring(t *testing.T) {
	// With a scorer that strongly prefers ". ", other constants that
	// are adjacent-extensions should be pruned while ". " and the
	// whole-string constant survive.
	scorer := newScoreTable(allConstants, func(sub string) float64 {
		if sub == ". " {
			return 100
		}
		return float64(1) / float64(len(sub)+1)
	})
	reg := NewRegistry()
	g := Build("Lee, Mary", "M. Lee", reg, Options{Constants: scorer})
	if !hasLabel(t, g, reg, 2, 4, dsl.ConstantStr{S: ". "}) {
		t.Error("scored graph should keep ConstantStr(\". \")")
	}
	if !hasLabel(t, g, reg, 1, 7, dsl.ConstantStr{S: "M. Lee"}) {
		t.Error("whole-string constant must always be kept")
	}
	// e1,2 ("M") has the right-adjacent neighbor ". " = t[2,4) with a
	// far higher score, so Constant("M") must be pruned.
	if hasLabel(t, g, reg, 1, 2, dsl.ConstantStr{S: "M"}) {
		t.Error("Constant(\"M\") at e1,2 should be pruned (\". \" scores higher)")
	}
}

func TestGraphPathsAreConsistentPrograms(t *testing.T) {
	// Theorem 4.2 direction we rely on: every spanning path of the
	// graph, read as a program, is consistent with s→t.
	rng := rand.New(rand.NewSource(42))
	alphabet := []rune("abAB0 .,")
	randStr := func(n int) string {
		out := make([]rune, n)
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(out)
	}
	for trial := 0; trial < 200; trial++ {
		s := randStr(rng.Intn(10) + 1)
		tt := randStr(rng.Intn(8) + 1)
		reg := NewRegistry()
		g := Build(s, tt, reg, Options{MinimalSubStr: trial%3 == 0})
		if g == nil {
			t.Fatalf("Build(%q,%q) = nil", s, tt)
		}
		// Sample a few random spanning paths.
		for k := 0; k < 5; k++ {
			var path []LabelID
			node := 1
			ok := true
			for node != g.FinalNode() {
				lo, hi := g.Edges(node)
				if lo == hi {
					ok = false
					break
				}
				to, labels := g.Edge(lo + rng.Intn(hi-lo))
				path = append(path, labels[rng.Intn(len(labels))])
				node = to
			}
			if !ok {
				t.Fatalf("graph for %q→%q has a dead end", s, tt)
			}
			prog := reg.Program(path)
			if !prog.Consistent(s, tt) {
				t.Fatalf("path %v of graph %q→%q is not consistent", prog, s, tt)
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	build := func() (*Graph, *Registry) {
		reg := NewRegistry()
		g := Build("Smith, James", "J. Smith", reg, Options{})
		return g, reg
	}
	g1, r1 := build()
	g2, r2 := build()
	if g1.NumEdges() != g2.NumEdges() || g1.NumLabels() != g2.NumLabels() {
		t.Fatal("graph shape differs between builds")
	}
	for i := 1; i < g1.N; i++ {
		lo1, hi1 := g1.Edges(i)
		lo2, hi2 := g2.Edges(i)
		if hi1-lo1 != hi2-lo2 {
			t.Fatalf("node %d: edge count differs", i)
		}
		for e := 0; e < hi1-lo1; e++ {
			to1, labels1 := g1.Edge(lo1 + e)
			to2, labels2 := g2.Edge(lo2 + e)
			if to1 != to2 || len(labels1) != len(labels2) {
				t.Fatalf("edge mismatch at node %d", i)
			}
			for li := range labels1 {
				k1 := string(r1.Func(labels1[li]).AppendKey(nil))
				k2 := string(r2.Func(labels2[li]).AppendKey(nil))
				if k1 != k2 {
					t.Fatalf("label mismatch: %s vs %s", k1, k2)
				}
			}
		}
	}
}

// TestRegistryInternSharing: graphs built on one registry share the id
// of an equal function and never that of a different one, with
// constants keyed by the registry's string table and by a constant
// table.
func TestRegistryInternSharing(t *testing.T) {
	for _, opt := range []Options{{NoAffix: true}, {NoAffix: true, Constants: newScoreTable(allConstants, nil)}} {
		reg := NewRegistry()
		a := findEdge(Build("a", "x", reg, opt), 1, 2)
		b := findEdge(Build("b", "x", reg, opt), 1, 2)
		c := findEdge(Build("c", "y", reg, opt), 1, 2)
		if len(a) != 1 || len(b) != 1 || len(c) != 1 {
			t.Fatalf("constant table %v: edge labels %v, %v, %v, want one constant each", opt.Constants != nil, a, b, c)
		}
		if a[0] != b[0] {
			t.Error("equal functions should share an id")
		}
		if a[0] == c[0] {
			t.Error("different functions must not share an id")
		}
		if reg.Len() != 2 {
			t.Errorf("Len = %d, want 2", reg.Len())
		}
	}
}

func TestCrossGraphLabelSharing(t *testing.T) {
	// The whole point of the registry: "Lee, Mary"→"M. Lee" and
	// "Smith, James"→"J. Smith" share the labels f1, f2, f3 (Example
	// 5.1 computes their inverted lists).
	reg := NewRegistry()
	g1 := Build("Lee, Mary", "M. Lee", reg, Options{})
	g2 := Build("Smith, James", "J. Smith", reg, Options{})
	f1 := labelOf(reg, dsl.SubStr{
		L: dsl.MatchPos{Term: dsl.TermCapital, K: 1, Dir: dsl.DirBegin},
		R: dsl.MatchPos{Term: dsl.TermLower, K: 1, Dir: dsl.DirEnd},
	})
	contains := func(g *Graph, i, j int, id LabelID) bool {
		return slices.Contains(findEdge(g, i, j), id)
	}
	if !contains(g1, 4, 7, f1) {
		t.Error("g1 e4,7 should contain f1")
	}
	if !contains(g2, 4, 9, f1) {
		t.Error("g2 e4,9 should contain f1")
	}
}
