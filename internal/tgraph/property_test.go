package tgraph

import (
	"math/rand"
	"testing"
)

// TestEdgeLabelInvariant checks Definition 2's defining property on
// random inputs: every label of edge e(i,j) is a string function that
// outputs t[i,j) when applied to s.
func TestEdgeLabelInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []rune("abAB0 .,xY9-")
	randStr := func(n int) string {
		out := make([]rune, n)
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(out)
	}
	for trial := 0; trial < 300; trial++ {
		s := randStr(rng.Intn(12) + 1)
		tt := randStr(rng.Intn(10) + 1)
		opt := Options{
			NoAffix:       trial%4 == 1,
			MinimalSubStr: trial%3 == 0,
		}
		reg := NewRegistry()
		g := Build(s, tt, reg, opt)
		if g == nil {
			t.Fatalf("Build(%q,%q) = nil", s, tt)
		}
		rs, rt := []rune(s), []rune(tt)
		for i := 1; i < g.N; i++ {
			lo, hi := g.Edges(i)
			for k := lo; k < hi; k++ {
				to, labels := g.Edge(k)
				sub := rt[i-1 : to-1]
				for _, id := range labels {
					f := reg.Func(id)
					if !f.Produces(rs, sub) {
						t.Fatalf("graph %q→%q edge (%d,%d): label %v does not produce %q",
							s, tt, i, to, f, string(sub))
					}
				}
			}
		}
	}
}

// TestGraphAlwaysSpannable: every built graph has at least one spanning
// path (the whole-string constant guarantees it under any option set).
func TestGraphAlwaysSpannable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("ab A.9")
	randStr := func(n int) string {
		out := make([]rune, n)
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(out)
	}
	score := func(sub string) float64 { return float64(len(sub)) }
	for trial := 0; trial < 200; trial++ {
		s := randStr(rng.Intn(10) + 1)
		tt := randStr(rng.Intn(10) + 1)
		opt := Options{MinimalSubStr: trial%2 == 0}
		switch trial % 6 {
		case 0:
			opt.Constants = newScoreTable(allConstants, score)
		case 3:
			// Constants over 3 bytes are unnumbered: only the whole
			// target's survives.
			opt.Constants = newScoreTable(3, score)
		}
		reg := NewRegistry()
		g := Build(s, tt, reg, opt)
		if g == nil {
			t.Fatalf("Build(%q,%q) = nil", s, tt)
		}
		// BFS from node 1 over labeled edges.
		reach := make([]bool, g.N+1)
		reach[1] = true
		queue := []int{1}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			lo, hi := g.Edges(n)
			for k := lo; k < hi; k++ {
				if to, _ := g.Edge(k); !reach[to] {
					reach[to] = true
					queue = append(queue, to)
				}
			}
		}
		if !reach[g.FinalNode()] {
			t.Fatalf("graph %q→%q has no spanning path", s, tt)
		}
	}
}
