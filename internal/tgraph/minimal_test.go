package tgraph

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/goldrec/goldrec/internal/dsl"
)

func TestMinimalSubStrKeepsOnePerEdge(t *testing.T) {
	full := NewRegistry()
	gFull := Build("Lee, Mary", "M. Lee", full, Options{})
	min := NewRegistry()
	gMin := Build("Lee, Mary", "M. Lee", min, Options{MinimalSubStr: true})
	if gMin.NumLabels() >= gFull.NumLabels() {
		t.Fatalf("minimal graph has %d labels, full has %d", gMin.NumLabels(), gFull.NumLabels())
	}
	// Count SubStr labels per edge in the minimal graph.
	for i := 1; i < gMin.N; i++ {
		lo, hi := gMin.Edges(i)
		for k := lo; k < hi; k++ {
			to, labels := gMin.Edge(k)
			subs := 0
			for _, id := range labels {
				if _, ok := min.Func(id).(dsl.SubStr); ok {
					subs++
				}
			}
			if subs > 1 {
				t.Fatalf("edge (%d,%d) has %d SubStr labels, want ≤ 1", i, to, subs)
			}
		}
	}
}

func TestMinimalSubStrPreservesCrossGraphSharing(t *testing.T) {
	// Within one structure group the position-function sets coincide,
	// so the surviving SubStr labels still match across graphs: the
	// canonical pool must keep a shared label on the "initial" edge.
	reg := NewRegistry()
	g1 := Build("Lee, Mary", "M. Lee", reg, Options{MinimalSubStr: true})
	g2 := Build("Smith, James", "J. Smith", reg, Options{MinimalSubStr: true})
	shared := func(a, b *Graph, i1, j1, i2, j2 int) bool {
		set := map[LabelID]bool{}
		for _, id := range findEdge(a, i1, j1) {
			set[id] = true
		}
		for _, id := range findEdge(b, i2, j2) {
			if set[id] {
				if _, ok := reg.Func(id).(dsl.SubStr); ok {
					return true
				}
			}
		}
		return false
	}
	// The "M"/"J" initial edge and the "Lee"/"Smith" last-name edge.
	if !shared(g1, g2, 1, 2, 1, 2) {
		t.Error("initial edges share no SubStr label under MinimalSubStr")
	}
	if !shared(g1, g2, 4, 7, 4, 9) {
		t.Error("last-name edges share no SubStr label under MinimalSubStr")
	}
}

func TestMinimalSubStrPathsStayConsistent(t *testing.T) {
	reg := NewRegistry()
	g := Build("Smith, James", "J. Smith", reg, Options{MinimalSubStr: true})
	// Random spanning paths must still be consistent programs.
	node := 1
	var path []LabelID
	for node != g.FinalNode() {
		lo, _ := g.Edges(node)
		to, labels := g.Edge(lo)
		path = append(path, labels[0])
		node = to
	}
	if !reg.Program(path).Consistent("Smith, James", "J. Smith") {
		t.Error("minimal-graph path inconsistent")
	}
}

// TestMinimalSubStrIsSmallestKey: on random pairs, every edge of the
// MinimalSubStr graph carries exactly the smallest-keyed SubStr label
// the full graph has on that edge (none when it has none).
func TestMinimalSubStrIsSmallestKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("abAB09 .,-xYé")
	randStr := func(n int) string {
		out := make([]rune, n)
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(out)
	}
	pairs := append([][2]string{longAddress}, rebasePairs...)
	for trial := 0; trial < 300; trial++ {
		pairs = append(pairs, [2]string{randStr(rng.Intn(14) + 1), randStr(rng.Intn(10) + 1)})
	}
	reg := NewRegistry()
	for _, p := range pairs {
		full := Build(p[0], p[1], reg, Options{})
		minimal := Build(p[0], p[1], reg, Options{MinimalSubStr: true})
		subStr := func(g *Graph, i, j int) []string {
			var keys []string
			for _, id := range findEdge(g, i, j) {
				if f, ok := reg.Func(id).(dsl.SubStr); ok {
					keys = append(keys, string(f.AppendKey(nil)))
				}
			}
			return keys
		}
		for i := 1; i < full.N; i++ {
			for j := i + 1; j <= full.N; j++ {
				all, got := subStr(full, i, j), subStr(minimal, i, j)
				switch {
				case len(all) == 0 && len(got) != 0:
					t.Fatalf("%q→%q edge (%d,%d): minimal has %v, full has no SubStr", p[0], p[1], i, j, got)
				case len(all) != 0 && (len(got) != 1 || got[0] != slices.Min(all)):
					t.Fatalf("%q→%q edge (%d,%d): minimal has %v, want [%s]", p[0], p[1], i, j, got, slices.Min(all))
				}
			}
		}
	}
}
