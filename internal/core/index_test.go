package core

import (
	"testing"

	"github.com/goldrec/goldrec/internal/dsl"
	"github.com/goldrec/goldrec/internal/tgraph"
)

// example51Context builds the three-replacement context of Example 5.1:
// φ1 = "Lee, Mary"→"M. Lee", φ2 = "Smith, James"→"J. Smith",
// φ3 = "Lee, Mary"→"Mary Lee". The paper groups them in one pool, so the
// test bypasses the structure partition.
func example51Context(t *testing.T) *Context {
	t.Helper()
	c := newContext("test", []Rep{
		{S: "Lee, Mary", T: "M. Lee", Ext: 0},
		{S: "Smith, James", T: "J. Smith", Ext: 1},
		{S: "Lee, Mary", T: "Mary Lee", Ext: 2},
	})
	c.Prepare(tgraph.Options{})
	return c
}

// labelIDOf returns the id c's registry interned f under.
func labelIDOf(t *testing.T, c *Context, f dsl.Func) tgraph.LabelID {
	t.Helper()
	key := string(f.AppendKey(nil))
	for id := 0; id < c.Reg.Len(); id++ {
		if string(c.Reg.Func(tgraph.LabelID(id)).AppendKey(nil)) == key {
			return tgraph.LabelID(id)
		}
	}
	t.Fatalf("registry holds no %s", key)
	return -1
}

func TestInvertedListsExample51(t *testing.T) {
	c := example51Context(t)
	// Example 5.1: I[f1] = (⟨G1,4,7⟩, ⟨G2,4,9⟩, ⟨G3,6,9⟩),
	// I[f2] = (⟨G1,1,2⟩, ⟨G2,1,2⟩, ⟨G3,1,2⟩), I[f3] = (⟨G1,2,4⟩, ⟨G2,2,4⟩).
	f1 := labelIDOf(t, c, dsl.SubStr{
		L: dsl.MatchPos{Term: dsl.TermCapital, K: 1, Dir: dsl.DirBegin},
		R: dsl.MatchPos{Term: dsl.TermLower, K: 1, Dir: dsl.DirEnd},
	})
	f2 := labelIDOf(t, c, dsl.SubStr{
		L: dsl.MatchPos{Term: dsl.TermSpace, K: 1, Dir: dsl.DirEnd},
		R: dsl.MatchPos{Term: dsl.TermCapital, K: -1, Dir: dsl.DirEnd},
	})
	f3 := labelIDOf(t, c, dsl.ConstantStr{S: ". "})

	want := map[string][]Posting{
		"f1": {{0, 4, 7}, {1, 4, 9}, {2, 6, 9}},
		"f2": {{0, 1, 2}, {1, 1, 2}, {2, 1, 2}},
		"f3": {{0, 2, 4}, {1, 2, 4}},
	}
	check := func(name string, id tgraph.LabelID) {
		t.Helper()
		got := c.Index.List(id)
		if len(got) != len(want[name]) {
			t.Fatalf("I[%s] = %v, want %v", name, got, want[name])
		}
		for i, p := range want[name] {
			if got[i] != p {
				t.Fatalf("I[%s][%d] = %v, want %v", name, i, got[i], p)
			}
		}
	}
	check("f1", f1)
	check("f2", f2)
	check("f3", f3)

	// I[f2] ∩ I[f3] ∩ I[f1] = (⟨G1,1,7⟩, ⟨G2,1,9⟩): the path f2⊕f3⊕f1
	// is contained by φ1 and φ2 only.
	l := intersectInto(nil, c.seedList(), c.Index.List(f2), c.alive)
	l = intersectInto(nil, l, c.Index.List(f3), c.alive)
	l = intersectInto(nil, l, c.Index.List(f1), c.alive)
	if len(l) != 2 || l[0] != (Posting{0, 1, 7}) || l[1] != (Posting{1, 1, 9}) {
		t.Fatalf("I[f2]∩I[f3]∩I[f1] = %v, want [{0 1 7} {1 1 9}]", l)
	}
	span := spanningGraphsInto(nil, l, c.Graphs)
	if len(span) != 2 || span[0] != 0 || span[1] != 1 {
		t.Fatalf("spanning = %v, want [0 1]", span)
	}
}

func TestIntersectAdjacencyRequired(t *testing.T) {
	// Entries of the same graph only join when j1 == i2.
	l := []Posting{{0, 1, 3}}
	list := []Posting{{0, 2, 5}, {0, 3, 6}}
	got := intersectInto(nil, l, list, nil)
	if len(got) != 1 || got[0] != (Posting{0, 1, 6}) {
		t.Fatalf("intersect = %v, want [{0 1 6}]", got)
	}
}

func TestIntersectDropsDeadGraphs(t *testing.T) {
	l := []Posting{{0, 1, 2}, {1, 1, 2}}
	list := []Posting{{0, 2, 3}, {1, 2, 3}}
	alive := []bool{true, false}
	got := intersectInto(nil, l, list, alive)
	if len(got) != 1 || got[0].G != 0 {
		t.Fatalf("intersect = %v, want only graph 0", got)
	}
}

func TestIntersectDeduplicates(t *testing.T) {
	// Two different chains that land on the same (G,i,j) must appear
	// once.
	l := []Posting{{0, 1, 2}, {0, 1, 3}}
	list := []Posting{{0, 2, 4}, {0, 3, 4}}
	got := intersectInto(nil, l, list, nil)
	if len(got) != 1 || got[0] != (Posting{0, 1, 4}) {
		t.Fatalf("intersect = %v, want [{0 1 4}]", got)
	}
}

func TestIntersectDisjointGraphs(t *testing.T) {
	l := []Posting{{0, 1, 2}}
	list := []Posting{{1, 2, 3}}
	if got := intersectInto(nil, l, list, nil); len(got) != 0 {
		t.Fatalf("intersect = %v, want empty", got)
	}
}

func TestDistinctGraphs(t *testing.T) {
	l := []Posting{{0, 1, 2}, {0, 1, 3}, {2, 1, 2}}
	if got := distinctGraphs(l); got != 2 {
		t.Errorf("distinctGraphs = %d, want 2", got)
	}
	if got := distinctGraphs(nil); got != 0 {
		t.Errorf("distinctGraphs(nil) = %d, want 0", got)
	}
}

func TestSpanningGraphsChecksFinalNode(t *testing.T) {
	c := example51Context(t)
	// G1 has final node 7; a posting reaching only node 4 must not
	// count as spanning.
	l := []Posting{{0, 1, 4}, {1, 1, 9}}
	span := spanningGraphsInto(nil, l, c.Graphs)
	if len(span) != 1 || span[0] != 1 {
		t.Fatalf("spanning = %v, want [1]", span)
	}
}

func TestIndexGraphCountCountsDistinctGraphs(t *testing.T) {
	c := example51Context(t)
	f3 := labelIDOf(t, c, dsl.ConstantStr{S: ". "})
	if got := c.Index.GraphCount(f3); got != 2 {
		t.Errorf("GraphCount(f3) = %d, want 2", got)
	}
}
