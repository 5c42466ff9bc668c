package core

import (
	"testing"

	"github.com/goldrec/goldrec/internal/tgraph"
)

func TestSearchPivotPaperTrace(t *testing.T) {
	// Table 5 / Example 5.2: the pivot path of G1 is shared by exactly
	// G1 and G2 (e.g. f2 ⊕ f3 ⊕ f1), beating the constant path that is
	// shared by G1 alone.
	for _, mode := range []struct {
		name string
		opts SearchOpts
	}{
		{"naive", SearchOpts{}},
		{"earlyterm", SearchOpts{LocalTerm: true, GlobalTerm: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			c := example51Context(t)
			res, ok := c.SearchPivot(c.Graphs[0], 0, mode.opts)
			if !ok {
				t.Fatal("SearchPivot found nothing")
			}
			if res.count != 2 {
				t.Fatalf("pivot support = %d, want 2", res.count)
			}
			if len(res.support) != 2 || res.support[0] != 0 || res.support[1] != 1 {
				t.Fatalf("support = %v, want [0 1]", res.support)
			}
			// The pivot program must be consistent with both members
			// (they share the transformation).
			prog := c.Program(res.path)
			if !prog.Consistent("Lee, Mary", "M. Lee") {
				t.Errorf("pivot %v not consistent with φ1", prog)
			}
			if !prog.Consistent("Smith, James", "J. Smith") {
				t.Errorf("pivot %v not consistent with φ2", prog)
			}
		})
	}
}

func TestSearchPivotGlobalThresholdUpdates(t *testing.T) {
	// Example 5.3: after finding G1's pivot (support 2), the global
	// lower bound of G2 ∈ ℓ is raised to 2.
	c := example51Context(t)
	_, ok := c.SearchPivot(c.Graphs[0], 0, SearchOpts{LocalTerm: true, GlobalTerm: true})
	if !ok {
		t.Fatal("SearchPivot found nothing")
	}
	if c.lo[1] != 2 {
		t.Errorf("G2 lower bound = %d, want 2", c.lo[1])
	}
	if c.witness[1] == nil {
		t.Error("G2 should have a witness path")
	}
	// G3's bound stays 1: the pivot path of G1 is not in G3.
	if c.lo[2] != 1 {
		t.Errorf("G3 lower bound = %d, want 1", c.lo[2])
	}
}

func TestSearchPivotSeedRequiresStrictImprovement(t *testing.T) {
	// Algorithm 7: with ℓmax seeded to τ = 2, G1's pivot (support 2)
	// must NOT be reported.
	c := example51Context(t)
	if _, ok := c.SearchPivot(c.Graphs[0], 2, SearchOpts{LocalTerm: true, GlobalTerm: true}); ok {
		t.Error("seeded search should fail when no path beats τ")
	}
	if _, ok := c.SearchPivot(c.Graphs[0], 1, SearchOpts{LocalTerm: true, GlobalTerm: true}); !ok {
		t.Error("seeded search with τ=1 should find the support-2 pivot")
	}
}

func TestSearchPivotMaxPathLen(t *testing.T) {
	// With θ = 1 only single-function paths are considered; the
	// whole-string constant path always exists, so search still
	// succeeds with support 1 for G1 (no other graph shares the
	// constant "M. Lee").
	c := example51Context(t)
	res, ok := c.SearchPivot(c.Graphs[0], 0, SearchOpts{MaxPathLen: 1})
	if !ok {
		t.Fatal("SearchPivot found nothing with θ=1")
	}
	if len(res.path) != 1 {
		t.Fatalf("path length = %d, want 1", len(res.path))
	}
}

func TestUpperBoundsExample63(t *testing.T) {
	// Example 6.3: the upper bounds of G1, G2, G3 initialize to 2, 2, 1:
	// position 2 of "M. Lee" (the '.') can only come from constants,
	// which G3 = "Mary Lee" lacks, and every position of "Mary Lee"
	// containing 'a' is produced only by labels unique to G3.
	c := example51Context(t)
	if c.up[0] != 2 {
		t.Errorf("Gup(G1) = %d, want 2", c.up[0])
	}
	if c.up[1] != 2 {
		t.Errorf("Gup(G2) = %d, want 2", c.up[1])
	}
	if c.up[2] != 1 {
		t.Errorf("Gup(G3) = %d, want 1", c.up[2])
	}
}

func TestUpperBoundDominatesPivotSupport(t *testing.T) {
	// Lemma 6.2: Gup is an upper bound of the pivot support.
	c := example51Context(t)
	for gi, g := range c.Graphs {
		res, ok := c.SearchPivot(g, 0, SearchOpts{})
		if !ok {
			t.Fatalf("G%d: no pivot", gi+1)
		}
		if res.count > c.up[gi] {
			t.Errorf("G%d: pivot support %d exceeds upper bound %d", gi+1, res.count, c.up[gi])
		}
	}
}

func TestSearchPivotAfterRemoval(t *testing.T) {
	// Removing G2 leaves G1's pivot with support 1.
	c := example51Context(t)
	c.remove(1)
	res, ok := c.SearchPivot(c.Graphs[0], 0, SearchOpts{})
	if !ok {
		t.Fatal("no pivot after removal")
	}
	if res.count != 1 {
		t.Errorf("pivot support = %d, want 1 after removing G2", res.count)
	}
	for _, g := range res.support {
		if g == 1 {
			t.Error("support contains the removed graph")
		}
	}
}

func TestPathSupportRevalidation(t *testing.T) {
	c := example51Context(t)
	res, _ := c.SearchPivot(c.Graphs[0], 0, SearchOpts{LocalTerm: true, GlobalTerm: true})
	if got := len(c.pathSupport(res.path)); got != 2 {
		t.Fatalf("pathSupport = %d, want 2", got)
	}
	c.remove(1)
	if got := len(c.pathSupport(res.path)); got != 1 {
		t.Fatalf("pathSupport after removal = %d, want 1", got)
	}
}

func TestPrepareSkipsUnbuildableReps(t *testing.T) {
	c := newContext("sig", []Rep{
		{S: "", T: "x", Ext: 0},
		{S: "ab", T: "b", Ext: 1},
	})
	c.Prepare(tgraph.Options{})
	if c.AliveCount() != 1 {
		t.Errorf("AliveCount = %d, want 1", c.AliveCount())
	}
	if c.Graphs[0] != nil {
		t.Error("graph for empty string should be nil")
	}
}

// TestSearchPivotAllocs guards the per-depth scratch lists of the pivot
// search: a DFS step reuses its depth's buffer instead of allocating a
// fresh posting list (before the buffers, this search made ~1 660
// allocations; with them, ~105).
func TestSearchPivotAllocs(t *testing.T) {
	c := newContext("bench", benchPool(128))
	c.Prepare(graphOptionsMinimal())
	opts := SearchOpts{LocalTerm: true, GlobalTerm: true}
	allocs := testing.AllocsPerRun(5, func() {
		for gi := range c.lo {
			if c.Graphs[gi] != nil {
				c.lo[gi] = 1
			}
		}
		if _, ok := c.SearchPivot(c.Graphs[0], 0, opts); !ok {
			t.Fatal("no pivot")
		}
	})
	t.Logf("allocs %v", allocs)
	if allocs > 200 {
		t.Fatalf("SearchPivot made %.0f allocations, want at most 200", allocs)
	}
}
