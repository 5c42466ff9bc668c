package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/goldrec/goldrec/internal/tgraph"
)

// table1NameReps generates the 12 candidate replacements of Figure 2
// (every ordered pair of distinct Name values within the two clusters of
// Table 1).
func table1NameReps() []Rep {
	clusters := [][]string{
		{"Mary Lee", "M. Lee", "Lee, Mary"},
		{"Smith, James", "James Smith", "J. Smith"},
	}
	var reps []Rep
	ext := 0
	for _, cl := range clusters {
		for i := range cl {
			for j := range cl {
				if i == j {
					continue
				}
				reps = append(reps, Rep{S: cl[i], T: cl[j], Ext: ext})
				ext++
			}
		}
	}
	return reps
}

func groupSizes(groups []*Group) []int {
	out := make([]int, len(groups))
	for i, g := range groups {
		out[i] = g.Size()
	}
	return out
}

func TestAllGroupsFigure2(t *testing.T) {
	// The 12 Name replacements of Table 1 form 4 groups of size 2 (the
	// transformations shared across the two clusters: transpose,
	// initial-from-comma-form, initial-from-plain-form, plain-form to
	// comma-form) plus 4 singletons (the reverse directions that need
	// cluster-specific constants). The naive OneShot mode enumerates
	// every path (exponential — the very problem Section 5.2 fixes), so
	// only the early-termination mode runs on the full-length strings.
	for _, mode := range []Mode{ModeEarlyTerm} {
		t.Run(fmt.Sprintf("mode%d", mode), func(t *testing.T) {
			e := NewEngine(table1NameReps(), Options{})
			groups := e.AllGroups(mode)
			sizes := groupSizes(groups)
			want := []int{2, 2, 2, 2, 1, 1, 1, 1}
			if len(sizes) != len(want) {
				t.Fatalf("group sizes = %v, want %v", sizes, want)
			}
			for i := range want {
				if sizes[i] != want[i] {
					t.Fatalf("group sizes = %v, want %v", sizes, want)
				}
			}
			// Every replacement appears in exactly one group.
			seen := make(map[int]bool)
			for _, g := range groups {
				for _, m := range g.Members {
					if seen[m.Ext] {
						t.Fatalf("replacement %d in two groups", m.Ext)
					}
					seen[m.Ext] = true
				}
			}
			if len(seen) != 12 {
				t.Fatalf("grouped %d replacements, want 12", len(seen))
			}
			// Each size-2 group's program must be consistent with both
			// members.
			for _, g := range groups[:4] {
				for _, m := range g.Members {
					if !g.Program.Consistent(m.S, m.T) {
						t.Errorf("group program %v inconsistent with %q→%q", g.Program, m.S, m.T)
					}
				}
			}
		})
	}
}

func TestIncrementalMatchesOneShotSizes(t *testing.T) {
	// Theorem 6.4: GenerateNextLargestGroup returns the groups of
	// UnsupervisedGrouping in size order. EarlyTerm produces the same
	// groups as OneShot (verified on short strings by
	// TestModesAgreeOnRandomPools) and is tractable on these lengths.
	reps := table1NameReps()
	oneshot := NewEngine(reps, Options{})
	wantSizes := groupSizes(oneshot.AllGroups(ModeEarlyTerm))

	inc := NewEngine(reps, Options{})
	var gotSizes []int
	seen := make(map[int]bool)
	for {
		g := inc.NextGroup()
		if g == nil {
			break
		}
		gotSizes = append(gotSizes, g.Size())
		for _, m := range g.Members {
			if seen[m.Ext] {
				t.Fatalf("incremental returned replacement %d twice", m.Ext)
			}
			seen[m.Ext] = true
		}
	}
	if len(gotSizes) != len(wantSizes) {
		t.Fatalf("incremental sizes %v, oneshot sizes %v", gotSizes, wantSizes)
	}
	for i := range wantSizes {
		if gotSizes[i] != wantSizes[i] {
			t.Fatalf("incremental sizes %v, oneshot sizes %v", gotSizes, wantSizes)
		}
	}
	if len(seen) != len(reps) {
		t.Fatalf("incremental covered %d replacements, want %d", len(seen), len(reps))
	}
}

func TestIncrementalExample61(t *testing.T) {
	// Example 6.1 on the Example 5.1 pool: the first group is {G1,G2};
	// the incremental engine prepares and visits by upper bound and
	// stops after searching G1 (G2's bound 2 is not above τ=2).
	c := newContext("sig", []Rep{
		{S: "Lee, Mary", T: "M. Lee", Ext: 0},
		{S: "Smith, James", T: "J. Smith", Ext: 1},
		{S: "Lee, Mary", T: "Mary Lee", Ext: 2},
	})
	e := &Engine{opts: Options{}, ctxs: []*Context{c}, loc: map[int]struct {
		ctx *Context
		idx int
	}{}}
	for i, r := range c.Reps {
		e.loc[r.Ext] = struct {
			ctx *Context
			idx int
		}{c, i}
	}
	e.units = &unitHeap{}
	e.units.Push(unit{ctx: 0, gi: -1, up: 3})

	g1 := e.NextGroup()
	if g1 == nil || g1.Size() != 2 {
		t.Fatalf("first group = %+v, want size 2", g1)
	}
	exts := map[int]bool{}
	for _, m := range g1.Members {
		exts[m.Ext] = true
	}
	if !exts[0] || !exts[1] {
		t.Errorf("first group members = %v, want φ1 and φ2", g1.Members)
	}
	g2 := e.NextGroup()
	if g2 == nil || g2.Size() != 1 || g2.Members[0].Ext != 2 {
		t.Fatalf("second group = %+v, want singleton φ3", g2)
	}
	if g := e.NextGroup(); g != nil {
		t.Fatalf("third group = %+v, want nil", g)
	}
}

func TestEngineRemove(t *testing.T) {
	// Removing one member of the best pair before grouping shrinks the
	// group sizes accordingly.
	reps := table1NameReps()
	e := NewEngine(reps, Options{})
	// Remove all Smith-cluster replacements: every group becomes a
	// singleton of the Lee cluster.
	for _, r := range reps {
		if r.Ext >= 6 {
			e.Remove(r.Ext)
		}
	}
	groups := e.AllGroups(ModeEarlyTerm)
	if len(groups) != 6 {
		t.Fatalf("groups = %d, want 6", len(groups))
	}
	for _, g := range groups {
		if g.Size() != 1 {
			t.Errorf("group size = %d, want 1", g.Size())
		}
	}
}

func TestIncrementalRemoveMidStream(t *testing.T) {
	// A removal between NextGroup calls invalidates stale lower bounds
	// (witness re-validation); the engine must not return dead members.
	reps := table1NameReps()
	e := NewEngine(reps, Options{})
	g1 := e.NextGroup()
	if g1 == nil || g1.Size() != 2 {
		t.Fatalf("first group = %+v", g1)
	}
	// Kill one side of the Smith cluster to shrink future groups.
	for _, r := range reps {
		if r.Ext >= 6 {
			e.Remove(r.Ext)
		}
	}
	seen := make(map[int]bool)
	for _, m := range g1.Members {
		seen[m.Ext] = true
	}
	for {
		g := e.NextGroup()
		if g == nil {
			break
		}
		for _, m := range g.Members {
			if m.Ext >= 6 && !seen[m.Ext] {
				t.Fatalf("group contains removed replacement %d", m.Ext)
			}
			if seen[m.Ext] {
				t.Fatalf("replacement %d returned twice", m.Ext)
			}
			seen[m.Ext] = true
		}
	}
}

// TestNoAffixOptionReducesGrouping: Street/St and Avenue/Ave share a
// program only through the affix functions of Appendix D, so turning
// them off splits the abbreviation group (the token-level candidates of
// a two-cluster Main Street/Main St, Oak Avenue/Oak Ave column).
func TestNoAffixOptionReducesGrouping(t *testing.T) {
	reps := []Rep{
		{S: "Main Street", T: "Main St", Ext: 0},
		{S: "Street", T: "St", Ext: 1},
		{S: "St", T: "Street", Ext: 2},
		{S: "Main St", T: "Main Street", Ext: 3},
		{S: "Oak Avenue", T: "Oak Ave", Ext: 4},
		{S: "Avenue", T: "Ave", Ext: 5},
		{S: "Ave", T: "Avenue", Ext: 6},
		{S: "Oak Ave", T: "Oak Avenue", Ext: 7},
	}
	best := func(noAffix bool) int {
		e := NewEngine(reps, Options{
			Graph:           tgraph.Options{NoAffix: noAffix, MinimalSubStr: true},
			MaxPathLen:      DefaultMaxPathLen,
			ConstantScoring: true,
		})
		n := 0
		for _, g := range e.AllGroups(ModeEarlyTerm) {
			for _, m := range g.Members {
				if (m.Ext == 1 || m.Ext == 5) && g.Size() > n {
					n = g.Size()
				}
			}
		}
		return n
	}
	if got := best(false); got != 2 {
		t.Errorf("with affix: best abbreviation group size = %d, want 2", got)
	}
	if got := best(true); got != 1 {
		t.Errorf("without affix: best abbreviation group size = %d, want 1", got)
	}
}

// optionLegs are the engine configurations the property tests cover:
// the default and the product's (goldrec.Session's) options.
func optionLegs() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{{"default", Options{}}, {"product", sessionOptions()}}
}

// randomReps builds replacement pools with planted shared
// transformations for the equivalence property test. Names are kept
// short so that even the prune-free OneShot mode finishes instantly.
func randomReps(rng *rand.Rand, n int) []Rep {
	firsts := []string{"Al", "Bo", "Cy", "Di"}
	lasts := []string{"Wu", "Ng", "Ko"}
	var reps []Rep
	for i := 0; i < n; i++ {
		f := firsts[rng.Intn(len(firsts))]
		l := lasts[rng.Intn(len(lasts))]
		switch rng.Intn(3) {
		case 0: // transpose
			reps = append(reps, Rep{S: l + ", " + f, T: f + " " + l, Ext: i})
		case 1: // initial
			reps = append(reps, Rep{S: l + ", " + f, T: f[:1] + ". " + l, Ext: i})
		default: // identity-ish formatting
			reps = append(reps, Rep{S: f + " " + l, T: l + ", " + f, Ext: i})
		}
	}
	return reps
}

// TestModesAgreeOnRandomPools runs under the default options and under
// the product's (both Appendix E static orders), whose label space is
// the one the builder's minimal-SubStr and constant-scoring paths make.
func TestModesAgreeOnRandomPools(t *testing.T) {
	for _, leg := range optionLegs() {
		name, opts := leg.name, leg.opts
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 5; trial++ {
			reps := randomReps(rng, 20+rng.Intn(20))
			one := groupSizes(NewEngine(reps, opts).AllGroups(ModeOneShot))
			early := groupSizes(NewEngine(reps, opts).AllGroups(ModeEarlyTerm))
			if len(one) != len(early) {
				t.Fatalf("%s trial %d: oneshot %v earlyterm %v", name, trial, one, early)
			}
			for i := range one {
				if one[i] != early[i] {
					t.Fatalf("%s trial %d: oneshot %v earlyterm %v", name, trial, one, early)
				}
			}
			inc := NewEngine(reps, opts)
			var incSizes []int
			total := 0
			for {
				g := inc.NextGroup()
				if g == nil {
					break
				}
				incSizes = append(incSizes, g.Size())
				total += g.Size()
			}
			// The incremental engine must cover every replacement and
			// produce non-increasing sizes that match the one-shot
			// multiset.
			if total != len(reps) {
				t.Fatalf("%s trial %d: incremental covered %d of %d", name, trial, total, len(reps))
			}
			for i := 1; i < len(incSizes); i++ {
				if incSizes[i] > incSizes[i-1] {
					t.Fatalf("%s trial %d: sizes not non-increasing: %v", name, trial, incSizes)
				}
			}
			if len(incSizes) != len(one) {
				t.Fatalf("%s trial %d: incremental %v oneshot %v", name, trial, incSizes, one)
			}
			for i := range one {
				if incSizes[i] != one[i] {
					t.Fatalf("%s trial %d: incremental %v oneshot %v", name, trial, incSizes, one)
				}
			}
		}
	}
}

func TestEngineConstantScoring(t *testing.T) {
	// Constant scoring keeps grouping working on the canonical pool
	// (the ". " constant is a within-group frequent substring).
	reps := table1NameReps()
	e := NewEngine(reps, Options{ConstantScoring: true})
	groups := e.AllGroups(ModeEarlyTerm)
	if len(groups) == 0 || groups[0].Size() != 2 {
		t.Fatalf("constant-scored groups = %v", groupSizes(groups))
	}
}

func TestEngineSkippedReps(t *testing.T) {
	reps := []Rep{
		{S: "", T: "x", Ext: 0},
		{S: "ab", T: "ba", Ext: 1},
	}
	// The empty-s replacement has no graph: it must be left out of
	// every group while the buildable one is still grouped.
	e := NewEngine(reps, Options{})
	groups := e.AllGroups(ModeEarlyTerm)
	var got []int
	for _, g := range groups {
		for _, m := range g.Members {
			got = append(got, m.Ext)
		}
	}
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("grouped exts = %v, want [1]", got)
	}
}

func TestNextGroupExhaustsAndReturnsNil(t *testing.T) {
	e := NewEngine([]Rep{{S: "a", T: "b", Ext: 0}}, Options{})
	if g := e.NextGroup(); g == nil || g.Size() != 1 {
		t.Fatalf("first group = %+v", g)
	}
	if g := e.NextGroup(); g != nil {
		t.Fatalf("second group = %+v, want nil", g)
	}
	if g := e.NextGroup(); g != nil {
		t.Fatalf("third group = %+v, want nil", g)
	}
}

func TestGroupProgramMaterialization(t *testing.T) {
	e := NewEngine(table1NameReps(), Options{})
	groups := e.AllGroups(ModeEarlyTerm)
	for _, g := range groups {
		if g.Program == nil {
			t.Fatalf("group %v has no program", g.Members)
		}
		if len(g.Path) != len(g.Program) {
			t.Fatalf("path/program length mismatch")
		}
	}
}

var _ = tgraph.Options{} // keep import when tests shrink
