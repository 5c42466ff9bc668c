package core

import (
	"math/rand"
	"testing"
)

// propPool builds a random replacement pool mixing short planted
// transformations with noise pairs.
func propPool(rng *rand.Rand, n int) []Rep {
	words := []string{"ab", "cd", "ef", "gh"}
	var reps []Rep
	for i := 0; i < n; i++ {
		a := words[rng.Intn(len(words))]
		b := words[rng.Intn(len(words))]
		switch rng.Intn(4) {
		case 0:
			reps = append(reps, Rep{S: a + " " + b, T: b + " " + a, Ext: i})
		case 1:
			reps = append(reps, Rep{S: a + "-" + b, T: a, Ext: i})
		case 2:
			reps = append(reps, Rep{S: a, T: a + "9", Ext: i})
		default:
			reps = append(reps, Rep{S: a + b, T: b, Ext: i})
		}
	}
	return reps
}

// TestGroupProgramConsistencyInvariant: the defining invariant of a
// replacement group — its program is consistent with every member
// (Definition 3(i)).
func TestGroupProgramConsistencyInvariant(t *testing.T) {
	for _, leg := range optionLegs() {
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 10; trial++ {
			reps := propPool(rng, 10+rng.Intn(30))
			for _, mode := range []Mode{ModeOneShot, ModeEarlyTerm} {
				e := NewEngine(reps, leg.opts)
				for _, g := range e.AllGroups(mode) {
					for _, m := range g.Members {
						if !g.Program.Consistent(m.S, m.T) {
							t.Fatalf("%s trial %d mode %d: program %v inconsistent with %q→%q",
								leg.name, trial, mode, g.Program, m.S, m.T)
						}
					}
				}
			}
		}
	}
}

// TestGroupsPartitionInvariant: AllGroups assigns every replacement to
// exactly one group (propPool makes no unbuildable replacement).
func TestGroupsPartitionInvariant(t *testing.T) {
	for _, leg := range optionLegs() {
		rng := rand.New(rand.NewSource(6))
		for trial := 0; trial < 10; trial++ {
			reps := propPool(rng, 10+rng.Intn(40))
			e := NewEngine(reps, leg.opts)
			seen := make(map[int]bool)
			for _, g := range e.AllGroups(ModeEarlyTerm) {
				for _, m := range g.Members {
					if seen[m.Ext] {
						t.Fatalf("%s trial %d: replacement %d in two groups", leg.name, trial, m.Ext)
					}
					seen[m.Ext] = true
				}
			}
			if len(seen) != len(reps) {
				t.Fatalf("%s trial %d: covered %d of %d", leg.name, trial, len(seen), len(reps))
			}
		}
	}
}

// TestIncrementalSizeMonotonicityInvariant: Theorem 6.4 — the group
// stream is non-increasing in size and covers everything once.
func TestIncrementalSizeMonotonicityInvariant(t *testing.T) {
	for _, leg := range optionLegs() {
		rng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 10; trial++ {
			reps := propPool(rng, 10+rng.Intn(40))
			e := NewEngine(reps, leg.opts)
			prev := 1 << 30
			seen := make(map[int]bool)
			for {
				g := e.NextGroup()
				if g == nil {
					break
				}
				if g.Size() > prev {
					t.Fatalf("%s trial %d: group size %d after %d", leg.name, trial, g.Size(), prev)
				}
				prev = g.Size()
				for _, m := range g.Members {
					if seen[m.Ext] {
						t.Fatalf("%s trial %d: replacement %d returned twice", leg.name, trial, m.Ext)
					}
					seen[m.Ext] = true
				}
				if !g.Program.Consistent(g.Members[0].S, g.Members[0].T) {
					t.Fatalf("%s trial %d: inconsistent incremental group", leg.name, trial)
				}
			}
			if len(seen) != len(reps) {
				t.Fatalf("%s trial %d: covered %d of %d", leg.name, trial, len(seen), len(reps))
			}
		}
	}
}

// TestUpperBoundInvariant: Lemma 6.2 — the initialized upper bound
// dominates the true pivot support for every graph.
func TestUpperBoundInvariant(t *testing.T) {
	for _, leg := range optionLegs() {
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 10; trial++ {
			reps := propPool(rng, 10+rng.Intn(25))
			e := NewEngine(reps, leg.opts)
			for _, c := range e.ctxs {
				c.Prepare(e.graphOptions(c))
				for gi, g := range c.Graphs {
					if g == nil {
						continue
					}
					res, ok := c.SearchPivot(g, 0, SearchOpts{})
					if !ok {
						t.Fatalf("%s trial %d: graph %d has no pivot", leg.name, trial, gi)
					}
					if res.count > c.up[gi] {
						t.Fatalf("%s trial %d: pivot support %d > upper bound %d for %q→%q",
							leg.name, trial, res.count, c.up[gi], g.S, g.T)
					}
				}
			}
		}
	}
}

// TestSupportMatchesMembershipInvariant: the spanning support returned
// by a seeded search equals the set of graphs whose pathSupport contains
// them (self-consistency of the index machinery).
func TestSupportMatchesMembershipInvariant(t *testing.T) {
	for _, leg := range optionLegs() {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 10; trial++ {
			reps := propPool(rng, 10+rng.Intn(25))
			e := NewEngine(reps, leg.opts)
			for _, c := range e.ctxs {
				c.Prepare(e.graphOptions(c))
				for gi, g := range c.Graphs {
					if g == nil {
						continue
					}
					res, ok := c.SearchPivot(g, 0, SearchOpts{LocalTerm: true})
					if !ok {
						continue
					}
					again := c.pathSupport(res.path)
					if len(again) != len(res.support) {
						t.Fatalf("%s trial %d graph %d: support %v vs recomputed %v",
							leg.name, trial, gi, res.support, again)
					}
					for i := range again {
						if again[i] != res.support[i] {
							t.Fatalf("%s trial %d graph %d: support %v vs recomputed %v",
								leg.name, trial, gi, res.support, again)
						}
					}
					// The searched graph itself is always in its pivot's
					// support.
					found := false
					for _, id := range res.support {
						if id == int32(gi) {
							found = true
						}
					}
					if !found {
						t.Fatalf("%s trial %d: graph %d missing from own pivot support", leg.name, trial, gi)
					}
				}
			}
		}
	}
}
