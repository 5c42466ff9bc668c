package core

import (
	"testing"

	"github.com/goldrec/goldrec/internal/dsl"
)

// transposeProgram maps "First Last" to "Last, First" — the canonical
// cross-cluster transformation of Table 1.
func transposeProgram() dsl.Program {
	return dsl.Program{
		dsl.SubStr{
			L: dsl.MatchPos{Term: dsl.TermCapital, K: 2, Dir: dsl.DirBegin},
			R: dsl.ConstPos{K: -1},
		},
		dsl.ConstantStr{S: ", "},
		dsl.SubStr{
			L: dsl.ConstPos{K: 1},
			R: dsl.MatchPos{Term: dsl.TermSpace, K: 1, Dir: dsl.DirBegin},
		},
	}
}

func TestWarmPreapplyClaimsMatches(t *testing.T) {
	reps := []Rep{
		{S: "Mary Lee", T: "Lee, Mary", Ext: 0},
		{S: "James Smith", T: "Smith, James", Ext: 1},
		{S: "Mary Lee", T: "M. Lee", Ext: 2},
	}
	e := NewEngine(reps, Options{
		Warm: []WarmPrior{{Program: transposeProgram(), Approvals: 3}},
	})
	warm := e.WarmGroups()
	if len(warm) != 1 {
		t.Fatalf("WarmGroups = %d groups, want 1", len(warm))
	}
	g := warm[0]
	if !g.Warm {
		t.Errorf("warm group not flagged Warm")
	}
	if g.Sig == "" {
		t.Errorf("warm group has empty structure signature")
	}
	if g.Size() != 2 {
		t.Fatalf("warm group size = %d, want 2", g.Size())
	}
	got := map[int]bool{}
	for _, m := range g.Members {
		got[m.Ext] = true
	}
	if !got[0] || !got[1] {
		t.Errorf("warm members = %v, want exts 0 and 1", g.Members)
	}
	// The claimed replacements are gone from the search: only ext 2
	// remains groupable.
	groups := e.AllGroups(ModeEarlyTerm)
	if len(groups) != 1 || groups[0].Size() != 1 || groups[0].Members[0].Ext != 2 {
		t.Fatalf("post-warm groups = %v, want one singleton with ext 2", groupSizes(groups))
	}
	if groups[0].Warm {
		t.Errorf("searched group flagged Warm")
	}
}

func TestWarmSkipsNondeterministicAndEmpty(t *testing.T) {
	reps := []Rep{{S: "abc", T: "ab", Ext: 0}}
	e := NewEngine(reps, Options{
		Warm: []WarmPrior{
			{Program: dsl.Program{}, Approvals: 5},
			{Program: dsl.Program{dsl.Prefix{Term: dsl.TermLower, K: 1}}, Approvals: 5},
		},
	})
	if len(e.WarmGroups()) != 0 {
		t.Fatalf("non-deterministic priors formed warm groups: %v", e.WarmGroups())
	}
	if groups := e.AllGroups(ModeEarlyTerm); len(groups) != 1 {
		t.Fatalf("groups = %v, want the rep untouched", groupSizes(groups))
	}
}

func TestWarmFirstPriorWins(t *testing.T) {
	reps := []Rep{{S: "Mary Lee", T: "Lee, Mary", Ext: 0}}
	constant := dsl.Program{dsl.ConstantStr{S: "Lee, Mary"}}
	e := NewEngine(reps, Options{
		Warm: []WarmPrior{
			{Program: constant, Approvals: 1},
			{Program: transposeProgram(), Approvals: 9},
		},
	})
	warm := e.WarmGroups()
	if len(warm) != 1 || warm[0].Size() != 1 {
		t.Fatalf("WarmGroups = %v, want one singleton", warm)
	}
	if warm[0].Program.Key() != constant.Key() {
		t.Errorf("claimed by %q, want the first prior %q", warm[0].Program.Key(), constant.Key())
	}
}

func TestWarmWithConstantScoring(t *testing.T) {
	// Warm claiming must compose with the Appendix E scorer: the
	// substring index counts only unclaimed replacements and grouping
	// still terminates on what remains.
	reps := table1NameReps()
	e := NewEngine(reps, Options{
		ConstantScoring: true,
		Warm:            []WarmPrior{{Program: transposeProgram(), Approvals: 2}},
	})
	warm := e.WarmGroups()
	if len(warm) != 1 || warm[0].Size() != 2 {
		t.Fatalf("WarmGroups = %v, want one group of 2", warm)
	}
	claimed := map[int]bool{}
	for _, m := range warm[0].Members {
		claimed[m.Ext] = true
	}
	groups := e.AllGroups(ModeEarlyTerm)
	total := 0
	for _, g := range groups {
		for _, m := range g.Members {
			if claimed[m.Ext] {
				t.Fatalf("ext %d grouped twice (warm and searched)", m.Ext)
			}
			total++
		}
	}
	if total != len(reps)-2 {
		t.Fatalf("searched %d replacements, want %d", total, len(reps)-2)
	}
}
