package core

import "testing"

func timingReps() []Rep {
	return []Rep{
		{S: "J. Smith", T: "John Smith", Ext: 1},
		{S: "J. Doe", T: "John Doe", Ext: 2},
		{S: "A. Smith", T: "Ann Smith", Ext: 3},
		{S: "IBM Corp", T: "IBM", Ext: 4},
		{S: "Acme Corp", T: "Acme", Ext: 5},
	}
}

func TestTimingsAccumulate(t *testing.T) {
	e := NewEngine(timingReps(), Options{})
	tm := e.Timings()
	if tm.ContextPrep <= 0 {
		t.Errorf("ContextPrep = %v, want > 0 after NewEngine", tm.ContextPrep)
	}
	if tm.GraphBuild != 0 || tm.GroupSearch != 0 {
		t.Errorf("build/search = %v/%v, want 0 before any grouping", tm.GraphBuild, tm.GroupSearch)
	}
	if g := e.NextGroup(); g == nil {
		t.Fatal("NextGroup returned nil on fresh engine")
	}
	tm = e.Timings()
	if tm.GraphBuild <= 0 {
		t.Errorf("GraphBuild = %v, want > 0 after NextGroup", tm.GraphBuild)
	}
	if tm.GroupSearch < 0 {
		t.Errorf("GroupSearch = %v, want >= 0", tm.GroupSearch)
	}
	gs := e.GraphStats()
	if gs.Nodes == 0 || gs.Edges == 0 || gs.Labels == 0 {
		t.Errorf("GraphStats = %+v, want non-zero after lazy builds", gs)
	}
}

func TestTimingsAllGroupsParallel(t *testing.T) {
	e := NewEngine(timingReps(), Options{})
	if got := len(e.AllGroups(ModeEarlyTerm)); got == 0 {
		t.Fatal("AllGroups returned no groups")
	}
	tm := e.Timings()
	if tm.GraphBuild <= 0 || tm.GroupSearch <= 0 {
		t.Errorf("timings = %+v, want build and search > 0 after AllGroups", tm)
	}
}
