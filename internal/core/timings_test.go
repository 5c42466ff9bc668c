package core

import (
	"runtime"
	"testing"
	"time"
)

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

	// With prepare-ahead building while the main loop searches, no phase
	// shrinks (goldrecd observes their deltas) and GroupSearch stays
	// within the wall time of the NextGroup calls.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	e = NewEngine(datagenReps("address", 1000, 0.1), sessionOptions())
	var wall time.Duration
	last := e.Timings()
	for i := 0; i < 20; i++ {
		start := time.Now()
		g := e.NextGroup()
		wall += time.Since(start)
		if g == nil {
			break
		}
		tm := e.Timings()
		if tm.GraphBuild < last.GraphBuild || tm.GroupSearch < last.GroupSearch || tm.ContextPrep != last.ContextPrep {
			t.Fatalf("group %d: timings went from %+v to %+v", i, last, tm)
		}
		if tm.GroupSearch > wall {
			t.Fatalf("group %d: GroupSearch %v exceeds the %v NextGroup took", i, tm.GroupSearch, wall)
		}
		last = tm
	}
	if last.GraphBuild <= 0 || last.GroupSearch <= 0 {
		t.Errorf("timings = %+v, want build and search > 0 after 20 groups", last)
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
