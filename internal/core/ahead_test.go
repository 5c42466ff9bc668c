package core

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"github.com/goldrec/goldrec/internal/replace"
)

// TestPrepareAheadMatchesOnDemand: NextGroup with prepare-ahead returns
// the group sequence — program keys and members — of preparing every
// structure group on the main loop, over multi-context Address,
// JournalTitle and AuthorList pools reviewed the way goldrec.Session
// reviews them: each group applied in review order and the emptied
// candidates removed before the next NextGroup. Some removals reach
// contexts prepare-ahead built and the main loop has not expanded yet;
// TestRemoveDropsPreparedAhead checks that path on its own. The test
// runs at GOMAXPROCS 2 at least, as prepare-ahead needs a second core,
// and CI runs it under the race detector.
func TestPrepareAheadMatchesOnDemand(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	cases := []struct {
		family string
		seed   int64
		scale  float64
	}{
		{"address", 1000, 0.1},
		{"journal", 1, 0.25},
		{"author", 1, 0.4},
	}
	built, reached := 0, 0
	for _, tc := range cases {
		name := fmt.Sprintf("%s/%d", tc.family, tc.seed)
		want, _, _ := reviewSequence(t, datagenStore(tc.family, tc.seed, tc.scale), true)
		got, b, r := reviewSequence(t, datagenStore(tc.family, tc.seed, tc.scale), false)
		built, reached = built+b, reached+r
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups with prepare-ahead, %d without", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: group %d is %s with prepare-ahead, %s without", name, i, got[i], want[i])
			}
		}
	}
	t.Logf("contexts built ahead and not yet expanded, summed over calls: %d; removals into them: %d", built, reached)
	if built == 0 {
		t.Error("prepare-ahead built no context ahead of the main loop")
	}
}

// TestRemoveDropsPreparedAhead: a removal into a context prepare-ahead
// built, before the main loop expands it, drops the build, and the main
// loop's own preparation then equals the serial build of the context
// with that replacement dead before preparation.
func TestRemoveDropsPreparedAhead(t *testing.T) {
	e := NewEngine(datagenReps("address", 1000, 0.1), sessionOptions())
	c := e.ctxs[e.order[1].ctx]
	e.prepare(context.Background(), c, &ahead{})
	if !c.Prepared() || !c.ahead {
		t.Fatal("prepare-ahead's preparation did not mark the context")
	}
	e.next = len(e.order)
	e.Remove(c.Reps[1].Ext)
	if c.Prepared() || c.ahead || !c.preDead[1] || e.next != c.rank {
		t.Fatalf("removal kept the build ahead: prepared %v, ahead %v, preDead %v, next %d (rank %d)", c.Prepared(), c.ahead, c.preDead[1], e.next, c.rank)
	}
	e.prepare(context.Background(), c, nil)
	if err := diffPrepared(c, serialPrepare(c, e.graphOptions(c))); err != nil {
		t.Fatal(err)
	}
	if c.Graphs[1] != nil || c.ahead {
		t.Fatal("main loop's preparation built the removed replacement or marked the context ahead")
	}
}

// reviewSequence approves the engine's first 40 groups forward on st,
// as goldrec.Session applies them, and renders each as its program key
// and member ids. It also counts the contexts prepare-ahead had built
// and not expanded after each NextGroup, and the removals that reached
// one.
func reviewSequence(t *testing.T, st *replace.Store, noAhead bool) (seq []string, built, dropped int) {
	t.Helper()
	e := NewEngine(storeReps(st), sessionOptions())
	e.noAhead = noAhead
	for len(seq) < 40 {
		g := e.NextGroup()
		if g == nil {
			break
		}
		b := append([]byte(g.Program.Key()), '|')
		members := make([]*replace.Candidate, len(g.Members))
		for i, m := range g.Members {
			b = strconv.AppendInt(append(b, ','), int64(m.Ext), 10)
			members[i] = st.Candidate(m.Ext)
		}
		seq = append(seq, string(b))
		for _, c := range e.ctxs {
			if c.ahead {
				built++
			}
		}
		replace.SortForReview(members)
		emptied := st.ApplyGroup(members, false).Emptied
		for _, ext := range emptied {
			if l, ok := e.loc[ext]; ok && l.ctx.ahead {
				dropped++
			}
		}
		e.Remove(emptied...)
	}
	if len(seq) == 0 {
		t.Fatal("no groups")
	}
	return seq, built, dropped
}
