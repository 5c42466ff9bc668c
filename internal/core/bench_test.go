package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/goldrec/goldrec/internal/tgraph"
)

// graphOptionsMinimal is the paper's speed configuration (Appendix E
// static orders).
func graphOptionsMinimal() tgraph.Options {
	return tgraph.Options{MinimalSubStr: true}
}

// benchPool plants n replacements across three transformation families.
func benchPool(n int) []Rep {
	firsts := []string{"mary", "james", "anna", "paul", "dana", "kim", "lou", "sal"}
	lasts := []string{"lee", "smith", "jones", "wu", "park", "diaz", "cole", "reyes"}
	reps := make([]Rep, 0, n)
	for i := 0; i < n; i++ {
		f := firsts[i%len(firsts)]
		l := lasts[(i/len(firsts))%len(lasts)]
		switch i % 3 {
		case 0:
			reps = append(reps, Rep{S: l + ", " + f, T: f + " " + l, Ext: i})
		case 1:
			reps = append(reps, Rep{S: l + ", " + f, T: f[:1] + ". " + l, Ext: i})
		default:
			reps = append(reps, Rep{S: f + " " + l, T: l + ", " + f, Ext: i})
		}
	}
	return reps
}

func benchOptions() Options {
	return Options{
		ConstantScoring: true,
		Graph:           graphOptionsMinimal(),
	}
}

func BenchmarkAllGroupsEarlyTerm(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			reps := benchPool(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := NewEngine(reps, benchOptions())
				groups := e.AllGroups(ModeEarlyTerm)
				if len(groups) == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}

func BenchmarkNextGroupFirstCall(b *testing.B) {
	reps := benchPool(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine(reps, benchOptions())
		if g := e.NextGroup(); g == nil {
			b.Fatal("no group")
		}
	}
}

func BenchmarkNextGroupDrain(b *testing.B) {
	reps := benchPool(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine(reps, benchOptions())
		for e.NextGroup() != nil {
		}
	}
}

func BenchmarkSearchPivot(b *testing.B) {
	c := newContext("bench", benchPool(128))
	c.Prepare(graphOptionsMinimal())
	opts := SearchOpts{LocalTerm: true, GlobalTerm: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Reset bounds so each iteration does full work.
		for gi := range c.lo {
			if c.Graphs[gi] != nil {
				c.lo[gi] = 1
			}
		}
		if _, ok := c.SearchPivot(c.Graphs[0], 0, opts); !ok {
			b.Fatal("no pivot")
		}
	}
}

func BenchmarkIntersect(b *testing.B) {
	l := make([]Posting, 0, 1024)
	r := make([]Posting, 0, 1024)
	for g := int32(0); g < 1024; g++ {
		l = append(l, Posting{G: g, I: 1, J: 3})
		if g%2 == 0 {
			r = append(r, Posting{G: g, I: 3, J: 7})
		}
	}
	alive := make([]bool, 1024)
	for i := range alive {
		alive[i] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := intersectInto(nil, l, r, alive)
		if len(out) != 512 {
			b.Fatal("bad intersection")
		}
	}
}

// sessionOptions is the engine configuration goldrec.Session ships:
// both Appendix E static orders and θ = 6.
func sessionOptions() Options {
	return Options{
		Graph:           graphOptionsMinimal(),
		MaxPathLen:      DefaultMaxPathLen,
		ConstantScoring: true,
	}
}

// BenchmarkPrepareAddress builds every structure group's graphs of an
// Address ×0.3 pool under the shipped configuration: the graph_build
// phase with nothing of the pivot search.
func BenchmarkPrepareAddress(b *testing.B) {
	reps := datagenReps("address", 1000, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(reps, sessionOptions())
		for _, c := range e.ctxs {
			e.prepare(context.Background(), c, nil)
		}
	}
}

// BenchmarkNextGroupFirstCallAddress is the first question a reviewer
// waits for on a fresh Address ×0.3 upload: engine construction plus
// the first NextGroup, graph builds included.
func BenchmarkNextGroupFirstCallAddress(b *testing.B) {
	reps := datagenReps("address", 1000, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := NewEngine(reps, sessionOptions()).NextGroup(); g == nil {
			b.Fatal("no group")
		}
	}
}

// addressTargets lists the targets NewEngine adds to the constant
// table for an Address ×0.3 pool: every replacement's T, repeats kept.
func addressTargets() []string {
	reps := datagenReps("address", 1000, 0.3)
	ts := make([]string, len(reps))
	for i, r := range reps {
		ts[i] = r.T
	}
	return ts
}

// BenchmarkConstantTableAddress numbers the constant table of an
// Address ×0.3 pool: every target added, then sealed — the part of
// context_prep that is not the structure split.
func BenchmarkConstantTableAddress(b *testing.B) {
	ts := addressTargets()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := newSubstrIndex(maxConstLen)
		for _, t := range ts {
			x.add(t)
		}
		x.seal()
	}
}

// BenchmarkNextGroup40Address is the first 40 questions on a fresh
// Address ×0.3 upload: engine construction, the first NextGroup and 39
// more.
func BenchmarkNextGroup40Address(b *testing.B) {
	reps := datagenReps("address", 1000, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(reps, sessionOptions())
		for n := 0; n < 40; n++ {
			if e.NextGroup() == nil {
				b.Fatal("engine exhausted")
			}
		}
	}
}
