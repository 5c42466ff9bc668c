package core

import (
	"fmt"
	"math"
	"testing"
)

// naiveCountSubstrings is the reference: decode s to runes (invalid
// bytes become U+FFFD, as in tgraph) and count every rune-aligned
// substring whose encoding spans at most maxLen bytes.
func naiveCountSubstrings(m map[string]int, s string, maxLen int) {
	r := []rune(s)
	for i := 0; i < len(r); i++ {
		for j := i + 1; j <= len(r); j++ {
			if k := string(r[i:j]); len(k) <= maxLen {
				m[k]++
			}
		}
	}
}

// globalCounts reads a sealed index's global counts back by substring.
func globalCounts(x *substrIndex) map[string]int {
	m := make(map[string]int, len(x.names))
	for id, k := range x.names {
		if n := x.global[id]; n != 0 {
			m[k] = int(n)
		}
	}
	return m
}

func diffCounts(t *testing.T, what string, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d substrings, want %d", what, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s[%q] = %d, want %d", what, k, got[k], n)
		}
	}
}

// TestCountSubstringsMatchesNaive: the substring index's global counts
// equal the naive reference, per target and over a whole column in
// which targets repeat (a repeat re-adds its cached ids), with ASCII,
// non-ASCII and invalid-UTF-8 targets.
func TestCountSubstringsMatchesNaive(t *testing.T) {
	inputs := []string{
		"", "a", "Mary Lee", "Smith, James", "née Müller", "日本語テスト",
		"mixed ascii and ünïcode tails", "aaaaaaaaaaaaaaaaaaaaaaaa",
		"éééééééééééé", "ab\xffcd\xc3(é\xe2\x82",
	}
	for _, maxLen := range []int{1, 3, 16} {
		all := newSubstrIndex(maxLen)
		wantAll := map[string]int{}
		for _, s := range inputs {
			want := map[string]int{}
			naiveCountSubstrings(want, s, maxLen)
			x := newSubstrIndex(maxLen)
			x.add(s)
			x.seal()
			diffCounts(t, fmt.Sprintf("index(%q, %d)", s, maxLen), globalCounts(x), want)
			for rep := 0; rep < 3; rep++ {
				all.add(s)
				naiveCountSubstrings(wantAll, s, maxLen)
			}
		}
		all.seal()
		diffCounts(t, fmt.Sprintf("column index(maxLen %d)", maxLen), globalCounts(all), wantAll)
		if n := len(all.off) - 1; n != len(inputs) {
			t.Errorf("maxLen %d: %d target lists cached, want %d", maxLen, n, len(inputs))
		}
	}
}

// TestCountSubstringsASCIIAllocs gates the hot paths: re-adding a
// target the index has seen must not allocate at all — it counts one
// more occurrence without laying the target out again — and neither
// must a shard numbering a target whose substrings it has numbered.
func TestCountSubstringsASCIIAllocs(t *testing.T) {
	assertReAddNoAllocs(t, "Smith, James A. 42nd")
}

// TestCountSubstringsUnicodeScratchPooled gates the non-ASCII path the
// same way: a seen non-ASCII target allocates nothing either.
func TestCountSubstringsUnicodeScratchPooled(t *testing.T) {
	assertReAddNoAllocs(t, "Müller, Ænna 42nd")
}

func assertReAddNoAllocs(t *testing.T, s string) {
	t.Helper()
	x := newSubstrIndex(maxConstLen)
	x.add(s)
	targets, slots := len(x.keys), x.off[len(x.off)-1]
	allocs := testing.AllocsPerRun(100, func() {
		x.add(s)
	})
	if allocs != 0 {
		t.Errorf("re-adding %q allocated %.1f per run, want 0", s, allocs)
	}
	if len(x.keys) != targets || x.off[len(x.off)-1] != slots {
		t.Errorf("re-adding %q laid it out again: %d new targets, %d new slots", s, len(x.keys)-targets, x.off[len(x.off)-1]-slots)
	}
	x.lists, x.wholes = make([]int32, slots), make([]int32, 1)
	sh := tableShard{ids: make(map[string]int32)}
	sh.fill(x, 0, 0, 1)
	names := len(sh.names)
	allocs = testing.AllocsPerRun(100, func() {
		sh.fill(x, 0, 0, 1)
	})
	if allocs != 0 {
		t.Errorf("numbering seen %q allocated %.1f per run, want 0", s, allocs)
	}
	if len(sh.names) != names {
		t.Errorf("numbering seen %q numbered %d new substrings", s, len(sh.names)-names)
	}
}

// TestConstantScoreMatchesFrequencyMaps: for every context of a
// generated column, part of it claimed before preparation, the constant
// table scores what the two-map formula it replaced returns — global
// and structural counts kept as string maps, freqStruc/sqrt(max(
// freqGlobal, 1)) — for every substring t[i,j) of at most maxConstLen
// bytes of every alive target, and its id list names exactly those
// substrings in tgraph.Constants' order, then the whole target.
func TestConstantScoreMatchesFrequencyMaps(t *testing.T) {
	reps := datagenReps("author", 1, 0.2)
	reps = append(reps, Rep{S: "x", T: "ab\xffcd Müller", Ext: -1}, Rep{S: "y", T: "ab\xffcd Müller", Ext: -2})
	e := NewEngine(reps, sessionOptions())
	global := map[string]int{}
	for _, c := range e.ctxs {
		for i, r := range c.Reps {
			if !c.preDead[i] {
				naiveCountSubstrings(global, r.T, maxConstLen)
			}
		}
	}
	e.Remove(reps[0].Ext, reps[1].Ext) // dead before any context prepares
	checked := 0
	for _, c := range e.ctxs {
		tab := e.graphOptions(c).Constants
		structural := map[string]int{}
		for i, r := range c.Reps {
			if !c.preDead[i] {
				naiveCountSubstrings(structural, r.T, maxConstLen)
			}
		}
		for i, r := range c.Reps {
			if c.preDead[i] {
				continue
			}
			ids, whole := tab.Target(r.T)
			rt := []rune(r.T)
			if got := tab.Name(whole); got != string(rt) {
				t.Fatalf("structure %q: whole target %q named %q", c.Sig, r.T, got)
			}
			p := 0
			for a := 0; a < len(rt); a++ {
				for b := a + 1; b <= len(rt) && len(string(rt[a:b])) <= maxConstLen; b++ {
					sub := string(rt[a:b])
					if p >= len(ids) || tab.Name(ids[p]) != sub {
						t.Fatalf("structure %q: target %q's id %d does not name %q", c.Sig, r.T, p, sub)
					}
					want := float64(structural[sub]) / math.Sqrt(float64(max(global[sub], 1)))
					if got := tab.Score(ids[p]); got != want {
						t.Fatalf("structure %q: score(%q) = %v, two-map formula %v", c.Sig, sub, got, want)
					}
					p++
					checked++
				}
			}
			if p != len(ids) {
				t.Fatalf("structure %q: target %q has %d ids, want %d", c.Sig, r.T, len(ids), p)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no substring scored")
	}
}

func BenchmarkCountSubstrings(b *testing.B) {
	cases := []struct{ name, s string }{
		{"ascii", "Smith, James A. 42nd Street apt 7"},
		{"unicode", "Müller, Ænna 42nd Straße Bür 7"},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("%s/len=%d", tc.name, len(tc.s)), func(b *testing.B) {
			x := newSubstrIndex(maxConstLen)
			x.add(tc.s)
			x.lists, x.wholes = make([]int32, x.off[1]), make([]int32, 1)
			sh := tableShard{ids: make(map[string]int32)}
			sh.fill(x, 0, 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.fill(x, 0, 0, 1)
			}
		})
	}
}

// TestSealedIndexOnlyLooksUp: once sealed, the index still serves the
// targets it numbered, and numbering a new one panics instead of
// growing it.
func TestSealedIndexOnlyLooksUp(t *testing.T) {
	x := newSubstrIndex(maxConstLen)
	x.add("Mary Lee")
	x.seal()
	if ids, _ := x.Target("Mary Lee"); len(ids) == 0 {
		t.Fatal("sealed index lost a numbered target")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("sealed index numbered a new target")
		}
	}()
	x.add("M. Lee")
}

// TestConstantTableMatchesSerialReference is the differential for the
// sharded numbering: on an ASCII, an é and an invalid-UTF-8 pool, at 1,
// 2 and 3 workers and at GOMAXPROCS (CI runs it at -cpu 1,2), every
// target's ids name its rune-aligned substrings of at most maxConstLen
// bytes in layout order, then the whole target; ids are injective; and
// every substring's global count, and its structural count in each
// structure group, equal a serial map[string]int reference.
func TestConstantTableMatchesSerialReference(t *testing.T) {
	pools := map[string][]Rep{
		"ascii": datagenReps("address", 1000, 0.1),
		"é":     accentPool(),
		"invalid": {
			{S: "a", T: "ab\xffcd", Ext: 0},
			{S: "b", T: "ab\xfecd", Ext: 1},
			{S: "a", T: "\xff\xfe\xc3(é", Ext: 2},
			{S: "c", T: "ab\xffcd", Ext: 3},
			{S: "d", T: "x\xe2\x82 Müller \xff", Ext: 4},
			{S: "e", T: "ab�cd", Ext: 5},
		},
	}
	for name, reps := range pools {
		global := map[string]int{}
		for _, r := range reps {
			naiveCountSubstrings(global, r.T, maxConstLen)
		}
		for _, workers := range []int{1, 2, 3, 0} {
			x := newSubstrIndex(maxConstLen)
			for _, r := range reps {
				x.add(r.T)
			}
			if workers == 0 {
				x.seal()
			} else {
				x.number(workers)
			}
			leg := fmt.Sprintf("%s/workers=%d", name, workers)
			seen := make(map[string]int32, len(x.names))
			for id, k := range x.names {
				if other, ok := seen[k]; ok {
					t.Fatalf("%s: ids %d and %d both name %q", leg, other, id, k)
				}
				seen[k] = int32(id)
			}
			diffCounts(t, leg+" global", globalCounts(x), global)
			for _, c := range splitByStructure(reps) {
				structural := map[string]int{}
				for _, r := range c.Reps {
					naiveCountSubstrings(structural, r.T, maxConstLen)
				}
				x.countContext(c)
				for _, r := range c.Reps {
					ids, whole := x.Target(r.T)
					rt := []rune(r.T)
					if got := x.Name(whole); got != string(rt) {
						t.Fatalf("%s: whole target %q named %q", leg, r.T, got)
					}
					p := 0
					for a := 0; a < len(rt); a++ {
						for b := a + 1; b <= len(rt) && len(string(rt[a:b])) <= maxConstLen; b++ {
							sub := string(rt[a:b])
							if p >= len(ids) || x.Name(ids[p]) != sub {
								t.Fatalf("%s: target %q's id %d does not name %q", leg, r.T, p, sub)
							}
							if got := x.structural[ids[p]]; int(got) != structural[sub] {
								t.Fatalf("%s structure %q: structural[%q] = %d, want %d", leg, c.Sig, sub, got, structural[sub])
							}
							p++
						}
					}
					if p != len(ids) {
						t.Fatalf("%s: target %q has %d ids, want %d", leg, r.T, len(ids), p)
					}
				}
			}
		}
	}
}

// accentPool is a column whose targets are mostly é: every é starts
// with the same byte, so one worker owns the bulk of the substrings.
func accentPool() []Rep {
	words := []string{"é", "éé", "née", "Müller é", "ééééééééé", "café é", "É é", "aé", "éa"}
	var reps []Rep
	for i := 0; i < 3*len(words); i++ {
		w := words[i%len(words)]
		reps = append(reps, Rep{S: fmt.Sprint(i % 4), T: w + words[(i/len(words)+i)%len(words)], Ext: i})
	}
	return reps
}
