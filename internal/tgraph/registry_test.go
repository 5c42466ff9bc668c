package tgraph

import (
	"slices"
	"testing"
)

var rebasePairs = [][2]string{
	{"Lee, Mary", "M. Lee"},
	{"Smith, James", "J. Smith"},
	{"9 Street, 02141 WI", "9th St, 02141 Wisconsin"},
	{"Smith, James", "James Smith"},
	{"3 E Avenue, 33990 CA", "3rd E Ave, 33990 California"},
	{"Mary Lee", "Lee, Mary"},
	{"Wisconsin", "WI"},
}

// productOptions are the builder settings goldrec ships: minimal SubStr
// labels and a constant table.
func productOptions() Options {
	return Options{
		MinimalSubStr: true,
		Constants:     newScoreTable(allConstants, func(sub string) float64 { return float64(len(sub) % 3) }),
	}
}

// allConstants is a scoreTable bound that numbers every substring of a
// target of at most MaxStringLen runes.
const allConstants = 4 * MaxStringLen

// scoreTable is a Constants table for tests: it numbers a target's
// substrings the first time Target sees it, rune by rune as
// tgraph.Constants lays them out, and scores them with score (0 when
// score is nil).
type scoreTable struct {
	maxLen  int
	score   func(sub string) float64
	ids     map[string]int32
	names   []string
	targets map[string]scoredTarget
}

type scoredTarget struct {
	ids   []int32
	whole int32
}

func newScoreTable(maxLen int, score func(sub string) float64) *scoreTable {
	return &scoreTable{maxLen: maxLen, score: score, ids: map[string]int32{}, targets: map[string]scoredTarget{}}
}

func (x *scoreTable) id(sub string) int32 {
	id, ok := x.ids[sub]
	if !ok {
		id = int32(len(x.names))
		x.ids[sub] = id
		x.names = append(x.names, sub)
	}
	return id
}

func (x *scoreTable) MaxLen() int { return x.maxLen }

func (x *scoreTable) Target(t string) ([]int32, int32) {
	if e, ok := x.targets[t]; ok {
		return e.ids, e.whole
	}
	rt := []rune(t)
	var e scoredTarget
	for i := range rt {
		for j := i + 1; j <= len(rt) && len(string(rt[i:j])) <= x.maxLen; j++ {
			e.ids = append(e.ids, x.id(string(rt[i:j])))
		}
	}
	e.whole = x.id(string(rt))
	x.targets[t] = e
	return e.ids, e.whole
}

func (x *scoreTable) Score(id int32) float64 {
	if x.score == nil {
		return 0
	}
	return x.score(x.names[id])
}

func (x *scoreTable) Name(id int32) string { return x.names[id] }

// sameGraph reports whether a and b have the same edges and labels.
func sameGraph(a, b *Graph) bool {
	return a.N == b.N && slices.Equal(a.nodes, b.nodes) && slices.Equal(a.edges, b.edges) && slices.Equal(a.labels, b.labels)
}

// TestBuildRegistryOrderDeterministic: building the same graphs in the
// same order interns the same keys in the same order, in every mode.
func TestBuildRegistryOrderDeterministic(t *testing.T) {
	for _, opt := range []Options{{}, productOptions()} {
		var first []labelKey
		for run := 0; run < 10; run++ {
			reg := NewRegistry()
			for _, p := range rebasePairs {
				Build(p[0], p[1], reg, opt)
			}
			if run == 0 {
				first = reg.keys
			} else if !slices.Equal(reg.keys, first) {
				t.Fatalf("MinimalSubStr=%v run %d: registry order differs from run 0", opt.MinimalSubStr, run)
			}
		}
	}
}

// TestRebaseMatchesSharedRegistry: graphs built round-robin on three
// registries and rebased in order onto one get exactly the ids of
// building them all in order on that one registry.
func TestRebaseMatchesSharedRegistry(t *testing.T) {
	for _, opt := range []Options{{}, productOptions()} {
		shared := NewRegistry()
		var want []*Graph
		for _, p := range rebasePairs {
			want = append(want, Build(p[0], p[1], shared, opt))
		}
		locals := []*Registry{NewRegistry(), NewRegistry(), NewRegistry()}
		dst := NewRegistry()
		for i, p := range rebasePairs {
			local := locals[i%len(locals)]
			first := LabelID(local.Len())
			g := Build(p[0], p[1], local, opt)
			local.Rebase(g, first, dst)
			if !sameGraph(g, want[i]) {
				t.Fatalf("MinimalSubStr=%v graph %d: rebased labels differ from the shared build", opt.MinimalSubStr, i)
			}
		}
		if !slices.Equal(dst.keys, shared.keys) {
			t.Fatalf("MinimalSubStr=%v: rebased registry order differs from the shared build", opt.MinimalSubStr)
		}
	}
}

func TestRebaseOutOfOrderPanics(t *testing.T) {
	local, dst := NewRegistry(), NewRegistry()
	g1 := Build("Lee, Mary", "M. Lee", local, Options{})
	first2 := LabelID(local.Len())
	g2 := Build("Smith, James", "J. Smith", local, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("rebasing a later graph first did not panic")
		}
	}()
	local.Rebase(g2, first2, dst)
	local.Rebase(g1, 0, dst)
}
