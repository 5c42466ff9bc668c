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
// labels and a constant scorer.
func productOptions() Options {
	return Options{
		MinimalSubStr: true,
		ConstantScore: func(sub string) float64 { return float64(len(sub) % 3) },
	}
}

// TestBuildRegistryOrderDeterministic: building the same graphs in the
// same order interns the same keys in the same order, in every mode.
func TestBuildRegistryOrderDeterministic(t *testing.T) {
	for _, opt := range []Options{{}, productOptions()} {
		var first []string
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
			if !slices.EqualFunc(g.Adj, want[i].Adj, func(a, b []Edge) bool {
				return slices.EqualFunc(a, b, func(x, y Edge) bool {
					return x.To == y.To && slices.Equal(x.Labels, y.Labels)
				})
			}) {
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
