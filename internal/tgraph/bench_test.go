package tgraph

import "testing"

// longAddress is BenchmarkBuildLongAddress's pair: an Address-length
// replacement with many term runs on both sides.
var longAddress = [2]string{
	"1289 E Maple Boulevard Suite 12, 02141 Massachusetts",
	"1289th E Maple Blvd Ste 12, 02141 MA",
}

func benchBuild(b *testing.B, s, t string, opt Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg := NewRegistry()
		g := Build(s, t, reg, opt)
		if g == nil {
			b.Fatal("nil graph")
		}
	}
}

func BenchmarkBuildShortToken(b *testing.B) {
	benchBuild(b, "Wisconsin", "WI", Options{})
}

func BenchmarkBuildNameTranspose(b *testing.B) {
	benchBuild(b, "Smith, James", "James Smith", Options{})
}

func BenchmarkBuildLongAddress(b *testing.B) {
	benchBuild(b, longAddress[0], longAddress[1], Options{})
}

func BenchmarkBuildMinimalSubStr(b *testing.B) {
	benchBuild(b, "Smith, James", "James Smith", Options{MinimalSubStr: true})
}

func BenchmarkBuildNoAffix(b *testing.B) {
	benchBuild(b, "Smith, James", "James Smith", Options{NoAffix: true})
}

// TestBuildAllocs gates the builder's per-graph garbage: on a registry
// that already holds every label of the pair, a build with warm scratch
// allocates only the term matches and the graph it returns — no boxed
// position function, no per-position list — in both the unpruned and
// the shipped mode. It drives one builder, as Build does between pool
// hits, so the count does not depend on the race detector dropping
// pooled builders.
func TestBuildAllocs(t *testing.T) {
	for _, opt := range []Options{{}, productOptions()} {
		reg, b := NewRegistry(), new(builder)
		b.build(longAddress[0], longAddress[1], reg, opt)
		allocs := testing.AllocsPerRun(50, func() {
			b.build(longAddress[0], longAddress[1], reg, opt)
		})
		if allocs > 24 {
			t.Errorf("MinimalSubStr=%v: Build allocated %.0f objects per run on a warm registry, want at most 24",
				opt.MinimalSubStr, allocs)
		}
	}
}
