// Package datagen generates the three evaluation datasets of Section 8 —
// AuthorList, Address and JournalTitle — as deterministic synthetic
// equivalents (the originals are not redistributable).
//
// Each generator reproduces the dataset's published shape: the
// cluster-size profile and variant/conflict pair mix of Table 6, and the
// transformation families the paper reports (name transposition,
// initials, nickname shortening, (edt)/(author) annotations,
// missing-space concatenation, ordinal suffixes, street-type and state
// abbreviations, journal-word abbreviations, case variants), plus the
// "St can mean Saint" ambiguity of footnote 1 and the "author order
// transposed" conflict that the paper's human denied.
//
// Because generation starts from logical values, every cell gets an exact
// ground-truth canonical rendering: two same-cluster cells form a variant
// pair iff their canonical strings are equal, which is what the metrics
// and oracle packages consume.
package datagen

import (
	"math/rand"

	"github.com/goldrec/goldrec/table"
)

// Config controls dataset size and determinism.
type Config struct {
	// Seed drives all randomness; equal seeds give identical datasets.
	Seed int64
	// Clusters overrides the dataset's default cluster count (0 keeps
	// the default).
	Clusters int
	// Scale multiplies the default cluster count (0 means 1.0). The
	// paper's originals are 10-50x larger than our defaults; pass
	// -scale to cmd/benchrunner to approach them.
	Scale float64
}

func (c Config) clusterCount(def int) int {
	n := def
	if c.Clusters > 0 {
		n = c.Clusters
	}
	if c.Scale > 0 {
		n = int(float64(n) * c.Scale)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Generated bundles a dataset with its ground truth and target column.
type Generated struct {
	Data  *table.Dataset
	Truth *table.Truth
	// Col is the attribute column the experiments standardize.
	Col int
}

// Clone deep-copies the dataset (the truth is immutable and shared) so
// that several methods can standardize the same generated data.
func (g *Generated) Clone() *Generated {
	return &Generated{Data: g.Data.Clone(), Truth: g.Truth, Col: g.Col}
}

// value is one distinct rendered value planned for a cluster: the
// rendering, its ground-truth canonical form, and a sampling weight.
type value struct {
	text   string
	canon  string
	weight int
}

// buildCluster materializes a planned cluster: n records drawn from the
// weighted distinct values (every distinct value appears at least once so
// the plan is realized exactly), with round-robin synthetic sources.
func buildCluster(rng *rand.Rand, key string, vals []value, n int, sources []string, extra ...string) (table.Cluster, [][]string) {
	if n < len(vals) {
		n = len(vals)
	}
	picks := make([]int, 0, n)
	for i := range vals {
		picks = append(picks, i)
	}
	total := 0
	for _, v := range vals {
		total += v.weight
	}
	for len(picks) < n {
		r := rng.Intn(total)
		for i, v := range vals {
			if r < v.weight {
				picks = append(picks, i)
				break
			}
			r -= v.weight
		}
	}
	rng.Shuffle(len(picks), func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })

	cl := table.Cluster{Key: key}
	canons := make([][]string, 0, n)
	for i, pi := range picks {
		v := vals[pi]
		rec := table.Record{
			Source: sources[i%len(sources)],
			Values: append([]string{v.text}, extra...),
		}
		cl.Records = append(cl.Records, rec)
		canons = append(canons, append([]string{v.canon}, extra...))
	}
	return cl, canons
}

// tableDataset accumulates clusters plus their ground truth and
// assembles the Generated bundle.
type tableDataset struct {
	name     string
	attrs    []string
	clusters []table.Cluster
	canons   [][][]string
	goldens  [][]string
}

// addCluster plans and materializes one cluster. golden is the true
// value of the target column; extra values fill the remaining columns
// (identical across records, so their canon equals the value).
func (d *tableDataset) addCluster(rng *rand.Rand, key string, vals []value, n int, sources []string, golden string, extra ...string) {
	cl, canons := buildCluster(rng, key, vals, n, sources, extra...)
	d.clusters = append(d.clusters, cl)
	d.canons = append(d.canons, canons)
	d.goldens = append(d.goldens, append([]string{golden}, extra...))
}

func (d *tableDataset) finish() *Generated {
	ds := &table.Dataset{Name: d.name, Attrs: d.attrs, Clusters: d.clusters}
	tr := table.NewTruth(ds)
	for ci := range d.canons {
		for ri := range d.canons[ci] {
			copy(tr.Canon[ci][ri], d.canons[ci][ri])
		}
		copy(tr.Golden[ci], d.goldens[ci])
	}
	return &Generated{Data: ds, Truth: tr, Col: 0}
}

// pick returns a random element.
func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// sampleSize draws a cluster size from a skewed distribution with the
// given mean-ish buckets.
func sampleSize(rng *rand.Rand, small, large int) int {
	switch r := rng.Float64(); {
	case r < 0.55:
		return small + rng.Intn(small+1)
	case r < 0.90:
		return 2*small + rng.Intn(2*small+1)
	default:
		return large/2 + rng.Intn(large/2+1)
	}
}

func title(s string) string {
	out := []rune(s)
	up := true
	for i, r := range out {
		if r == ' ' {
			up = true
			continue
		}
		if up && r >= 'a' && r <= 'z' {
			out[i] = r - 'a' + 'A'
		}
		up = false
	}
	return string(out)
}
