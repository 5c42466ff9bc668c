// Package truth implements the truth-discovery step of the golden-record
// framework (Algorithm 1, line 10): majority consensus, as used in the
// paper's Section 8.3 evaluation, and golden-record assembly.
package truth

import (
	"sort"
	"strings"

	"github.com/goldrec/goldrec/table"
)

// Consensus is the outcome of truth discovery for one cluster+column.
type Consensus struct {
	// Value is the chosen golden value.
	Value string
	// OK is false when no value could be chosen (the paper's MC
	// "could not produce a golden value" on frequency ties).
	OK bool
}

// MajorityConsensus picks the most frequent value of each cluster for the
// column; a tie between distinct values yields no golden value, exactly
// as Section 8.3 describes. Empty values are ignored.
func MajorityConsensus(ds *table.Dataset, col int) []Consensus {
	out := make([]Consensus, len(ds.Clusters))
	for ci := range ds.Clusters {
		counts := make(map[string]int)
		for _, r := range ds.Clusters[ci].Records {
			v := r.Values[col]
			if v == "" {
				continue
			}
			counts[v]++
		}
		out[ci] = pickMajority(counts)
	}
	return out
}

func pickMajority(counts map[string]int) Consensus {
	best, bestN, tie := "", 0, false
	// Deterministic iteration for the tie scan.
	keys := make([]string, 0, len(counts))
	for v := range counts {
		keys = append(keys, v)
	}
	sort.Strings(keys)
	for _, v := range keys {
		n := counts[v]
		switch {
		case n > bestN:
			best, bestN, tie = v, n, false
		case n == bestN && n > 0 && v != best:
			tie = true
		}
	}
	if bestN == 0 || tie {
		return Consensus{}
	}
	return Consensus{Value: best, OK: true}
}

// Precision compares consensus values against ground-truth golden values
// case-insensitively (Section 8.3 lowercases the data) and returns
// TP/(TP+FP), counting clusters with no consensus as failures. Only the
// cluster indexes in sample are evaluated (the paper uses 100 random
// clusters per dataset); a nil sample evaluates all clusters.
func Precision(cons []Consensus, golden []string, sample []int) float64 {
	idx := sample
	if idx == nil {
		idx = make([]int, len(cons))
		for i := range idx {
			idx[i] = i
		}
	}
	tp, total := 0, 0
	for _, ci := range idx {
		if golden[ci] == "" {
			continue
		}
		total++
		if cons[ci].OK && strings.EqualFold(cons[ci].Value, golden[ci]) {
			tp++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(tp) / float64(total)
}

// GoldenRecords assembles one record per cluster from per-column
// consensus results (empty string when no consensus).
func GoldenRecords(ds *table.Dataset, consByCol [][]Consensus) []table.Record {
	out := make([]table.Record, len(ds.Clusters))
	for ci := range ds.Clusters {
		vals := make([]string, len(ds.Attrs))
		for col := range ds.Attrs {
			if consByCol[col] != nil && consByCol[col][ci].OK {
				vals[col] = consByCol[col][ci].Value
			}
		}
		out[ci] = table.Record{Values: vals}
	}
	return out
}
