package truth

import (
	"testing"

	"github.com/goldrec/goldrec/table"
)

func ds(vals ...[]string) *table.Dataset {
	d := &table.Dataset{Attrs: []string{"A"}}
	for _, cl := range vals {
		var recs []table.Record
		for _, v := range cl {
			recs = append(recs, table.Record{Values: []string{v}})
		}
		d.Clusters = append(d.Clusters, table.Cluster{Records: recs})
	}
	return d
}

func TestMajorityConsensus(t *testing.T) {
	d := ds(
		[]string{"a", "a", "b"},
		[]string{"x", "y"},    // tie → no value
		[]string{"", "", "z"}, // empties ignored
		[]string{"q"},         // singleton
	)
	cons := MajorityConsensus(d, 0)
	if !cons[0].OK || cons[0].Value != "a" {
		t.Errorf("cluster 0 = %+v, want a", cons[0])
	}
	if cons[1].OK {
		t.Errorf("cluster 1 = %+v, want tie (no value)", cons[1])
	}
	if !cons[2].OK || cons[2].Value != "z" {
		t.Errorf("cluster 2 = %+v, want z", cons[2])
	}
	if !cons[3].OK || cons[3].Value != "q" {
		t.Errorf("cluster 3 = %+v, want q", cons[3])
	}
}

func TestMajorityConsensusAllEmpty(t *testing.T) {
	d := ds([]string{"", ""})
	cons := MajorityConsensus(d, 0)
	if cons[0].OK {
		t.Errorf("all-empty cluster = %+v, want no value", cons[0])
	}
}

func TestPrecision(t *testing.T) {
	cons := []Consensus{
		{Value: "A", OK: true},
		{Value: "b", OK: true},
		{OK: false},
		{Value: "d", OK: true},
	}
	golden := []string{"a", "x", "c", "d"}
	// Case-insensitive match on cluster 0, wrong on 1, no value on 2
	// (counts as failure), right on 3 → 2/4.
	if got := Precision(cons, golden, nil); got != 0.5 {
		t.Errorf("Precision = %v, want 0.5", got)
	}
	// Sampled subset.
	if got := Precision(cons, golden, []int{0, 3}); got != 1 {
		t.Errorf("sampled Precision = %v, want 1", got)
	}
	// Clusters without ground truth are skipped.
	golden[1] = ""
	if got := Precision(cons, golden, nil); got != 2.0/3.0 {
		t.Errorf("Precision = %v, want 2/3", got)
	}
}

func TestGoldenRecords(t *testing.T) {
	d := ds([]string{"a", "a"}, []string{"x", "y"})
	cons := MajorityConsensus(d, 0)
	recs := GoldenRecords(d, [][]Consensus{cons})
	if recs[0].Values[0] != "a" {
		t.Errorf("golden 0 = %q, want a", recs[0].Values[0])
	}
	if recs[1].Values[0] != "" {
		t.Errorf("golden 1 = %q, want empty (tie)", recs[1].Values[0])
	}
}
