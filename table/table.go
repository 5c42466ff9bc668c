// Package table defines the clustered-record data model used throughout
// goldrec: a Dataset is a collection of clusters, each cluster a set of
// duplicate records produced by an upstream entity-resolution step.
//
// The model mirrors the input of the entity-consolidation problem in the
// paper (Definition 1): clusters of duplicate records whose variant values
// must be standardized before golden records can be constructed.
package table

import (
	"fmt"
	"sort"
	"strings"
)

// Record is one row from one data source.
type Record struct {
	// Source identifies the data source the record came from. It is
	// optional, and carried through entity resolution and the CSV
	// readers.
	Source string
	// Values holds one string per attribute, parallel to Dataset.Attrs.
	Values []string
}

// Cluster is a set of records believed to describe the same real-world
// entity (for example, all listings of one book grouped by ISBN).
type Cluster struct {
	// Key is the clustering key (ISBN, ISSN, EIN, ...). Informational.
	Key string
	// Records are the duplicate records in this cluster.
	Records []Record
}

// Dataset is a collection of clusters over a fixed set of attributes.
type Dataset struct {
	Name     string
	Attrs    []string
	Clusters []Cluster
}

// Cell addresses a single value inside a dataset: record Row of cluster
// Cluster, attribute column Col.
type Cell struct {
	Cluster int
	Row     int
	Col     int
}

// ColumnIndex returns the index of the named attribute, or -1.
func (d *Dataset) ColumnIndex(attr string) int {
	for i, a := range d.Attrs {
		if a == attr {
			return i
		}
	}
	return -1
}

// Value returns the current value at cell c.
func (d *Dataset) Value(c Cell) string {
	return d.Clusters[c.Cluster].Records[c.Row].Values[c.Col]
}

// SetValue overwrites the value at cell c.
func (d *Dataset) SetValue(c Cell, v string) {
	d.Clusters[c.Cluster].Records[c.Row].Values[c.Col] = v
}

// NumRecords returns the total number of records across all clusters.
func (d *Dataset) NumRecords() int {
	n := 0
	for i := range d.Clusters {
		n += len(d.Clusters[i].Records)
	}
	return n
}

// Validate checks structural invariants: every record has exactly one
// value per attribute and no cluster is nil.
func (d *Dataset) Validate() error {
	if d == nil {
		return fmt.Errorf("table: nil dataset")
	}
	if len(d.Attrs) == 0 {
		return fmt.Errorf("table: dataset %q has no attributes", d.Name)
	}
	for ci := range d.Clusters {
		for ri, r := range d.Clusters[ci].Records {
			if len(r.Values) != len(d.Attrs) {
				return fmt.Errorf("table: dataset %q cluster %d record %d has %d values, want %d",
					d.Name, ci, ri, len(r.Values), len(d.Attrs))
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the dataset. Standardization mutates cell
// values in place, so experiments that need a pristine copy clone first.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{
		Name:     d.Name,
		Attrs:    append([]string(nil), d.Attrs...),
		Clusters: make([]Cluster, len(d.Clusters)),
	}
	for ci := range d.Clusters {
		c := d.Clusters[ci]
		nc := Cluster{Key: c.Key, Records: make([]Record, len(c.Records))}
		for ri, r := range c.Records {
			nc.Records[ri] = Record{
				Source: r.Source,
				Values: append([]string(nil), r.Values...),
			}
		}
		out.Clusters[ci] = nc
	}
	return out
}

// ClusterSizeStats reports min, max and mean cluster sizes (Table 6).
func (d *Dataset) ClusterSizeStats() (min, max int, avg float64) {
	if len(d.Clusters) == 0 {
		return 0, 0, 0
	}
	min = len(d.Clusters[0].Records)
	for i := range d.Clusters {
		n := len(d.Clusters[i].Records)
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
		avg += float64(n)
	}
	avg /= float64(len(d.Clusters))
	return min, max, avg
}

// DistinctPairs counts the distinct non-identical ordered value pairs that
// co-occur within clusters for the given column. This matches the
// "# of distinct value pairs" row of Table 6 in the paper (which counts
// unordered pairs; set ordered to true to count both directions).
func (d *Dataset) DistinctPairs(col int, ordered bool) int {
	type pair struct{ a, b string }
	seen := make(map[pair]struct{})
	for ci := range d.Clusters {
		vals := distinctValues(d, ci, col)
		for i := 0; i < len(vals); i++ {
			for j := i + 1; j < len(vals); j++ {
				a, b := vals[i], vals[j]
				if a > b {
					a, b = b, a
				}
				seen[pair{a, b}] = struct{}{}
			}
		}
	}
	n := len(seen)
	if ordered {
		n *= 2
	}
	return n
}

func distinctValues(d *Dataset, ci, col int) []string {
	set := make(map[string]struct{})
	for _, r := range d.Clusters[ci].Records {
		set[r.Values[col]] = struct{}{}
	}
	vals := make([]string, 0, len(set))
	for v := range set {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	return vals
}

// String renders a compact multi-line view of the dataset, useful in
// examples and debugging. Long datasets are truncated.
func (d *Dataset) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dataset %q: %d clusters, %d records\n", d.Name, len(d.Clusters), d.NumRecords())
	const maxClusters = 5
	for ci := range d.Clusters {
		if ci >= maxClusters {
			fmt.Fprintf(&b, "... (%d more clusters)\n", len(d.Clusters)-maxClusters)
			break
		}
		fmt.Fprintf(&b, "cluster %d (key=%s):\n", ci, d.Clusters[ci].Key)
		for _, r := range d.Clusters[ci].Records {
			fmt.Fprintf(&b, "  %s\n", strings.Join(r.Values, " | "))
		}
	}
	return b.String()
}
