package main

import (
	"bytes"
	"encoding/csv"
	"fmt"

	"github.com/goldrec/goldrec/internal/datagen"
	"github.com/goldrec/goldrec/table"
)

// feed is one generated upload: the CSV the server receives, plus the
// ground truth only the simulated reviewer sees.
type feed struct {
	name   string
	column string
	csv    []byte
	gen    *datagen.Generated
}

// makeFeed generates a dataset of the given family and renders it as a
// clustered CSV with key and source columns. datagen draws random
// EIN/ISSN keys, and table.ReadCSV orders clusters by key; the keys are
// therefore replaced with ones that sort in generation order, so the
// server's cluster i is the generator's cluster i and the ground truth
// stays aligned after upload.
func makeFeed(name string, gen *datagen.Generated) (feed, error) {
	for ci := range gen.Data.Clusters {
		gen.Data.Clusters[ci].Key = fmt.Sprintf("c%07d", ci)
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write(append([]string{"key", "source"}, gen.Data.Attrs...))
	for ci := range gen.Data.Clusters {
		cl := &gen.Data.Clusters[ci]
		for _, r := range cl.Records {
			w.Write(append([]string{cl.Key, r.Source}, r.Values...))
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return feed{}, err
	}
	return feed{name: name, column: gen.Data.Attrs[gen.Col], csv: buf.Bytes(), gen: gen}, nil
}

// generate builds family ("address" or "journal") at the given scale of
// its default size.
func generate(family string, seed int64, scale float64) (*datagen.Generated, error) {
	cfg := datagen.Config{Seed: seed, Scale: scale}
	switch family {
	case "address":
		return datagen.Address(cfg), nil
	case "journal":
		return datagen.JournalTitle(cfg), nil
	}
	return nil, fmt.Errorf("unknown dataset family %q", family)
}

// appendClusters returns a's clusters followed by b's, with both truths
// concatenated: a refreshed feed that repeats an earlier upload and
// adds new entities.
func appendClusters(a, b *datagen.Generated) *datagen.Generated {
	ds := &table.Dataset{Name: a.Data.Name, Attrs: a.Data.Attrs}
	ds.Clusters = append(append([]table.Cluster(nil), a.Data.Clusters...), b.Data.Clusters...)
	tr := &table.Truth{
		Canon:  append(append([][][]string(nil), a.Truth.Canon...), b.Truth.Canon...),
		Golden: append(append([][]string(nil), a.Truth.Golden...), b.Truth.Golden...),
	}
	return &datagen.Generated{Data: ds.Clone(), Truth: tr, Col: a.Col}
}

// parseFeed reads the feed's CSV exactly as the server does and checks
// that the result lines up with the generator's layout cell by cell.
func parseFeed(f feed) (*table.Dataset, error) {
	ds, err := table.ReadCSV(bytes.NewReader(f.csv), f.name, "key", "source")
	if err != nil {
		return nil, err
	}
	want := f.gen.Data
	if len(ds.Clusters) != len(want.Clusters) {
		return nil, fmt.Errorf("feed %s: parsed %d clusters, generated %d", f.name, len(ds.Clusters), len(want.Clusters))
	}
	for ci := range ds.Clusters {
		got, exp := ds.Clusters[ci].Records, want.Clusters[ci].Records
		if len(got) != len(exp) {
			return nil, fmt.Errorf("feed %s: cluster %d parsed with %d records, generated %d", f.name, ci, len(got), len(exp))
		}
		for ri := range got {
			for col := range got[ri].Values {
				if got[ri].Values[col] != exp[ri].Values[col] {
					return nil, fmt.Errorf("feed %s: cell (%d,%d,%d) misaligned after parsing", f.name, ci, ri, col)
				}
			}
		}
	}
	return ds, nil
}
