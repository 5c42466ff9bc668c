package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
)

// CSVReader streams records from a clustered CSV one row at a time, so
// ingesting a large upload never buffers more than the rows themselves
// (the goldrecd upload path reads request bodies through it). The first
// row is the header; the column named keyCol is the clustering key (as
// produced by an upstream entity-resolution step); if sourceCol is
// non-empty, that column populates Record.Source and is removed from
// the attribute list.
type CSVReader struct {
	name    string
	cr      *csv.Reader
	header  []string
	attrs   []string
	attrIdx []int
	keyIdx  int
	srcIdx  int
	row     int // last row number read (header = 1), for error messages
}

// NewCSVReader reads the header row and validates the key and source
// columns.
func NewCSVReader(r io.Reader, name, keyCol, sourceCol string) (*CSVReader, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("table: csv %q is empty", name)
	}
	if err != nil {
		return nil, fmt.Errorf("table: reading csv: %w", err)
	}
	s := &CSVReader{name: name, cr: cr, header: header, keyIdx: -1, srcIdx: -1, row: 1}
	for i, h := range header {
		if h == keyCol {
			s.keyIdx = i
		}
		if sourceCol != "" && h == sourceCol {
			s.srcIdx = i
		}
	}
	if s.keyIdx < 0 {
		return nil, fmt.Errorf("table: csv %q has no key column %q", name, keyCol)
	}
	if sourceCol != "" && s.srcIdx < 0 {
		return nil, fmt.Errorf("table: csv %q has no source column %q", name, sourceCol)
	}
	for i, h := range header {
		if i == s.keyIdx || i == s.srcIdx {
			continue
		}
		s.attrs = append(s.attrs, h)
		s.attrIdx = append(s.attrIdx, i)
	}
	return s, nil
}

// Attrs returns the attribute names (the header minus the key and
// source columns).
func (s *CSVReader) Attrs() []string { return s.attrs }

// Next returns the next row's clustering key and record. It returns
// io.EOF after the last row.
func (s *CSVReader) Next() (key string, rec Record, err error) {
	row, err := s.cr.Read()
	if err == io.EOF {
		return "", Record{}, io.EOF
	}
	if err != nil {
		return "", Record{}, fmt.Errorf("table: reading csv: %w", err)
	}
	s.row++
	if len(row) != len(s.header) {
		return "", Record{}, fmt.Errorf("table: csv %q row %d has %d fields, want %d",
			s.name, s.row, len(row), len(s.header))
	}
	rec = Record{Values: make([]string, len(s.attrs))}
	for vi, ci := range s.attrIdx {
		rec.Values[vi] = row[ci]
	}
	if s.srcIdx >= 0 {
		rec.Source = row[s.srcIdx]
	}
	return row[s.keyIdx], rec, nil
}

// ReadCSV reads a dataset from CSV; see CSVReader for the format. Rows
// sharing a key form one cluster; clusters are ordered by key. The rows
// stream through a CSVReader, so only the accumulated records — not a
// second full copy of the raw CSV — are held in memory.
func ReadCSV(r io.Reader, name, keyCol, sourceCol string) (*Dataset, error) {
	s, err := NewCSVReader(r, name, keyCol, sourceCol)
	if err != nil {
		return nil, err
	}
	byKey := make(map[string][]Record)
	for {
		key, rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		byKey[key] = append(byKey[key], rec)
	}

	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	ds := &Dataset{Name: name, Attrs: s.Attrs(), Clusters: make([]Cluster, 0, len(keys))}
	for _, k := range keys {
		ds.Clusters = append(ds.Clusters, Cluster{Key: k, Records: byKey[k]})
	}
	return ds, nil
}

// ReadFlatCSV reads an *unclustered* CSV: the first row is the header,
// every following row one record. If sourceCol is non-empty that column
// populates Record.Source and is dropped from the attributes. Use
// goldrec.Resolve to cluster the records into a Dataset.
func ReadFlatCSV(r io.Reader, name, sourceCol string) (attrs []string, records []Record, err error) {
	cr := csv.NewReader(r)
	// Field counts are checked below, so a ragged row's error names
	// the file, as CSVReader's does.
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("table: reading csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("table: csv %q is empty", name)
	}
	header := rows[0]
	srcIdx := -1
	for i, h := range header {
		if sourceCol != "" && h == sourceCol {
			srcIdx = i
		}
	}
	if sourceCol != "" && srcIdx < 0 {
		return nil, nil, fmt.Errorf("table: csv %q has no source column %q", name, sourceCol)
	}
	var attrIdx []int
	for i, h := range header {
		if i == srcIdx {
			continue
		}
		attrs = append(attrs, h)
		attrIdx = append(attrIdx, i)
	}
	for rn, row := range rows[1:] {
		if len(row) != len(header) {
			return nil, nil, fmt.Errorf("table: csv %q row %d has %d fields, want %d", name, rn+2, len(row), len(header))
		}
		rec := Record{Values: make([]string, len(attrs))}
		for vi, ci := range attrIdx {
			rec.Values[vi] = row[ci]
		}
		if srcIdx >= 0 {
			rec.Source = row[srcIdx]
		}
		records = append(records, rec)
	}
	return attrs, records, nil
}

// WriteCSV writes the dataset as CSV with a leading key column (named
// keyCol) followed by the dataset attributes.
func WriteCSV(w io.Writer, d *Dataset, keyCol string) error {
	cw := csv.NewWriter(w)
	header := append([]string{keyCol}, d.Attrs...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("table: writing csv header: %w", err)
	}
	for ci := range d.Clusters {
		for _, r := range d.Clusters[ci].Records {
			row := append([]string{d.Clusters[ci].Key}, r.Values...)
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("table: writing csv row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
