package table

import (
	"io"
	"strings"
	"testing"
)

// TestCSVReaderStreams drives the row-streaming reader directly: header
// parsing, per-row records, source extraction and EOF.
func TestCSVReaderStreams(t *testing.T) {
	in := `key,src,Name,Address
C1,a,Mary Lee,"9 St, 02141"
C2,b,James Smith,5th St
C1,c,M. Lee,9th St
`
	s, err := NewCSVReader(strings.NewReader(in), "t", "key", "src")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Attrs(); len(got) != 2 || got[0] != "Name" || got[1] != "Address" {
		t.Fatalf("attrs = %v", got)
	}
	type row struct {
		key, src, name, addr string
	}
	want := []row{
		{"C1", "a", "Mary Lee", "9 St, 02141"},
		{"C2", "b", "James Smith", "5th St"},
		{"C1", "c", "M. Lee", "9th St"},
	}
	for i, w := range want {
		key, rec, err := s.Next()
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if key != w.key || rec.Source != w.src || rec.Values[0] != w.name || rec.Values[1] != w.addr {
			t.Fatalf("row %d = key=%q rec=%+v, want %+v", i, key, rec, w)
		}
	}
	if _, _, err := s.Next(); err != io.EOF {
		t.Fatalf("after last row: %v, want io.EOF", err)
	}
	// EOF is sticky.
	if _, _, err := s.Next(); err != io.EOF {
		t.Fatalf("second read after EOF: %v", err)
	}
}

func TestCSVReaderErrors(t *testing.T) {
	if _, err := NewCSVReader(strings.NewReader(""), "t", "key", ""); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := NewCSVReader(strings.NewReader("a,b\n"), "t", "key", ""); err == nil {
		t.Error("missing key column accepted")
	}
	if _, err := NewCSVReader(strings.NewReader("key,b\n"), "t", "key", "src"); err == nil {
		t.Error("missing source column accepted")
	}

	// A short row surfaces as an error on that row, not at open time.
	s, err := NewCSVReader(strings.NewReader("key,a,b\nC1,x,y\nC2,x\n"), "t", "key", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Next(); err != nil {
		t.Fatalf("good row: %v", err)
	}
	if _, _, err := s.Next(); err == nil || !strings.Contains(err.Error(), "row 3") {
		t.Fatalf("short row error = %v, want row 3 mentioned", err)
	}
}

// TestReadFlatCSVRaggedRow: a row with the wrong field count fails with
// an error naming the file and the row.
func TestReadFlatCSVRaggedRow(t *testing.T) {
	_, _, err := ReadFlatCSV(strings.NewReader("a,b\nx,y\nz\n"), "flat.csv", "")
	want := `table: csv "flat.csv" row 3 has 1 fields, want 2`
	if err == nil || err.Error() != want {
		t.Fatalf("ragged row error = %v, want %q", err, want)
	}
}

// TestReadCSVStreamsEquivalence checks the streaming ReadCSV produces
// the same dataset as before: clusters ordered by key, rows in input
// order within a cluster.
func TestReadCSVStreamsEquivalence(t *testing.T) {
	in := `key,Name
B,b1
A,a1
B,b2
`
	ds, err := ReadCSV(strings.NewReader(in), "t", "key", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Clusters) != 2 || ds.Clusters[0].Key != "A" || ds.Clusters[1].Key != "B" {
		t.Fatalf("clusters = %+v", ds.Clusters)
	}
	if len(ds.Clusters[1].Records) != 2 || ds.Clusters[1].Records[0].Values[0] != "b1" {
		t.Fatalf("cluster B = %+v", ds.Clusters[1])
	}
}
