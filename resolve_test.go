package goldrec

import (
	"strings"
	"testing"

	"github.com/goldrec/goldrec/table"
)

func TestResolveByKeyAttr(t *testing.T) {
	attrs := []string{"isbn", "authors"}
	records := []table.Record{
		{Values: []string{"111", "mary lee"}},
		{Values: []string{"222", "james smith"}},
		{Values: []string{"111", "lee, mary"}},
	}
	ds, err := Resolve("books", attrs, records, ResolveOptions{KeyAttr: "isbn"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(ds.Clusters))
	}
	if len(ds.Clusters[0].Records) != 2 {
		t.Errorf("cluster 0 size = %d, want 2", len(ds.Clusters[0].Records))
	}
}

func TestResolveBySimilarity(t *testing.T) {
	attrs := []string{"title"}
	records := []table.Record{
		{Values: []string{"journal of clinical medicine"}},
		{Values: []string{"journal of clinical medicine research"}},
		{Values: []string{"annals of statistics"}},
	}
	ds, err := Resolve("journals", attrs, records, ResolveOptions{MatchAttr: "title", Threshold: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(ds.Clusters))
	}
}

func TestResolveErrors(t *testing.T) {
	if _, err := Resolve("x", []string{"a"}, nil, ResolveOptions{KeyAttr: "missing"}); err == nil {
		t.Error("missing key attr should fail")
	}
	if _, err := Resolve("x", []string{"a"}, nil, ResolveOptions{MatchAttr: "missing"}); err == nil {
		t.Error("missing match attr should fail")
	}
}

func TestResolveThenConsolidate(t *testing.T) {
	// Full front-to-back: flat CSV → resolve → standardize → golden.
	csv := "isbn,authors\n1,mary lee\n1,\"lee, mary\"\n1,mary lee\n2,james smith\n2,\"smith, james\"\n2,james smith\n"
	attrs, records, err := table.ReadFlatCSV(strings.NewReader(csv), "books", "")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Resolve("books", attrs, records, ResolveOptions{KeyAttr: "isbn"})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cons.Column("authors")
	if err != nil {
		t.Fatal(err)
	}
	sess.RunBudget(0, func(g *Group) (bool, Direction) {
		// Approve transpositions toward the space-separated form.
		if strings.Contains(g.Pairs[0].LHS, ",") {
			return true, Forward
		}
		return false, Forward
	})
	golden := cons.GoldenRecords()
	for _, rec := range golden {
		if strings.Contains(rec.Values[1], ",") {
			t.Errorf("golden author list still inverted: %q", rec.Values[1])
		}
	}
}
