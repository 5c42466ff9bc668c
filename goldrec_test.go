package goldrec

import (
	"testing"

	"github.com/goldrec/goldrec/internal/datagen"
	"github.com/goldrec/goldrec/table"
)

// paperTable1 reproduces Table 1 with its ground truth: the Name values
// of each cluster are all variants; in Address, r4 conflicts with r5/r6.
func paperTable1() (*table.Dataset, *table.Truth) {
	ds := &table.Dataset{
		Name:  "paper-example",
		Attrs: []string{"Name", "Address"},
		Clusters: []table.Cluster{
			{Key: "C1", Records: []table.Record{
				{Values: []string{"Mary Lee", "9 St, 02141 Wisconsin"}},
				{Values: []string{"M. Lee", "9th St, 02141 WI"}},
				{Values: []string{"Lee, Mary", "9 Street, 02141 WI"}},
			}},
			{Key: "C2", Records: []table.Record{
				{Values: []string{"Smith, James", "5th St, 22701 California"}},
				{Values: []string{"James Smith", "3rd E Ave, 33990 California"}},
				{Values: []string{"J. Smith", "3 E Avenue, 33990 CA"}},
			}},
		},
	}
	tr := table.NewTruth(ds)
	for ri := 0; ri < 3; ri++ {
		tr.Canon[0][ri][0] = "Mary Lee"
		tr.Canon[0][ri][1] = "9th Street, 02141 WI"
		tr.Canon[1][ri][0] = "James Smith"
		tr.Canon[1][ri][1] = "3rd E Avenue, 33990 CA"
	}
	tr.Canon[1][0][1] = "5th Street, 22701 CA" // r4 is a different address
	tr.Golden[0] = []string{"Mary Lee", "9th Street, 02141 WI"}
	tr.Golden[1] = []string{"James Smith", "3rd E Avenue, 33990 CA"}
	return ds, tr
}

// TestQuickstartTables runs the full Figure 1 pipeline: Table 1 →
// standardization (Table 2) → golden records (Table 3).
func TestQuickstartTables(t *testing.T) {
	ds, tr := paperTable1()
	cons, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, attr := range []string{"Name", "Address"} {
		sess, err := cons.Column(attr)
		if err != nil {
			t.Fatal(err)
		}
		sess.RunBudget(0, sess.OracleVerifier(tr, 0))
	}

	// Table 2: names standardized within clusters.
	for ci, want := range []string{"Mary Lee", "James Smith"} {
		for ri := range ds.Clusters[ci].Records {
			if got := ds.Clusters[ci].Records[ri].Values[0]; got != want {
				t.Errorf("cluster %d row %d Name = %q, want %q", ci, ri, got, want)
			}
		}
	}
	// Table 2 addresses: cluster 1 unifies to "9th Street, 02141 WI";
	// in cluster 2, r5 and r6 unify while the conflicting r4 keeps its
	// own address.
	for ri := 0; ri < 3; ri++ {
		if got := ds.Clusters[0].Records[ri].Values[1]; got != "9th Street, 02141 WI" {
			t.Errorf("cluster 0 row %d Address = %q, want \"9th Street, 02141 WI\"", ri, got)
		}
	}
	if got := ds.Clusters[1].Records[1].Values[1]; got != "3rd E Avenue, 33990 CA" {
		t.Errorf("r5 Address = %q, want \"3rd E Avenue, 33990 CA\"", got)
	}
	if got := ds.Clusters[1].Records[2].Values[1]; got != "3rd E Avenue, 33990 CA" {
		t.Errorf("r6 Address = %q, want \"3rd E Avenue, 33990 CA\"", got)
	}
	if got := ds.Clusters[1].Records[0].Values[1]; got == "3rd E Avenue, 33990 CA" {
		t.Errorf("r4 Address was corrupted to the other address: %q", got)
	}

	// Table 3: golden records via majority consensus.
	golden := cons.GoldenRecords()
	if golden[0].Values[0] != "Mary Lee" || golden[0].Values[1] != "9th Street, 02141 WI" {
		t.Errorf("golden C1 = %v", golden[0].Values)
	}
	if golden[1].Values[0] != "James Smith" || golden[1].Values[1] != "3rd E Avenue, 33990 CA" {
		t.Errorf("golden C2 = %v", golden[1].Values)
	}
}

func TestNewValidates(t *testing.T) {
	bad := &table.Dataset{Attrs: []string{"A"}, Clusters: []table.Cluster{
		{Records: []table.Record{{Values: []string{"x", "extra"}}}},
	}}
	if _, err := New(bad); err == nil {
		t.Error("New should reject malformed datasets")
	}
	if _, err := New(&table.Dataset{}); err == nil {
		t.Error("New should reject attribute-less datasets")
	}
}

func TestColumnLookup(t *testing.T) {
	ds, _ := paperTable1()
	cons, _ := New(ds)
	if _, err := cons.Column("Nope"); err == nil {
		t.Error("unknown attribute should error")
	}
	if _, err := cons.ColumnIndex(9); err == nil {
		t.Error("out-of-range column should error")
	}
	if _, err := cons.ColumnIndex(1); err != nil {
		t.Error(err)
	}
}

// TestGroupsPreview: the first groups NextGroup hands out come largest
// first, rendered, and with sites.
func TestGroupsPreview(t *testing.T) {
	ds, _ := paperTable1()
	cons, _ := New(ds)
	sess, _ := cons.Column("Name")
	var groups []*Group
	for len(groups) < 3 {
		g, ok := sess.NextGroup()
		if !ok {
			break
		}
		groups = append(groups, g)
	}
	if len(groups) != 3 {
		t.Fatalf("NextGroup issued %d groups, want 3", len(groups))
	}
	for i := 1; i < len(groups); i++ {
		if groups[i].Size() > groups[i-1].Size() {
			t.Error("groups not sorted by size")
		}
	}
	if groups[0].Program == "" || groups[0].Structure == "" {
		t.Error("group missing program/structure rendering")
	}
	if groups[0].TotalSites() <= 0 {
		t.Error("group has no sites")
	}
}

func TestSessionStats(t *testing.T) {
	ds, tr := paperTable1()
	cons, _ := New(ds)
	sess, _ := cons.Column("Name")
	sess.RunBudget(2, sess.OracleVerifier(tr, 0))
	st := sess.Stats()
	if st.Candidates == 0 || st.GroupsSeen != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.GroupsApplied == 0 || st.CellsChanged == 0 {
		t.Errorf("stats = %+v: expected some applications", st)
	}
}

func TestEndToEndOnSyntheticAddress(t *testing.T) {
	// A small generated Address dataset: the budgeted oracle loop must
	// push recall well above zero at perfect-ish precision.
	g := datagen.Address(datagen.Config{Seed: 9, Clusters: 30})
	cons, err := New(g.Data)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cons.ColumnIndex(g.Col)
	if err != nil {
		t.Fatal(err)
	}
	reviewed := sess.RunBudget(40, sess.OracleVerifier(g.Truth, 0))
	if reviewed == 0 {
		t.Fatal("no groups reviewed")
	}
	stats := sess.Stats()
	if stats.CellsChanged == 0 {
		t.Fatal("standardization changed nothing")
	}
}

func TestBackwardDirection(t *testing.T) {
	ds := &table.Dataset{
		Attrs: []string{"A"},
		Clusters: []table.Cluster{
			{Records: []table.Record{{Values: []string{"9th"}}, {Values: []string{"9"}}}},
		},
	}
	cons, _ := New(ds)
	sess, _ := cons.ColumnIndex(0)
	for {
		g, ok := sess.NextGroup()
		if !ok {
			break
		}
		// Find the group containing 9th→9 and apply it backward.
		if g.Pairs[0].LHS == "9th" && g.Pairs[0].RHS == "9" {
			sess.Apply(g, Backward)
		}
	}
	if got := ds.Clusters[0].Records[1].Values[0]; got != "9th" {
		t.Errorf("cell = %q, want \"9th\" after backward apply", got)
	}
}
