package oracle

import (
	"testing"

	"github.com/goldrec/goldrec/internal/replace"
	"github.com/goldrec/goldrec/table"
)

// fixture: one cluster where "9 St" and "9th St" are variants of the
// canonical "9th Street", and "5 Ave" is a different address entirely.
func fixture() (*table.Dataset, *table.Truth) {
	ds := &table.Dataset{
		Attrs: []string{"A"},
		Clusters: []table.Cluster{
			{Records: []table.Record{
				{Values: []string{"9 St"}},
				{Values: []string{"9th St"}},
				{Values: []string{"5 Ave"}},
			}},
			{Records: []table.Record{
				{Values: []string{"3 St"}},
				{Values: []string{"3rd St"}},
			}},
		},
	}
	tr := table.NewTruth(ds)
	tr.Canon[0][0][0] = "9th Street"
	tr.Canon[0][1][0] = "9th Street"
	tr.Canon[0][2][0] = "5th Avenue"
	tr.Canon[1][0][0] = "3rd Street"
	tr.Canon[1][1][0] = "3rd Street"
	tr.Golden[0][0] = "9th Street"
	tr.Golden[1][0] = "3rd Street"
	return ds, tr
}

func TestPairIsVariant(t *testing.T) {
	ds, tr := fixture()
	st := replace.NewStore(ds, 0, replace.Options{TokenLevel: true})
	o := New(ds, tr, 0, Options{})
	if !o.PairIsVariant(st.Lookup(replace.Pair{LHS: "9 St", RHS: "9th St"})) {
		t.Error("9 St→9th St should be a variant pair")
	}
	if o.PairIsVariant(st.Lookup(replace.Pair{LHS: "9 St", RHS: "5 Ave"})) {
		t.Error("9 St→5 Ave should be a conflict pair")
	}
	// Token-level pair 9→9th is a variant too.
	if c := st.Lookup(replace.Pair{LHS: "9", RHS: "9th"}); c == nil {
		t.Fatal("missing token pair")
	} else if !o.PairIsVariant(c) {
		t.Error("9→9th should be a variant pair")
	}
}

func TestVerifyGroupApprovesVariantGroups(t *testing.T) {
	ds, tr := fixture()
	st := replace.NewStore(ds, 0, replace.Options{TokenLevel: true})
	o := New(ds, tr, 0, Options{})
	d := o.VerifyGroup([]*replace.Candidate{
		st.Lookup(replace.Pair{LHS: "9", RHS: "9th"}),
		st.Lookup(replace.Pair{LHS: "3", RHS: "3rd"}),
	})
	if !d.Approved {
		t.Fatalf("decision = %+v, want approved", d)
	}
	if d.Invert {
		t.Error("direction should be 9→9th (toward the canonical suffix form)")
	}
	if d.VariantFrac != 1 {
		t.Errorf("VariantFrac = %v, want 1", d.VariantFrac)
	}
	if o.Approved != 1 || o.Rejected != 0 {
		t.Errorf("tallies = %d/%d", o.Approved, o.Rejected)
	}
}

func TestVerifyGroupRejectsConflictGroups(t *testing.T) {
	ds, tr := fixture()
	st := replace.NewStore(ds, 0, replace.Options{})
	o := New(ds, tr, 0, Options{})
	d := o.VerifyGroup([]*replace.Candidate{
		st.Lookup(replace.Pair{LHS: "9 St", RHS: "5 Ave"}),
		st.Lookup(replace.Pair{LHS: "5 Ave", RHS: "9 St"}),
	})
	if d.Approved {
		t.Fatalf("decision = %+v, want rejected", d)
	}
	if o.Rejected != 1 {
		t.Errorf("rejected tally = %d", o.Rejected)
	}
}

func TestVerifyGroupDirectionInverts(t *testing.T) {
	ds, tr := fixture()
	st := replace.NewStore(ds, 0, replace.Options{TokenLevel: true})
	o := New(ds, tr, 0, Options{})
	// The group is oriented away from the canonical form: 9th→9 and
	// 3rd→3. The oracle must request inversion.
	d := o.VerifyGroup([]*replace.Candidate{
		st.Lookup(replace.Pair{LHS: "9th", RHS: "9"}),
		st.Lookup(replace.Pair{LHS: "3rd", RHS: "3"}),
	})
	if !d.Approved {
		t.Fatalf("decision = %+v, want approved", d)
	}
	if !d.Invert {
		t.Error("direction should be inverted (toward 9th/3rd)")
	}
}

func TestVerifyGroupThreshold(t *testing.T) {
	ds, tr := fixture()
	st := replace.NewStore(ds, 0, replace.Options{})
	// With a strict threshold a half-variant group is rejected.
	o := New(ds, tr, 0, Options{ApproveThreshold: 0.9})
	d := o.VerifyGroup([]*replace.Candidate{
		st.Lookup(replace.Pair{LHS: "9 St", RHS: "9th St"}), // variant
		st.Lookup(replace.Pair{LHS: "9 St", RHS: "5 Ave"}),  // conflict
	})
	if d.Approved {
		t.Fatalf("decision = %+v, want rejected at 0.9 threshold", d)
	}
	// The default 0.5 threshold approves it ("robust to small numbers
	// of errors").
	o2 := New(ds, tr, 0, Options{})
	if d := o2.VerifyGroup([]*replace.Candidate{
		st.Lookup(replace.Pair{LHS: "9 St", RHS: "9th St"}),
		st.Lookup(replace.Pair{LHS: "9 St", RHS: "5 Ave"}),
	}); !d.Approved {
		t.Fatalf("decision = %+v, want approved at 0.5", d)
	}
}

func TestEmptyGroupRejected(t *testing.T) {
	ds, tr := fixture()
	o := New(ds, tr, 0, Options{})
	if d := o.VerifyGroup(nil); d.Approved {
		t.Error("empty group should be rejected")
	}
}
