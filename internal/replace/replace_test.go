package replace

import (
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/goldrec/goldrec/internal/tgraph"
	"github.com/goldrec/goldrec/table"
)

// table1 builds the paper's Table 1 (two clusters, Name and Address).
func table1() *table.Dataset {
	return &table.Dataset{
		Name:  "table1",
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
}

func TestValuePairGeneration(t *testing.T) {
	// Section 3 Step 1: every ordered pair of non-identical values in
	// the same cluster: 2 clusters × 3 distinct values = 12 candidates.
	st := NewStore(table1(), 0, Options{})
	if got := len(st.Candidates()); got != 12 {
		t.Fatalf("candidates = %d, want 12", got)
	}
	c := st.Lookup(Pair{"Mary Lee", "M. Lee"})
	if c == nil {
		t.Fatal("missing candidate Mary Lee→M. Lee")
	}
	if len(c.Sites) != 1 || !c.Sites[0].Whole {
		t.Fatalf("sites = %+v, want one whole-value site", c.Sites)
	}
	if c.Sites[0].Cell != (table.Cell{Cluster: 0, Row: 0, Col: 0}) {
		t.Fatalf("site cell = %+v", c.Sites[0].Cell)
	}
	// Both directions exist.
	if st.Lookup(Pair{"M. Lee", "Mary Lee"}) == nil {
		t.Fatal("missing reverse candidate")
	}
}

func TestTokenPairGeneration(t *testing.T) {
	// Appendix A / Example A.1 on the Address column: "9 St, 02141
	// Wisconsin" vs "9th St, 02141 WI" yields 9→9th, 9th→9,
	// Wisconsin→WI, WI→Wisconsin.
	st := NewStore(table1(), 1, Options{TokenLevel: true})
	for _, p := range []Pair{
		{"9", "9th"}, {"9th", "9"}, {"Wisconsin", "WI"}, {"WI", "Wisconsin"},
	} {
		c := st.Lookup(p)
		if c == nil {
			t.Fatalf("missing token candidate %v", p)
		}
		if len(c.Sites) == 0 {
			t.Fatalf("token candidate %v has no sites", p)
		}
	}
	// The second cluster contributes "Ave,"→"Avenue," (whitespace
	// tokens keep the attached comma) and California→CA.
	if st.Lookup(Pair{"Ave,", "Avenue,"}) == nil {
		t.Fatal("missing Ave,→Avenue,")
	}
	if st.Lookup(Pair{"California", "CA"}) == nil {
		t.Fatal("missing California→CA")
	}
}

func TestTokenSitesRecordSpans(t *testing.T) {
	st := NewStore(table1(), 1, Options{TokenLevel: true})
	c := st.Lookup(Pair{"Wisconsin", "WI"})
	if c == nil {
		t.Fatal("missing Wisconsin→WI")
	}
	s := c.Sites[0]
	if s.Whole {
		t.Fatal("token site marked whole")
	}
	// "9 St, 02141 Wisconsin": Wisconsin is token 3.
	if s.TokBeg != 3 || s.TokEnd != 4 {
		t.Fatalf("token span = [%d,%d), want [3,4)", s.TokBeg, s.TokEnd)
	}
}

func TestApplyWholeValue(t *testing.T) {
	ds := table1()
	st := NewStore(ds, 0, Options{})
	c := st.Lookup(Pair{"Lee, Mary", "Mary Lee"})
	res := st.Apply(c)
	if res.CellsChanged != 1 {
		t.Fatalf("CellsChanged = %d, want 1", res.CellsChanged)
	}
	if got := ds.Clusters[0].Records[2].Values[0]; got != "Mary Lee" {
		t.Fatalf("cell = %q, want \"Mary Lee\"", got)
	}
	// Section 7.1: the replacement v1→v3 becomes v2→v3 and v2→v1 no
	// longer exists. After replacing "Lee, Mary" with "Mary Lee":
	// candidates FROM "Lee, Mary" must be emptied.
	if c2 := st.Lookup(Pair{"Lee, Mary", "M. Lee"}); c2 != nil && len(c2.Sites) != 0 {
		t.Errorf("Lee, Mary→M. Lee should have no sites, has %d", len(c2.Sites))
	}
	// And "Mary Lee"→"M. Lee" now has two sites (rows 0 and 2).
	if c3 := st.Lookup(Pair{"Mary Lee", "M. Lee"}); len(c3.Sites) != 2 {
		t.Errorf("Mary Lee→M. Lee sites = %d, want 2", len(c3.Sites))
	}
	// The emptied ids include the dead candidates.
	dead := st.Lookup(Pair{"Lee, Mary", "M. Lee"})
	found := false
	for _, id := range res.Emptied {
		if id == dead.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("Emptied = %v should include %d", res.Emptied, dead.ID)
	}
}

func TestApplyTokenLevel(t *testing.T) {
	ds := table1()
	st := NewStore(ds, 1, Options{TokenLevel: true})
	c := st.Lookup(Pair{"Wisconsin", "WI"})
	res := st.Apply(c)
	if res.CellsChanged != 1 {
		t.Fatalf("CellsChanged = %d, want 1", res.CellsChanged)
	}
	if got := ds.Clusters[0].Records[0].Values[1]; got != "9 St, 02141 WI" {
		t.Fatalf("cell = %q", got)
	}
}

func TestApplyStaleSiteSkipped(t *testing.T) {
	ds := table1()
	st := NewStore(ds, 0, Options{})
	c := st.Lookup(Pair{"Lee, Mary", "Mary Lee"})
	// Mutate the cell behind the store's back; the site is stale.
	ds.SetValue(table.Cell{Cluster: 0, Row: 2, Col: 0}, "Someone Else")
	res := st.Apply(c)
	if res.CellsChanged != 0 {
		t.Fatalf("CellsChanged = %d, want 0 (stale)", res.CellsChanged)
	}
}

func TestApplyMovesTokenSpanWhenShifted(t *testing.T) {
	ds := &table.Dataset{
		Attrs: []string{"A"},
		Clusters: []table.Cluster{{Records: []table.Record{
			{Values: []string{"E Main Street"}},
			{Values: []string{"East Main St"}},
		}}},
	}
	st := NewStore(ds, 0, Options{TokenLevel: true})
	c := st.Lookup(Pair{"Street", "St"})
	if c == nil {
		t.Fatal("missing Street→St")
	}
	// Shift tokens left by removing the leading token.
	ds.SetValue(table.Cell{Cluster: 0, Row: 0, Col: 0}, "Main Street")
	res := st.Apply(c)
	if res.CellsChanged != 1 {
		t.Fatalf("CellsChanged = %d, want 1", res.CellsChanged)
	}
	if got := ds.Value(table.Cell{Cluster: 0, Row: 0, Col: 0}); got != "Main St" {
		t.Fatalf("cell = %q, want \"Main St\"", got)
	}
}

func TestMirror(t *testing.T) {
	st := NewStore(table1(), 0, Options{})
	c := st.Lookup(Pair{"Mary Lee", "M. Lee"})
	m := st.Mirror(c)
	if m == nil || m.LHS != "M. Lee" || m.RHS != "Mary Lee" {
		t.Fatalf("mirror = %v", m)
	}
}

func TestEmptyValuesSkipped(t *testing.T) {
	ds := &table.Dataset{
		Attrs: []string{"A"},
		Clusters: []table.Cluster{{Records: []table.Record{
			{Values: []string{""}},
			{Values: []string{"x"}},
		}}},
	}
	st := NewStore(ds, 0, Options{})
	if n := len(st.Candidates()); n != 0 {
		t.Fatalf("candidates = %d, want 0 (empty values skipped)", n)
	}
}

// TestValueLengthLimit: a value of exactly tgraph.MaxStringLen runes
// yields candidates, one rune more yields none. é is two bytes, so a
// byte count would reject both.
func TestValueLengthLimit(t *testing.T) {
	atMax := strings.Repeat("é", tgraph.MaxStringLen)
	for _, tc := range []struct {
		v    string
		want int
	}{{atMax, 2}, {atMax + "é", 0}} {
		ds := &table.Dataset{
			Attrs: []string{"A"},
			Clusters: []table.Cluster{{Records: []table.Record{
				{Values: []string{tc.v}},
				{Values: []string{"x"}},
			}}},
		}
		st := NewStore(ds, 0, Options{})
		if n := len(st.Candidates()); n != tc.want {
			t.Errorf("%d-rune value: candidates = %d, want %d",
				utf8.RuneCountInString(tc.v), n, tc.want)
		}
	}
}

func TestSingletonAndUniformClustersProduceNothing(t *testing.T) {
	ds := &table.Dataset{
		Attrs: []string{"A"},
		Clusters: []table.Cluster{
			{Records: []table.Record{{Values: []string{"only"}}}},
			{Records: []table.Record{{Values: []string{"same"}}, {Values: []string{"same"}}}},
		},
	}
	st := NewStore(ds, 0, Options{TokenLevel: true})
	if n := len(st.Candidates()); n != 0 {
		t.Fatalf("candidates = %d, want 0", n)
	}
}

func TestCrossClusterSiteAccumulation(t *testing.T) {
	// The same pair in two clusters shares one candidate with sites
	// from both (that is what makes groups "profitable").
	ds := &table.Dataset{
		Attrs: []string{"A"},
		Clusters: []table.Cluster{
			{Records: []table.Record{{Values: []string{"9 St"}}, {Values: []string{"9th St"}}}},
			{Records: []table.Record{{Values: []string{"9 St"}}, {Values: []string{"9th St"}}}},
		},
	}
	st := NewStore(ds, 0, Options{})
	c := st.Lookup(Pair{"9 St", "9th St"})
	if c == nil || len(c.Sites) != 2 {
		t.Fatalf("candidate = %v, want 2 sites", c)
	}
	res := st.Apply(c)
	if res.CellsChanged != 2 {
		t.Fatalf("CellsChanged = %d, want 2", res.CellsChanged)
	}
}

func TestApplyIsIdempotent(t *testing.T) {
	ds := table1()
	st := NewStore(ds, 0, Options{})
	c := st.Lookup(Pair{"Lee, Mary", "Mary Lee"})
	st.Apply(c)
	res := st.Apply(c)
	if res.CellsChanged != 0 {
		t.Fatalf("second apply changed %d cells, want 0", res.CellsChanged)
	}
}

// TestApplyGroupOrderMatters shows why review order is a policy: "9th"→"9"
// rewrites a cluster-0 cell into "9 Street Boston", the LHS of a
// value-level candidate seen so far only in cluster 1, so that candidate
// gains the cell as a site. Applied after the token pair, the value-level
// candidate rewrites the cell again; applied before, it misses it.
// SortForReview puts the token pair (2 sites) ahead of the value-level
// candidate (1 site), and ApplyGroup applies in the order given.
func TestApplyGroupOrderMatters(t *testing.T) {
	build := func() (*table.Dataset, *Store) {
		ds := &table.Dataset{
			Attrs: []string{"Address"},
			Clusters: []table.Cluster{
				{Records: []table.Record{{Values: []string{"9th Street Boston"}}, {Values: []string{"9 St Boston"}}}},
				{Records: []table.Record{{Values: []string{"9 Street Boston"}}, {Values: []string{"9 St Boston"}}}},
				{Records: []table.Record{{Values: []string{"9th Ave"}}, {Values: []string{"9 Ave"}}}},
			},
		}
		return ds, NewStore(ds, 0, Options{TokenLevel: true})
	}
	tok := Pair{"9th", "9"}
	whole := Pair{"9 Street Boston", "9 St Boston"}
	cell := table.Cell{Cluster: 0, Row: 0, Col: 0}

	ds, st := build()
	group := []*Candidate{st.Lookup(whole), st.Lookup(tok)}
	SortForReview(group)
	if group[0].Pair != tok || group[1].Pair != whole {
		t.Fatalf("review order = %v, want the 2-site token pair first", group)
	}
	res := st.ApplyGroup(group, false)
	if res.PairsApplied != 2 || res.CellsChanged != 4 {
		t.Fatalf("review order: %+v, want 2 pairs and 4 cells", res)
	}
	if got := ds.Value(cell); got != "9 St Boston" {
		t.Fatalf("review order: cell = %q, want \"9 St Boston\"", got)
	}

	ds, st = build()
	res = st.ApplyGroup([]*Candidate{st.Lookup(whole), st.Lookup(tok)}, false)
	if res.CellsChanged != 3 {
		t.Fatalf("reverse order: %+v, want 3 cells", res)
	}
	if got := ds.Value(cell); got != "9 Street Boston" {
		t.Fatalf("reverse order: cell = %q, want \"9 Street Boston\"", got)
	}
}

// TestApplyGroupMirror: the backward approval applies each member's
// mirror and skips members that have none.
func TestApplyGroupMirror(t *testing.T) {
	ds := table1()
	st := NewStore(ds, 0, Options{})
	orphan := &Candidate{ID: -1, Pair: Pair{"no", "mirror"}}
	res := st.ApplyGroup([]*Candidate{st.Lookup(Pair{"Mary Lee", "M. Lee"}), orphan}, true)
	if res.PairsApplied != 1 || res.CellsChanged != 1 {
		t.Fatalf("res = %+v, want 1 pair and 1 cell", res)
	}
	if got := ds.Value(table.Cell{Cluster: 0, Row: 1, Col: 0}); got != "Mary Lee" {
		t.Fatalf("cell = %q, want \"Mary Lee\"", got)
	}
}
