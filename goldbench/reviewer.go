package main

import (
	"bytes"
	"encoding/csv"
	"fmt"

	"github.com/goldrec/goldrec"
	"github.com/goldrec/goldrec/internal/metrics"
	"github.com/goldrec/goldrec/internal/oracle"
	"github.com/goldrec/goldrec/internal/replace"
	"github.com/goldrec/goldrec/table"
)

// mirror is the simulated reviewer's private copy of one uploaded
// dataset. It takes verdicts from the ground-truth oracle and applies
// every acknowledged decision exactly as the server's session does, so
// at any quiet point the server's exports must equal the mirror's.
type mirror struct {
	f     feed
	ds    *table.Dataset
	col   int
	store *replace.Store
	or    *oracle.Oracle
}

func newMirror(f feed) (*mirror, error) {
	ds, err := parseFeed(f)
	if err != nil {
		return nil, err
	}
	col := ds.ColumnIndex(f.column)
	// The options goldrec.New uses by default: token-level candidates
	// on, default value-length bound.
	st := replace.NewStore(ds, col, replace.Options{TokenLevel: true})
	return &mirror{f: f, ds: ds, col: col, store: st, or: oracle.New(ds, f.gen.Truth, col, oracle.Options{})}, nil
}

// members resolves a served group's pairs to the mirror's candidates.
func (m *mirror) members(g goldrec.GroupState) ([]*replace.Candidate, error) {
	out := make([]*replace.Candidate, 0, len(g.Pairs))
	for _, p := range g.Pairs {
		c := m.store.Lookup(replace.Pair{LHS: p.LHS, RHS: p.RHS})
		if c == nil {
			return nil, fmt.Errorf("group %d: pair %q -> %q is not a candidate of the uploaded data", g.ID, p.LHS, p.RHS)
		}
		out = append(out, c)
	}
	return out, nil
}

// verdict is the oracle's decision on a served group, in the API's
// decision vocabulary.
func (m *mirror) verdict(g goldrec.GroupState) (string, error) {
	mem, err := m.members(g)
	if err != nil {
		return "", err
	}
	d := m.or.VerifyGroup(mem)
	switch {
	case !d.Approved:
		return "reject", nil
	case d.Invert:
		return "approve-backward", nil
	}
	return "approve", nil
}

// apply replays an acknowledged decision on the mirror, member by
// member in the served order, as goldrec.Session does.
func (m *mirror) apply(g goldrec.GroupState, decision string) error {
	if decision == "reject" {
		return nil
	}
	mem, err := m.members(g)
	if err != nil {
		return err
	}
	for _, c := range mem {
		if decision == "approve-backward" {
			if c = m.store.Mirror(c); c == nil {
				continue
			}
		}
		m.store.Apply(c)
	}
	return nil
}

// recordsCSV is the standardized-records export the server must serve.
func (m *mirror) recordsCSV() ([]byte, error) {
	var buf bytes.Buffer
	err := table.WriteCSV(&buf, m.ds, "key")
	return buf.Bytes(), err
}

// goldenCSV is the golden-record export the server must serve: truth
// discovery over the mirror's standardized cells.
func (m *mirror) goldenCSV() ([]byte, error) {
	cons, err := goldrec.New(m.ds.Clone())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write(append([]string{"key"}, m.ds.Attrs...))
	for ci, rec := range cons.GoldenRecords() {
		w.Write(append([]string{m.ds.Clusters[ci].Key}, rec.Values...))
	}
	w.Flush()
	return buf.Bytes(), w.Error()
}

// quality runs the paper's Section 8 protocol on an exported records
// CSV: 1,000 distinct same-cluster value pairs sampled from the
// uploaded data, labeled by ground truth, scored on the exported cells.
func (m *mirror) quality(exported []byte, seed int64) (metrics.Confusion, error) {
	orig, err := parseFeed(m.f)
	if err != nil {
		return metrics.Confusion{}, err
	}
	after, err := table.ReadCSV(bytes.NewReader(exported), m.f.name, "key", "")
	if err != nil {
		return metrics.Confusion{}, fmt.Errorf("parsing records export: %w", err)
	}
	if len(after.Clusters) != len(orig.Clusters) {
		return metrics.Confusion{}, fmt.Errorf("records export has %d clusters, upload had %d", len(after.Clusters), len(orig.Clusters))
	}
	sample := metrics.Sample(orig, m.f.gen.Truth, m.col, 1000, seed)
	return metrics.Evaluate(after, sample), nil
}
