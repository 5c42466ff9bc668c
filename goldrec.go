// Package goldrec is a Go implementation of unsupervised string
// transformation learning for entity consolidation (Deng et al., 2019).
//
// Given clusters of duplicate records (the output of an entity-resolution
// step), goldrec standardizes variant values — values that are logically
// the same but formatted differently — by (1) enumerating candidate
// replacements inside each cluster, (2) grouping the candidates that
// share a transformation program in a FlashFill-style DSL, without any
// labeled examples, (3) presenting the groups, largest first, to a human
// for batch approval, and (4) applying approved groups and running truth
// discovery to construct one golden record per cluster.
//
// Typical use:
//
//	cons, _ := goldrec.New(dataset)
//	sess, _ := cons.Column("Address")
//	for {
//		g, ok := sess.NextGroup()
//		if !ok {
//			break
//		}
//		if humanApproves(g) {
//			sess.Apply(g, goldrec.Forward)
//		}
//	}
//	golden := cons.GoldenRecords()
//
// Groups handed out by NextGroup carry session-scoped ids, so a remote
// reviewer can return decisions by id through Session.Decide, and
// Session.ReviewState serializes the full review progress. The
// internal/service package and the goldrecd command build a concurrent
// HTTP consolidation service on top of these hooks; docs/goldrecd.md
// walks through its API.
//
// # Concurrency
//
// A Consolidator and its Sessions are not safe for concurrent use by
// multiple goroutines; callers that share one serialize access
// themselves. Sessions on distinct columns of the same dataset are the
// exception: candidate generation and Apply touch only the session's
// own column, so one session per column may run on its own goroutine.
// Do not open two sessions on the same column, and do not call
// GoldenRecords (which reads every column) while any session might be
// applying a group.
package goldrec

import (
	"context"
	"fmt"

	"github.com/goldrec/goldrec/internal/er"
	"github.com/goldrec/goldrec/internal/truth"
	"github.com/goldrec/goldrec/table"
)

// Direction says which way to apply an approved group's replacements.
type Direction int

const (
	// Forward replaces each pair's LHS with its RHS.
	Forward Direction = iota
	// Backward replaces RHS with LHS.
	Backward
)

// Consolidator owns a dataset being consolidated.
type Consolidator struct {
	ds *table.Dataset
}

// New validates the dataset and returns a Consolidator. The dataset is
// standardized in place; Clone it first if the original must survive.
func New(ds *table.Dataset) (*Consolidator, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return &Consolidator{ds: ds}, nil
}

// Dataset returns the underlying (mutable) dataset.
func (c *Consolidator) Dataset() *table.Dataset { return c.ds }

// Column starts a standardization session for the named attribute.
func (c *Consolidator) Column(attr string) (*Session, error) {
	col := c.ds.ColumnIndex(attr)
	if col < 0 {
		return nil, fmt.Errorf("goldrec: dataset %q has no attribute %q", c.ds.Name, attr)
	}
	return c.ColumnIndex(col)
}

// ColumnIndex starts a standardization session for a column by index.
func (c *Consolidator) ColumnIndex(col int) (*Session, error) {
	return c.ColumnIndexWarmCtx(context.Background(), col, nil)
}

// ColumnIndexWarmCtx is ColumnIndex carrying a trace context and a warm
// start. The engine's context_prep phase (candidate extraction and the
// constant scorer's substring index) records as a child span of
// whatever span the context holds. Programs approved on earlier uploads
// (carried in warm, nil for a cold open) pre-decide the candidate
// groups they fully explain before any human review — see WarmStart.
// Warm pre-application records as a library_preapply span under the
// context's span.
func (c *Consolidator) ColumnIndexWarmCtx(ctx context.Context, col int, warm *WarmStart) (*Session, error) {
	if col < 0 || col >= len(c.ds.Attrs) {
		return nil, fmt.Errorf("goldrec: column %d out of range", col)
	}
	return newSession(ctx, c, col, warm), nil
}

// GoldenRecords runs majority-consensus truth discovery on every column
// of the (standardized) dataset and returns one golden record per
// cluster, in cluster order (Algorithm 1, line 10). Columns with a
// frequency tie get an empty value.
func (c *Consolidator) GoldenRecords() []table.Record {
	consByCol := make([][]truth.Consensus, len(c.ds.Attrs))
	for col := range c.ds.Attrs {
		consByCol[col] = truth.MajorityConsensus(c.ds, col)
	}
	return truth.GoldenRecords(c.ds, consByCol)
}

// ResolveOptions configure Resolve, the entity-resolution front end for
// unclustered records.
type ResolveOptions struct {
	// KeyAttr clusters by exact equality of the named attribute (the
	// ISBN/ISSN/EIN style the paper's datasets use). Empty means
	// similarity matching instead.
	KeyAttr string
	// MatchAttr is the attribute compared by Jaccard token similarity
	// when KeyAttr is empty.
	MatchAttr string
	// Threshold is the minimum similarity for a match (0 = 0.6).
	Threshold float64
}

// Resolve clusters unclustered records (for example from
// table.ReadFlatCSV) into a Dataset ready for consolidation. It is a
// baseline entity-resolution step — production systems the paper cites
// (Tamr, Magellan) do this job with far more machinery.
func Resolve(name string, attrs []string, records []table.Record, opts ResolveOptions) (*table.Dataset, error) {
	erOpts := er.Options{KeyCol: -1, Threshold: opts.Threshold}
	if opts.KeyAttr != "" {
		erOpts.KeyCol = indexOf(attrs, opts.KeyAttr)
		if erOpts.KeyCol < 0 {
			return nil, fmt.Errorf("goldrec: no attribute %q to resolve by", opts.KeyAttr)
		}
	} else {
		erOpts.MatchCol = indexOf(attrs, opts.MatchAttr)
		if erOpts.MatchCol < 0 {
			return nil, fmt.Errorf("goldrec: no attribute %q to match on", opts.MatchAttr)
		}
	}
	erRecs := make([]er.Record, len(records))
	for i, r := range records {
		erRecs[i] = er.Record{Source: r.Source, Values: r.Values}
	}
	clusters := er.Resolve(erRecs, erOpts)
	ds := &table.Dataset{Name: name, Attrs: attrs}
	for i, cl := range clusters {
		c := table.Cluster{Key: fmt.Sprintf("er-%05d", i)}
		for _, ri := range cl {
			c.Records = append(c.Records, records[ri])
		}
		ds.Clusters = append(ds.Clusters, c)
	}
	return ds, ds.Validate()
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
