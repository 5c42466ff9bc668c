// Package oracle simulates the human expert of Section 3 Step 3: it
// inspects a replacement group, marks it approved or rejected, and picks
// the replacement direction. The simulation uses per-cell ground truth:
// a member pair is a true variant when the cells it was generated from
// carry the same logical value.
//
// Like the paper's human, the oracle approves a group when "most or all"
// member pairs are true variants (the threshold is configurable; the
// method is robust to small error rates). It inspects every member pair.
package oracle

import (
	"math/rand"
	"strings"

	"github.com/goldrec/goldrec/internal/align"
	"github.com/goldrec/goldrec/internal/replace"
	"github.com/goldrec/goldrec/table"
)

// Decision is the oracle's verdict on one group.
type Decision struct {
	// Approved mirrors the human's correct/incorrect call.
	Approved bool
	// Invert is true when the approved replacement should be applied
	// right-to-left (the expert "specifies the replacement direction").
	Invert bool
	// VariantFrac is the fraction of inspected member pairs that are
	// true variants (diagnostic).
	VariantFrac float64
}

// Options tune the oracle.
type Options struct {
	// ApproveThreshold is the minimum variant fraction for approval
	// (default 0.5).
	ApproveThreshold float64
	// ErrorRate flips each group decision with this probability — the
	// imperfect-human robustness experiment the paper reports ("our
	// method is robust to small numbers of errors").
	ErrorRate float64
	// ErrorSeed drives the decision-flip randomness deterministically.
	ErrorSeed int64
}

// Oracle verifies groups for one column of a dataset against ground
// truth.
type Oracle struct {
	ds   *table.Dataset
	tr   *table.Truth
	col  int
	opts Options
	rng  *rand.Rand
	// Decisions made so far (the paper reports approved counts).
	Approved, Rejected int
	// Flipped counts decisions inverted by the error injection.
	Flipped int
}

// New builds an oracle.
func New(ds *table.Dataset, tr *table.Truth, col int, opts Options) *Oracle {
	if opts.ApproveThreshold <= 0 {
		opts.ApproveThreshold = 0.5
	}
	o := &Oracle{ds: ds, tr: tr, col: col, opts: opts}
	if opts.ErrorRate > 0 {
		o.rng = rand.New(rand.NewSource(opts.ErrorSeed + 1))
	}
	return o
}

// PairIsVariant labels one candidate replacement: the pair of strings is
// a true variant when *some* generating context witnesses it — a site
// cell A and a partner cell B in the same cluster carrying the same
// logical value, such that performing the replacement at A moves its
// value strictly closer to B's. Existence (not majority) matches the
// human's judgment of the pair itself — "are 'Georgia' and 'GA' the same
// thing?" — even when the cluster also contains conflicting records; the
// strict-progress requirement rejects junk segments (such as a pair that
// would splice another author's name into a shorter list) that merely
// share tokens with unrelated same-entity records.
func (o *Oracle) PairIsVariant(c *replace.Candidate) bool {
	for _, site := range c.Sites {
		cur := o.ds.Value(site.Cell)
		after, ok := simulateApply(cur, c, site)
		if !ok {
			continue
		}
		ci := site.Cell.Cluster
		cl := &o.ds.Clusters[ci]
		for ri := range cl.Records {
			if ri == site.Cell.Row {
				continue
			}
			partner := table.Cell{Cluster: ci, Row: ri, Col: o.col}
			if !o.tr.Variant(site.Cell, partner) {
				continue
			}
			pv := o.ds.Value(partner)
			d0 := align.DamerauLevenshtein([]rune(cur), []rune(pv))
			d1 := align.DamerauLevenshtein([]rune(after), []rune(pv))
			if d1 < d0 {
				return true
			}
		}
	}
	return false
}

// VerifyGroup inspects a group's member candidates and returns the
// decision. It records the approve/reject tally.
func (o *Oracle) VerifyGroup(members []*replace.Candidate) Decision {
	variants := 0
	for _, c := range members {
		if o.PairIsVariant(c) {
			variants++
		}
	}
	frac := 0.0
	if len(members) > 0 {
		frac = float64(variants) / float64(len(members))
	}
	d := Decision{VariantFrac: frac}
	if frac >= o.opts.ApproveThreshold && variants > 0 {
		d.Approved = true
		d.Invert = o.preferInvert(members)
	}
	if o.rng != nil && o.rng.Float64() < o.opts.ErrorRate {
		d.Approved = !d.Approved
		o.Flipped++
		if d.Approved {
			// A mistakenly approved group still gets a direction.
			d.Invert = o.preferInvert(members)
		}
	}
	if d.Approved {
		o.Approved++
	} else {
		o.Rejected++
	}
	return d
}

// preferInvert picks the replacement direction: for every site it
// simulates the forward application and checks whether the cell moves
// toward or away from its canonical rendering (by edit distance). The
// human replaces the variant with the standard form, not the other way
// around; measuring distance rather than exact equality also directs
// pairs where neither side is fully canonical yet.
func (o *Oracle) preferInvert(members []*replace.Candidate) bool {
	toward, away := 0, 0
	for _, c := range members {
		for _, site := range c.Sites {
			cur := o.ds.Value(site.Cell)
			after, ok := simulateApply(cur, c, site)
			if !ok {
				continue
			}
			canon := o.tr.CanonOf(table.Cell{
				Cluster: site.Cell.Cluster, Row: site.Cell.Row, Col: o.col,
			})
			d0 := align.DamerauLevenshtein([]rune(cur), []rune(canon))
			d1 := align.DamerauLevenshtein([]rune(after), []rune(canon))
			switch {
			case d1 < d0:
				toward++
			case d1 > d0:
				away++
			}
		}
	}
	return away > toward
}

// simulateApply computes the value a site would hold after the forward
// replacement, without mutating anything.
func simulateApply(cur string, c *replace.Candidate, site replace.Site) (string, bool) {
	if site.Whole {
		if cur != c.LHS {
			return "", false
		}
		return c.RHS, true
	}
	toks := strings.Fields(cur)
	lhs := strings.Fields(c.LHS)
	if site.TokBeg < 0 || site.TokEnd > len(toks) || site.TokBeg >= site.TokEnd {
		return "", false
	}
	for k := range lhs {
		if site.TokBeg+k >= len(toks) || toks[site.TokBeg+k] != lhs[k] {
			return "", false
		}
	}
	out := make([]string, 0, len(toks))
	out = append(out, toks[:site.TokBeg]...)
	out = append(out, strings.Fields(c.RHS)...)
	out = append(out, toks[site.TokBeg+len(lhs):]...)
	return strings.Join(out, " "), true
}
