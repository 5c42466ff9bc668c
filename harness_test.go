package goldrec

import (
	"testing"

	"github.com/goldrec/goldrec/internal/datagen"
	"github.com/goldrec/goldrec/internal/experiments"
	"github.com/goldrec/goldrec/internal/metrics"
)

// TestHarnessRunsShippedLoop pins the paper harness to the review loop
// the product ships: on the experiments' tiny configurations of all
// three datagen families, RunStandardization(MethodGroup) and a
// Session driven by RunBudget with the oracle verifier must end on the
// same precision, recall and approved-group count over the same
// labelled sample. Both apply an approved group's members through
// replace.SortForReview and replace.Store.ApplyGroup; applying them in
// any other order changes the AuthorList numbers.
func TestHarnessRunsShippedLoop(t *testing.T) {
	cfg := experiments.Config{Seed: 1, Budget: 40, Step: 10, SampleN: 400}
	gens := []*datagen.Generated{
		datagen.Address(datagen.Config{Seed: 1, Clusters: 60}),
		datagen.JournalTitle(datagen.Config{Seed: 1, Clusters: 120}),
		datagen.AuthorList(datagen.Config{Seed: 1, Clusters: 12}),
	}
	for _, gen := range gens {
		t.Run(gen.Data.Name, func(t *testing.T) {
			res := experiments.RunStandardization(gen, experiments.MethodGroup, cfg)
			want := res.Points[len(res.Points)-1]

			g := gen.Clone()
			// RunStandardization's labelled sample: same size, seed and
			// (unstandardized) data.
			sample := metrics.Sample(g.Data, g.Truth, g.Col, cfg.SampleN, cfg.Seed+1)
			cons, err := New(g.Data)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := cons.ColumnIndex(g.Col)
			if err != nil {
				t.Fatal(err)
			}
			sess.RunBudget(cfg.Budget, sess.OracleVerifier(g.Truth, 0))
			got := metrics.Evaluate(g.Data, sample)
			approved := sess.Stats().GroupsApplied
			if got.Precision() != want.Precision || got.Recall() != want.Recall || approved != res.Approved {
				t.Errorf("harness P %.4f R %.4f approved %d; Session P %.4f R %.4f approved %d",
					want.Precision, want.Recall, res.Approved, got.Precision(), got.Recall(), approved)
			}
		})
	}
}
