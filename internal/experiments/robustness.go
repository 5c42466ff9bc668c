package experiments

import (
	"github.com/goldrec/goldrec/internal/datagen"
	"github.com/goldrec/goldrec/internal/metrics"
	"github.com/goldrec/goldrec/internal/oracle"
	"github.com/goldrec/goldrec/internal/replace"
)

// RobustnessResult is one error-rate setting of the imperfect-human
// experiment ("our method is robust to small numbers of errors as
// verified in our experiment", Section 1).
type RobustnessResult struct {
	ErrorRate float64
	Flipped   int
	Precision float64
	Recall    float64
	MCC       float64
}

// Robustness sweeps human error rates for the Group method on one
// dataset: each reviewed group's decision is flipped with the given
// probability, and quality is measured against the fixed labeled sample.
func Robustness(gen *datagen.Generated, rates []float64, cfg Config) []RobustnessResult {
	var out []RobustnessResult
	for _, rate := range rates {
		g := gen.Clone()
		budget := cfg.budgetFor(g.Data.Name)
		sample := metrics.Sample(g.Data, g.Truth, g.Col, cfg.sampleN(), cfg.Seed+1)
		o := oracle.New(g.Data, g.Truth, g.Col, oracle.Options{
			ErrorRate: rate,
			ErrorSeed: cfg.Seed,
		})
		runGroup(g, replace.Options{TokenLevel: true}, o, cfg, budget, budget, nil)
		m := metrics.Evaluate(g.Data, sample)
		out = append(out, RobustnessResult{
			ErrorRate: rate,
			Flipped:   o.Flipped,
			Precision: m.Precision(),
			Recall:    m.Recall(),
			MCC:       m.MCC(),
		})
	}
	return out
}
