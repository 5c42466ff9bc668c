package goldrec

// One benchmark per table and figure of the paper's evaluation
// (Section 8). Each bench runs the corresponding experiment harness at a
// reduced scale (benchmarks must terminate in seconds, and the prune-free
// OneShot arm of Figure 9 is deliberately exponential) and reports the
// headline quantity as a custom metric, so `go test -bench=.` regenerates
// the whole evaluation. cmd/benchrunner produces the full-size versions.

import (
	"testing"

	"github.com/goldrec/goldrec/internal/datagen"
	"github.com/goldrec/goldrec/internal/experiments"
)

func benchCfg() experiments.Config {
	return experiments.Config{Seed: 42, Budget: 40, Step: 10, SampleN: 500}
}

func benchAddress() *datagen.Generated {
	return datagen.Address(datagen.Config{Seed: 42, Clusters: 40})
}

func benchAuthors() *datagen.Generated {
	return datagen.AuthorList(datagen.Config{Seed: 42, Clusters: 16})
}

func benchJournals() *datagen.Generated {
	return datagen.JournalTitle(datagen.Config{Seed: 42, Clusters: 100})
}

func lastPoint(r experiments.StandResult) experiments.Point {
	return r.Points[len(r.Points)-1]
}

// BenchmarkFigure6Precision regenerates the precision sweep of Figure 6
// (Group vs Single vs Trifacta) on the Address dataset.
func BenchmarkFigure6Precision(b *testing.B) {
	g := benchAddress()
	for i := 0; i < b.N; i++ {
		group := experiments.RunStandardization(g, experiments.MethodGroup, benchCfg())
		single := experiments.RunStandardization(g, experiments.MethodSingle, benchCfg())
		trifacta := experiments.RunStandardization(g, experiments.MethodTrifacta, benchCfg())
		b.ReportMetric(lastPoint(group).Precision, "group-precision")
		b.ReportMetric(lastPoint(single).Precision, "single-precision")
		b.ReportMetric(lastPoint(trifacta).Precision, "trifacta-precision")
	}
}

// BenchmarkFigure7Recall regenerates the recall sweep of Figure 7.
func BenchmarkFigure7Recall(b *testing.B) {
	g := benchJournals()
	for i := 0; i < b.N; i++ {
		group := experiments.RunStandardization(g, experiments.MethodGroup, benchCfg())
		single := experiments.RunStandardization(g, experiments.MethodSingle, benchCfg())
		trifacta := experiments.RunStandardization(g, experiments.MethodTrifacta, benchCfg())
		b.ReportMetric(lastPoint(group).Recall, "group-recall")
		b.ReportMetric(lastPoint(single).Recall, "single-recall")
		b.ReportMetric(lastPoint(trifacta).Recall, "trifacta-recall")
	}
}

// BenchmarkFigure8MCC regenerates the MCC sweep of Figure 8.
func BenchmarkFigure8MCC(b *testing.B) {
	g := benchAddress()
	for i := 0; i < b.N; i++ {
		group := experiments.RunStandardization(g, experiments.MethodGroup, benchCfg())
		single := experiments.RunStandardization(g, experiments.MethodSingle, benchCfg())
		trifacta := experiments.RunStandardization(g, experiments.MethodTrifacta, benchCfg())
		b.ReportMetric(lastPoint(group).MCC, "group-mcc")
		b.ReportMetric(lastPoint(single).MCC, "single-mcc")
		b.ReportMetric(lastPoint(trifacta).MCC, "trifacta-mcc")
	}
}

// BenchmarkFigure9GroupingTime regenerates the upfront-vs-incremental
// grouping cost comparison on a micro dataset (the OneShot arm is the
// paper's 4900-second baseline, scaled down).
func BenchmarkFigure9GroupingTime(b *testing.B) {
	g := datagen.JournalTitle(datagen.Config{Seed: 42, Clusters: 14})
	for i := 0; i < b.N; i++ {
		res := experiments.RunGroupingTime(g, 5, benchCfg(), false)
		b.ReportMetric(float64(res.OneShotUpfront.Microseconds()), "oneshot-upfront-us")
		b.ReportMetric(float64(res.EarlyTermUpfront.Microseconds()), "earlyterm-upfront-us")
		if len(res.IncrementalPerCall) > 0 {
			b.ReportMetric(float64(res.IncrementalPerCall[0].Microseconds()), "incremental-first-us")
		}
	}
}

// BenchmarkFigure10Affix regenerates the affix ablation recall.
func BenchmarkFigure10Affix(b *testing.B) {
	g := benchAddress()
	for i := 0; i < b.N; i++ {
		res := experiments.Figure10([]*datagen.Generated{g}, benchCfg())
		b.ReportMetric(lastPoint(res[0]).Recall, "affix-recall")
		b.ReportMetric(lastPoint(res[1]).Recall, "noaffix-recall")
	}
}

// BenchmarkTable4SampleGroups regenerates the sample-group listing from
// the AuthorList dataset.
func BenchmarkTable4SampleGroups(b *testing.B) {
	g := benchAuthors()
	for i := 0; i < b.N; i++ {
		groups := experiments.SampleGroups(g, 5, 5, benchCfg())
		if len(groups) > 0 {
			b.ReportMetric(float64(groups[0].Size), "largest-group")
		}
	}
}

// BenchmarkTable6DatasetStats regenerates the dataset-details table.
func BenchmarkTable6DatasetStats(b *testing.B) {
	gens := []*datagen.Generated{benchAuthors(), benchAddress(), benchJournals()}
	for i := 0; i < b.N; i++ {
		stats := experiments.Table6(gens, benchCfg())
		b.ReportMetric(stats[1].VariantShare, "address-variant-share")
		b.ReportMetric(stats[2].VariantShare, "journal-variant-share")
	}
}

// BenchmarkTable8TruthDiscovery regenerates the majority-consensus
// precision improvement.
func BenchmarkTable8TruthDiscovery(b *testing.B) {
	gens := []*datagen.Generated{benchJournals()}
	for i := 0; i < b.N; i++ {
		res := experiments.Table8(gens, benchCfg())
		b.ReportMetric(res[0].Before, "mc-before")
		b.ReportMetric(res[0].After, "mc-after")
	}
}

// BenchmarkAblationConstantPruning regenerates the static-order ablation
// of the engine's design choices (experiments.Ablations).
func BenchmarkAblationConstantPruning(b *testing.B) {
	g := datagen.Address(datagen.Config{Seed: 42, Clusters: 12})
	cfg := benchCfg()
	cfg.Budget = 15
	for i := 0; i < b.N; i++ {
		res := experiments.Ablations(g, cfg)
		for _, r := range res {
			if r.Name == "paper-default" {
				b.ReportMetric(r.Recall, "default-recall")
			}
		}
	}
}

// BenchmarkPipelineEndToEnd measures the full library path a downstream
// user takes: candidate generation, incremental grouping with a budget,
// application, truth discovery.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gen := datagen.Address(datagen.Config{Seed: 42, Clusters: 30})
		cons, err := New(gen.Data)
		if err != nil {
			b.Fatal(err)
		}
		sess, err := cons.ColumnIndex(gen.Col)
		if err != nil {
			b.Fatal(err)
		}
		sess.RunBudget(30, sess.OracleVerifier(gen.Truth, 0))
		_ = cons.GoldenRecords()
	}
}
