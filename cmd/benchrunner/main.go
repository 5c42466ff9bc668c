// Command benchrunner regenerates the paper's tables and figures on the
// synthetic datasets. Each experiment prints the same rows/series the
// paper reports.
//
// Usage:
//
//	benchrunner -experiment all
//	benchrunner -experiment figure7 -scale 2 -seed 7
//	benchrunner -experiment figure9 -skip-oneshot
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"github.com/goldrec/goldrec/internal/datagen"
	"github.com/goldrec/goldrec/internal/experiments"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "one of: all, figure6, figure7, figure8, figure9, figure10, table4, table6, table8, ablation")
		seed        = flag.Int64("seed", 42, "random seed for data generation and sampling")
		scale       = flag.Float64("scale", 1, "dataset size multiplier")
		budget      = flag.Int("budget", 0, "human budget override (0 = paper defaults: 200/100/100)")
		step        = flag.Int("step", 0, "checkpoint step (0 = budget/10)")
		sampleN     = flag.Int("sample", 1000, "labeled sample size")
		skipOneShot = flag.Bool("skip-oneshot", false, "skip the exponential OneShot arm of figure9")
		incCalls    = flag.Int("k", 20, "incremental invocations timed in figure9")
		fig9Scale   = flag.Float64("figure9-scale", 0.15, "extra downscale for figure9 (OneShot is deliberately slow)")
	)
	flag.Parse()

	cfg := experiments.Config{
		Seed:    *seed,
		Scale:   *scale,
		Budget:  *budget,
		Step:    *step,
		SampleN: *sampleN,
	}

	switch *experiment {
	case "all":
		runFigures678(cfg, "precision", "recall", "mcc")
		runFigure9(cfg, *fig9Scale, *incCalls, *skipOneShot)
		runFigure10(cfg)
		runTable4(cfg)
		runTable6(cfg)
		runTable8(cfg)
		runAblation(cfg)
		runRobustness(cfg)
	case "figure6":
		runFigures678(cfg, "precision")
	case "figure7":
		runFigures678(cfg, "recall")
	case "figure8":
		runFigures678(cfg, "mcc")
	case "figure9":
		runFigure9(cfg, *fig9Scale, *incCalls, *skipOneShot)
	case "figure10":
		runFigure10(cfg)
	case "table4":
		runTable4(cfg)
	case "table6":
		runTable6(cfg)
	case "table8":
		runTable8(cfg)
	case "ablation":
		runAblation(cfg)
	case "robustness":
		runRobustness(cfg)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
}

func header(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}

func runFigures678(cfg experiments.Config, which ...string) {
	gens := experiments.Datasets(cfg)
	methods := []experiments.Method{
		experiments.MethodTrifacta,
		experiments.MethodSingle,
		experiments.MethodGroup,
	}
	results := make(map[string][]experiments.StandResult)
	for _, g := range gens {
		for _, m := range methods {
			start := time.Now()
			res := RunStand(g, m, cfg)
			fmt.Printf("ran %-12s %-9s in %v (approved %d)\n",
				g.Data.Name, m, time.Since(start).Round(time.Millisecond), res.Approved)
			results[g.Data.Name] = append(results[g.Data.Name], res)
		}
	}
	figures := map[string]struct {
		title string
		pick  func(experiments.Point) float64
	}{
		"precision": {"Figure 6: precision of standardizing variant values", func(p experiments.Point) float64 { return p.Precision }},
		"recall":    {"Figure 7: recall of standardizing variant values", func(p experiments.Point) float64 { return p.Recall }},
		"mcc":       {"Figure 8: MCC of standardizing variant values", func(p experiments.Point) float64 { return p.MCC }},
	}
	for _, w := range which {
		f := figures[w]
		header(f.title)
		for _, g := range gens {
			fmt.Printf("\n(%s)\n", g.Data.Name)
			tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
			fmt.Fprint(tw, "# groups confirmed")
			lines := results[g.Data.Name]
			for _, res := range lines {
				fmt.Fprintf(tw, "\t%s", res.Method)
			}
			fmt.Fprintln(tw)
			for pi := range lines[0].Points {
				fmt.Fprintf(tw, "%d", lines[0].Points[pi].Confirmed)
				for _, res := range lines {
					p := res.Points[min(pi, len(res.Points)-1)]
					fmt.Fprintf(tw, "\t%.3f", f.pick(p))
				}
				fmt.Fprintln(tw)
			}
			tw.Flush()
		}
	}
}

// RunStand wraps experiments.RunStandardization (split out for reuse).
func RunStand(g *datagen.Generated, m experiments.Method, cfg experiments.Config) experiments.StandResult {
	return experiments.RunStandardization(g, m, cfg)
}

func runFigure9(cfg experiments.Config, extraScale float64, k int, skipOneShot bool) {
	header("Figure 9: group generation time (upfront vs incremental)")
	if !skipOneShot {
		fmt.Println("note: OneShot enumerates every path — the paper measured 4900s on a")
		fmt.Println("server; pass -skip-oneshot or lower -figure9-scale if this is too slow")
	}
	small := cfg
	if small.Scale == 0 {
		small.Scale = 1
	}
	small.Scale *= extraScale
	gens := experiments.Datasets(small)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tcandidates\tOneShot upfront\tEarlyTerm upfront\tIncremental 1st call\tIncremental avg/call")
	for _, g := range gens {
		res := experiments.RunGroupingTime(g, k, small, skipOneShot)
		first, avg := time.Duration(0), time.Duration(0)
		if len(res.IncrementalPerCall) > 0 {
			first = res.IncrementalPerCall[0]
			var sum time.Duration
			for _, d := range res.IncrementalPerCall {
				sum += d
			}
			avg = sum / time.Duration(len(res.IncrementalPerCall))
		}
		oneshot := "skipped"
		if !skipOneShot {
			oneshot = res.OneShotUpfront.Round(time.Millisecond).String()
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%v\t%v\t%v\n",
			res.Dataset, res.Candidates, oneshot,
			res.EarlyTermUpfront.Round(time.Millisecond),
			first.Round(time.Microsecond), avg.Round(time.Microsecond))
	}
	tw.Flush()
}

func runFigure10(cfg experiments.Config) {
	header("Figure 10: recall with and without the affix string functions")
	gens := experiments.Datasets(cfg)
	res := experiments.Figure10(gens, cfg)
	for i := 0; i < len(res); i += 2 {
		fmt.Printf("\n(%s)\n", res[i].Dataset)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "# groups confirmed\tAffix\tNoAffix")
		with, without := res[i], res[i+1]
		for pi := range with.Points {
			w := with.Points[pi]
			n := without.Points[min(pi, len(without.Points)-1)]
			fmt.Fprintf(tw, "%d\t%.3f\t%.3f\n", w.Confirmed, w.Recall, n.Recall)
		}
		tw.Flush()
	}
}

func runTable4(cfg experiments.Config) {
	header("Table 4: sample groups from the AuthorList dataset")
	g := datagen.AuthorList(datagen.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	groups := experiments.SampleGroups(g, 5, 5, cfg)
	for i, grp := range groups {
		fmt.Printf("\nGroup %c (%d members) — %s\n", 'A'+i, grp.Size, grp.Program)
		for _, m := range grp.Members {
			fmt.Printf("  %q → %q\n", m.LHS, m.RHS)
		}
	}
}

func runTable6(cfg experiments.Config) {
	header("Table 6: dataset details")
	gens := experiments.Datasets(cfg)
	stats := experiments.Table6(gens, cfg)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tAuthorList\tAddress\tJournalTitle")
	row := func(name string, f func(experiments.DatasetStats) string) {
		fmt.Fprintf(tw, "%s", name)
		for _, s := range stats {
			fmt.Fprintf(tw, "\t%s", f(s))
		}
		fmt.Fprintln(tw)
	}
	row("clusters", func(s experiments.DatasetStats) string { return fmt.Sprint(s.Clusters) })
	row("records", func(s experiments.DatasetStats) string { return fmt.Sprint(s.Records) })
	row("avg/min/max cluster size", func(s experiments.DatasetStats) string {
		return fmt.Sprintf("%.1f/%d/%d", s.AvgSize, s.MinSize, s.MaxSize)
	})
	row("# of distinct value pairs", func(s experiments.DatasetStats) string { return fmt.Sprint(s.DistinctValuePairs) })
	row("variant value pairs %", func(s experiments.DatasetStats) string { return fmt.Sprintf("%.1f%%", 100*s.VariantShare) })
	row("conflict value pairs %", func(s experiments.DatasetStats) string { return fmt.Sprintf("%.1f%%", 100*s.ConflictShare) })
	tw.Flush()
}

func runTable8(cfg experiments.Config) {
	header("Table 8: precision improvement for majority consensus")
	gens := experiments.Datasets(cfg)
	res := experiments.Table8(gens, cfg)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tAuthorList\tAddress\tJournalTitle")
	fmt.Fprint(tw, "before")
	for _, r := range res {
		fmt.Fprintf(tw, "\t%.3f", r.Before)
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "after")
	for _, r := range res {
		fmt.Fprintf(tw, "\t%.3f", r.After)
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

func runAblation(cfg experiments.Config) {
	header("Ablations: static orders, token candidates, path length")
	small := cfg
	if small.Scale == 0 {
		small.Scale = 1
	}
	small.Scale *= 0.4
	g := datagen.Address(datagen.Config{Seed: cfg.Seed, Scale: small.Scale})
	res := experiments.Ablations(g, small)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "configuration\trecall\tMCC\truntime")
	for _, r := range res {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%v\n", r.Name, r.Recall, r.MCC, r.Duration.Round(time.Millisecond))
	}
	tw.Flush()
}

func runRobustness(cfg experiments.Config) {
	header("Robustness: quality under human decision errors (Section 1 claim)")
	g := datagen.JournalTitle(datagen.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	res := experiments.Robustness(g, []float64{0, 0.05, 0.1, 0.2}, cfg)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "error rate\tflipped\tprecision\trecall\tMCC")
	for _, r := range res {
		fmt.Fprintf(tw, "%.0f%%\t%d\t%.3f\t%.3f\t%.3f\n", 100*r.ErrorRate, r.Flipped, r.Precision, r.Recall, r.MCC)
	}
	tw.Flush()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
