// Command goldbench is goldrec's end-to-end benchmark. It builds
// nothing itself: run.sh builds goldrecd and this program from the
// checkout, then runs
//
//	goldbench -bin goldrecd -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// Each workload drives the real goldrecd binary (default flags,
// -data-dir with fsync on) over loopback HTTP as a closed loop of at
// most two simulated reviewers whose verdicts come from ground truth
// the server never sees, checks every output against the reviewer's
// own mirror of the data, and prints the metrics. With --trace 0 the
// last stdout line carries the end-to-end metrics; with --trace 1 it
// carries the per-layer split, taken from client spans, before/after
// diffs of the server's own read-outs, and an in-process replay of the
// run's decision log through the public Go APIs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/goldrec/goldrec/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("goldbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "review-address, restart-backlog or reingest-warm")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 10, "measure for at least this long (whole workload iterations)")
		traceOn  = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin      = fs.String("bin", "", "goldrecd binary under test")
		work     = fs.String("work", "", "scratch directory for data dirs, logs and spans")
		smoke    = fs.Bool("smoke", false, "tiny inputs; exercises every check quickly")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *bin == "" || *work == "" || *traceOn < 0 || *traceOn > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "goldbench: need -bin, -work, --trace 0|1, --seconds > 0 and --workload one of %s\n", workloadNames())
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintf(stderr, "goldbench: goldrecd binary: %v\n", err)
		return 1
	}
	b := &bench{
		bin:     *bin,
		seed:    *seed,
		seconds: *seconds,
		smoke:   *smoke,
		traced:  *traceOn == 1,
		acc:     newAccounting(),
		log:     stderr,
	}
	dir, err := os.MkdirTemp(*work, *workload+"-")
	if err != nil {
		fmt.Fprintf(stderr, "goldbench: %v\n", err)
		return 1
	}
	b.work = dir
	defer os.RemoveAll(dir)

	// Interrupts cancel the run, so every server it started is stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	res, err := b.runWorkload(ctx, w)
	if err != nil {
		fmt.Fprintf(stderr, "goldbench: %s: %v\n", *workload, err)
		return 1
	}
	return b.report(stdout, stderr, *workload, res)
}

// bench is one invocation's state.
type bench struct {
	bin     string
	work    string
	seed    int64
	seconds float64
	smoke   bool
	traced  bool

	log       io.Writer // progress lines (stderr)
	acc       *accounting
	failures  []string          // failed correctness checks
	pooling   bool              // whether this pass feeds waits
	scoring   bool              // whether this pass feeds confusion
	waits     []float64         // question waits (ms) pooled over iterations
	confusion metrics.Confusion // quality counts pooled over scored iterations
	identity  map[string]any
	flags     map[string][]string // goldrecd flags by server role
	spans     []span
}

// check records a failed correctness check. The run keeps going so one
// report lists every defect; the result is then marked incorrect.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// sample is one iteration's metrics.
type sample map[string]float64

// workloadFunc is one workload: why it exists, an untimed prep run once
// per invocation, and one iteration (a whole pass against a fresh
// server; i picks the iteration's inputs, rec is nil when untraced).
// Recall and precision score the exports of the first scored
// iterations only, so the datasets they cover do not depend on how
// many iterations fit in the run's seconds. A run lasts until those
// are done, so scored is also the fewest iterations its medians are
// taken over.
type workloadFunc struct {
	why    string
	scored int
	prep   func(ctx context.Context, b *bench) (any, error)
	iter   func(ctx context.Context, b *bench, prep any, i int, rec *recorder) (sample, error)
}

var workloads = map[string]workloadFunc{
	"review-address":  {why: whyReviewAddress, scored: 15, prep: noPrep, iter: iterReviewAddress},
	"restart-backlog": {why: whyRestartBacklog, scored: 40, prep: noPrep, iter: iterRestartBacklog},
	"reingest-warm":   {why: whyReingestWarm, scored: 10, prep: prepReingestWarm, iter: iterReingestWarm},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// result is what a run reports: the median of each metric over its
// iterations, except the pooled ones runWorkload notes.
type result struct {
	iterations int
	metrics    sample
}

// maxIterations bounds a run whatever --seconds says.
const maxIterations = 200

func (b *bench) runWorkload(ctx context.Context, w workloadFunc) (result, error) {
	t := time.Now()
	prep, err := w.prep(ctx, b)
	if err != nil {
		return result{}, fmt.Errorf("prep: %w", err)
	}
	fmt.Fprintf(b.log, "prep took %.1fs\n", time.Since(t).Seconds())
	// Untraced runs repeat the workload for the run's seconds. Traced
	// runs repeat pairs of passes over the same inputs, one untraced and
	// one traced: the traced pass supplies the per-layer split, the pair
	// the tracing overhead. Only the reporting passes feed the pools.
	var samples []sample
	var rec *recorder
	if b.traced {
		rec = newRecorder()
	}
	scored := w.scored
	if b.smoke {
		scored = 1
	}
	start := time.Now()
	for i := 0; i < maxIterations && (i < scored || time.Since(start).Seconds() < b.seconds); i++ {
		var plain sample
		if b.traced {
			b.pooling, b.scoring = false, false
			if plain, err = w.iter(ctx, b, prep, i, nil); err != nil {
				return result{}, err
			}
		}
		b.pooling, b.scoring = true, i < scored
		s, err := w.iter(ctx, b, prep, i, rec)
		if err != nil {
			return result{}, err
		}
		if b.traced {
			s["trace.overhead"] = s["review_s"]/plain["review_s"] - 1
		}
		samples = append(samples, s)
		if line, err := json.Marshal(s); err == nil {
			fmt.Fprintf(b.log, "iteration %d %s\n", i, line)
		}
	}
	if rec != nil {
		b.spans = rec.spans
	}
	out := sample{}
	for k := range samples[0] {
		var xs []float64
		for _, s := range samples {
			xs = append(xs, s[k])
		}
		out[k] = median(xs)
	}
	out["service.question_wait_ms.p50"] = quantile(b.waits, 0.5)
	out["service.question_wait_ms.p90"] = quantile(b.waits, 0.9)
	out["precision"] = b.confusion.Precision()
	out["recall"] = b.confusion.Recall()
	return result{iterations: len(samples), metrics: out}, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func (b *bench) report(stdout, stderr io.Writer, name string, res result) int {
	tried, failed := b.acc.totals()
	id := map[string]any{
		"workload":   name,
		"why":        workloads[name].why,
		"seed":       b.seed,
		"seconds":    b.seconds,
		"traced":     b.traced,
		"iterations": res.iterations,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goldrecd":   b.identity,
		"flags":      b.flags,
	}
	idJSON, _ := json.Marshal(id)
	fmt.Fprintf(stdout, "identity %s\n", idJSON)
	for _, r := range b.acc.routes() {
		b.acc.mu.Lock()
		t, f := b.acc.tried[r], b.acc.failed[r]
		b.acc.mu.Unlock()
		fmt.Fprintf(stdout, "route %-13s attempted=%d failed=%d latency_ms %s\n", r, t, f, summarize(b.acc.samples(r)))
	}
	for _, f := range b.failures {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", f)
	}

	type def struct{ name, unit, moves string }
	var defs []def
	if b.traced {
		for _, m := range perLayer {
			defs = append(defs, def{m.Name, m.Unit, m.Moves})
		}
	} else {
		for _, m := range endToEnd {
			defs = append(defs, def{m.Name, m.Unit, ""})
		}
	}
	out := finalLine{Correct: len(b.failures) == 0, Attempted: tried, Failed: failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// Per-layer metrics of a layer the workload does not
			// exercise read 0; an end-to-end metric must be measured.
			v = 0
			if !b.traced {
				out.Correct = false
				fmt.Fprintf(stdout, "CHECK FAILED: metric %s not measured\n", d.name)
			}
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %-38s %14.6f %-5s %s\n", d.name, v, d.unit, d.moves)
	}
	if !b.traced {
		// The reviewer's other figures, reported but not gated (see
		// endToEnd).
		for _, m := range perLayer {
			if v, ok := res.metrics[m.Name]; ok {
				fmt.Fprintf(stdout, "also   %-38s %14.6f %-5s\n", m.Name, v, m.Unit)
			}
		}
	}
	if b.traced {
		if err := b.writeSpans(); err != nil {
			fmt.Fprintf(stderr, "goldbench: writing spans: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "goldbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// writeSpans writes the traced run's spans, kept in memory until now,
// next to the work dir as JSON lines.
func (b *bench) writeSpans() error {
	path := filepath.Join(filepath.Dir(b.work), filepath.Base(b.work)+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, sp := range b.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	return errors.Join(f.Sync(), f.Close())
}
