// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 8) on the synthetic datasets: the standardization
// quality sweeps of Figures 6-8, the grouping-time comparison of Figure
// 9, the affix ablation of Figure 10, the dataset statistics of Table 6,
// the sample groups of Table 4, and the truth-discovery improvement of
// Table 8.
package experiments

import (
	"time"

	"github.com/goldrec/goldrec/internal/core"
	"github.com/goldrec/goldrec/internal/datagen"
	"github.com/goldrec/goldrec/internal/metrics"
	"github.com/goldrec/goldrec/internal/oracle"
	"github.com/goldrec/goldrec/internal/replace"
	"github.com/goldrec/goldrec/internal/tgraph"
	"github.com/goldrec/goldrec/internal/wrangler"
)

// Method is one of the standardization methods compared in Section 8.1.
type Method string

const (
	// MethodGroup is the paper's contribution: unsupervised grouping +
	// batch human verification.
	MethodGroup Method = "Group"
	// MethodSingle verifies candidate replacements one by one, without
	// grouping.
	MethodSingle Method = "Single"
	// MethodTrifacta is the wrangler-rule baseline.
	MethodTrifacta Method = "Trifacta"
)

// Point is one budget checkpoint of a standardization sweep.
type Point struct {
	Confirmed int
	Precision float64
	Recall    float64
	MCC       float64
}

// StandResult is one (dataset, method) line of Figures 6-8.
type StandResult struct {
	Dataset string
	Method  Method
	Points  []Point
	// Approved counts approved groups at the end of the sweep (the
	// paper reports 70/39/22 for Group).
	Approved int
}

// Config controls an experiment run.
type Config struct {
	// Seed for data generation, sampling and tie-breaking.
	Seed int64
	// Scale multiplies the default dataset sizes.
	Scale float64
	// Budget is the number of groups shown to the human (the paper
	// uses 200 for AuthorList, 100 for the others; 0 keeps those).
	Budget int
	// Step is the checkpoint interval (0 = Budget/10).
	Step int
	// SampleN is the labeled-pair sample size (0 = 1000, as in the
	// paper).
	SampleN int
	// NoAffix disables the affix DSL extension (Figure 10's NoAffix
	// line).
	NoAffix bool
	// NoConstantScoring disables the Appendix E constant static order.
	// The paper's implementation always applies the static orders
	// (Section 7.4), so the zero-value Config matches its setup.
	NoConstantScoring bool
	// NoMinimalSubStr disables the Appendix E string-function static
	// order (one SubStr label per edge).
	NoMinimalSubStr bool
	// MaxPathLen is θ (0 = 6).
	MaxPathLen int
	// MaxSteps bounds each pivot search (0 = unlimited). The
	// static-order ablations set it: without the Appendix E orders the
	// search space explodes, which is the point being measured.
	MaxSteps int
}

func (c Config) sampleN() int {
	if c.SampleN <= 0 {
		return 1000
	}
	return c.SampleN
}

func (c Config) budgetFor(dataset string) int {
	if c.Budget > 0 {
		return c.Budget
	}
	if dataset == "AuthorList" {
		return 200
	}
	return 100
}

func (c Config) stepFor(budget int) int {
	if c.Step > 0 {
		return c.Step
	}
	s := budget / 10
	if s < 1 {
		s = 1
	}
	return s
}

// Datasets generates the three evaluation datasets.
func Datasets(cfg Config) []*datagen.Generated {
	dg := datagen.Config{Seed: cfg.Seed, Scale: cfg.Scale}
	return []*datagen.Generated{
		datagen.AuthorList(dg),
		datagen.Address(dg),
		datagen.JournalTitle(dg),
	}
}

func (c Config) engineOptions() core.Options {
	return core.Options{
		Graph: tgraph.Options{
			NoAffix:       c.NoAffix,
			MinimalSubStr: !c.NoMinimalSubStr,
		},
		MaxPathLen:      c.MaxPathLen,
		ConstantScoring: !c.NoConstantScoring,
		MaxSteps:        c.MaxSteps,
	}
}

// RunStandardization sweeps the human budget for one dataset and method,
// reporting precision/recall/MCC at each checkpoint against a fixed
// labeled sample (the Figures 6-8 protocol). The generated dataset is
// cloned, so gen can be reused across methods.
func RunStandardization(gen *datagen.Generated, method Method, cfg Config) StandResult {
	g := gen.Clone()
	budget := cfg.budgetFor(g.Data.Name)
	step := cfg.stepFor(budget)
	sample := metrics.Sample(g.Data, g.Truth, g.Col, cfg.sampleN(), cfg.Seed+1)
	res := StandResult{Dataset: g.Data.Name, Method: method}
	checkpoint := func(confirmed int) {
		c := metrics.Evaluate(g.Data, sample)
		res.Points = append(res.Points, Point{
			Confirmed: confirmed,
			Precision: c.Precision(),
			Recall:    c.Recall(),
			MCC:       c.MCC(),
		})
	}
	checkpoint(0)

	switch method {
	case MethodTrifacta:
		// The baseline applies its rule script once; its quality is a
		// flat line across the budget axis (the dotted lines of
		// Figures 6-8).
		sc, err := wrangler.Parse(wrangler.ScriptFor(g.Data.Name))
		if err != nil {
			panic("experiments: bad built-in script: " + err.Error())
		}
		sc.Apply(g.Data, g.Col)
		for n := step; n <= budget; n += step {
			checkpoint(n)
		}
	case MethodSingle:
		res.Approved = runSingle(g, budget, step, checkpoint)
	default:
		o := oracle.New(g.Data, g.Truth, g.Col, oracle.Options{})
		runGroup(g, replace.Options{TokenLevel: true}, o, cfg, budget, step, checkpoint)
		res.Approved = o.Approved
	}
	return res
}

// newStore generates the column's candidate replacements and the
// grouping engine's input over them.
func newStore(g *datagen.Generated, ropts replace.Options) (*replace.Store, []core.Rep) {
	store := replace.NewStore(g.Data, g.Col, ropts)
	cands := store.Candidates()
	reps := make([]core.Rep, 0, len(cands))
	for _, c := range cands {
		reps = append(reps, core.Rep{S: c.LHS, T: c.RHS, Ext: c.ID})
	}
	return store, reps
}

// reviewMembers returns an engine group's candidates in review order.
func reviewMembers(store *replace.Store, grp *core.Group) []*replace.Candidate {
	members := make([]*replace.Candidate, len(grp.Members))
	for i, m := range grp.Members {
		members[i] = store.Candidate(m.Ext)
	}
	replace.SortForReview(members)
	return members
}

// runGroup is the paper's method, the review loop of Algorithm 1 (lines
// 5-9): incremental largest-group-first verification by the simulated
// human o, for up to budget groups. Members are verified and applied
// in review order through replace.SortForReview and
// replace.Store.ApplyGroup, exactly as the goldrec Session does.
// checkpoint, when not nil, runs after every step reviewed groups and
// after the last one.
func runGroup(g *datagen.Generated, ropts replace.Options, o *oracle.Oracle, cfg Config, budget, step int, checkpoint func(int)) {
	store, reps := newStore(g, ropts)
	eng := core.NewEngine(reps, cfg.engineOptions())
	confirmed := 0
	for confirmed < budget {
		grp := eng.NextGroup()
		if grp == nil {
			break
		}
		confirmed++
		members := reviewMembers(store, grp)
		if d := o.VerifyGroup(members); d.Approved {
			eng.Remove(store.ApplyGroup(members, d.Invert).Emptied...)
		}
		if checkpoint != nil && confirmed%step == 0 {
			checkpoint(confirmed)
		}
	}
	if checkpoint != nil && confirmed%step != 0 {
		checkpoint(confirmed)
	}
}

// runSingle verifies candidate replacements one at a time, ranked by
// replacement-set size (profit, the review order), without grouping.
func runSingle(g *datagen.Generated, budget, step int, checkpoint func(int)) int {
	store := replace.NewStore(g.Data, g.Col, replace.Options{TokenLevel: true})
	o := oracle.New(g.Data, g.Truth, g.Col, oracle.Options{})
	cands := append([]*replace.Candidate(nil), store.Candidates()...)
	replace.SortForReview(cands)
	confirmed := 0
	for _, cand := range cands {
		if confirmed >= budget {
			break
		}
		if cand.SiteCount() == 0 {
			continue
		}
		confirmed++
		one := []*replace.Candidate{cand}
		if d := o.VerifyGroup(one); d.Approved {
			store.ApplyGroup(one, d.Invert)
		}
		if confirmed%step == 0 {
			checkpoint(confirmed)
		}
	}
	if confirmed%step != 0 {
		checkpoint(confirmed)
	}
	return o.Approved
}

// TimingResult is one dataset's Figure 9 measurement.
type TimingResult struct {
	Dataset string
	// Candidates is the number of replacements grouped.
	Candidates int
	// OneShotUpfront and EarlyTermUpfront are the full upfront
	// grouping costs (the dotted lines of Figure 9).
	OneShotUpfront   time.Duration
	EarlyTermUpfront time.Duration
	// IncrementalPerCall is the cost of each GenerateNextLargestGroup
	// invocation (the solid line).
	IncrementalPerCall []time.Duration
}

// RunGroupingTime reproduces Figure 9 on one dataset: the upfront cost of
// OneShot and EarlyTerm versus the per-invocation cost of Incremental for
// k groups. skipOneShot skips the (deliberately) exponential baseline.
//
// Following Section 7.4/Appendix E, the timing configuration enables the
// static orders (constant scoring, minimal SubStr labels) that the
// paper's implementation always uses — without them the prune-free
// OneShot baseline would not terminate in reasonable time at any scale.
// Every algorithm runs single-threaded, as the paper measures.
func RunGroupingTime(gen *datagen.Generated, k int, cfg Config, skipOneShot bool) TimingResult {
	g := gen.Clone()
	_, reps := newStore(g, replace.Options{TokenLevel: true})
	cfg.NoConstantScoring = false
	cfg.NoMinimalSubStr = false
	opts := cfg.engineOptions()

	res := TimingResult{Dataset: g.Data.Name, Candidates: len(reps)}
	if !skipOneShot {
		eng := core.NewEngine(reps, opts)
		start := time.Now()
		eng.AllGroups(core.ModeOneShot)
		res.OneShotUpfront = time.Since(start)
	}
	{
		eng := core.NewEngine(reps, opts)
		start := time.Now()
		eng.AllGroups(core.ModeEarlyTerm)
		res.EarlyTermUpfront = time.Since(start)
	}
	{
		eng := core.NewEngine(reps, opts)
		for i := 0; i < k; i++ {
			start := time.Now()
			grp := eng.NextGroup()
			res.IncrementalPerCall = append(res.IncrementalPerCall, time.Since(start))
			if grp == nil {
				break
			}
		}
	}
	return res
}
