package eval

import (
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"credist/internal/actionlog"
	"credist/internal/cascade"
	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/datagen"
	"credist/internal/graph"
	"credist/internal/heuristic"
	"credist/internal/probs"
	"credist/internal/seedsel"
)

// ExpOptions gathers the knobs shared by the experiment drivers. Zero
// values select laptop-scale defaults; the paper's settings are noted per
// field.
type ExpOptions struct {
	// K is the seed-set size (paper: 50).
	K int
	// Trials is the Monte-Carlo simulation count (paper: 10,000).
	Trials int
	// Lambda is the CD truncation threshold (paper default: 0.001).
	Lambda float64
	// Seed drives every randomized component.
	Seed uint64
	// Workers bounds the CD engine's scan and CELF gain fan-out
	// (0 = GOMAXPROCS). Results are bit-identical at any worker count —
	// the same determinism rule the serving layer's /seeds obeys — so the
	// knob only trades wall-clock time.
	Workers int
}

func (o ExpOptions) withDefaults() ExpOptions {
	if o.K == 0 {
		o.K = 50
	}
	if o.Trials == 0 {
		o.Trials = MCTrials
	}
	if o.Lambda == 0 {
		o.Lambda = 0.001
	}
	return o
}

func (o ExpOptions) methodOptions() MethodOptions {
	return MethodOptions{Trials: o.Trials, Seed: o.Seed}
}

// --- Table 1 -------------------------------------------------------------

// Table1 prints dataset statistics for the given configurations,
// reproducing the layout of the paper's Table 1.
func Table1(w io.Writer, cfgs []datagen.Config) []actionlog.Stats {
	fmt.Fprintf(w, "%-16s %10s %12s %10s %14s %10s\n",
		"dataset", "#nodes", "#dir.edges", "avg.deg", "#propagations", "#tuples")
	var out []actionlog.Stats
	for _, cfg := range cfgs {
		ds := datagen.Generate(cfg)
		st := actionlog.Summarize(ds.Log)
		out = append(out, st)
		fmt.Fprintf(w, "%-16s %10d %12d %10.1f %14d %10d\n",
			cfg.Name, ds.Graph.NumNodes(), ds.Graph.NumEdges(), ds.Graph.AvgDegree(),
			st.NumActions, st.NumTuples)
	}
	return out
}

// --- Section 3: Table 2 and Figure 2 --------------------------------------

// Table2 runs Experiment 1 of Section 3: select K seeds under the IC model
// with each probability-assignment method (UN, WC, TV, EM, PT) and report
// the pairwise seed-set intersections. Selection uses the PMIA estimator
// with CELF, the accelerated pipeline the paper itself falls back to where
// MC greedy is impractical.
func Table2(w io.Writer, env *Env, opts ExpOptions) *SeedSets {
	opts = opts.withDefaults()
	weights := Section3Weights(env, opts.methodOptions())
	sets := &SeedSets{}
	for _, name := range []string{"UN", "WC", "TV", "EM", "PT"} {
		est := heuristic.NewPMIA(weights[name], heuristic.DefaultTheta)
		res := seedsel.CELF(est, opts.K)
		sets.Add(name, res.Seeds)
	}
	fmt.Fprintf(w, "Seed set intersections (k=%d) on %s under IC:\n%s", opts.K, env.Name, sets.RenderMatrix())
	return sets
}

// Figure2 runs Experiment 2 of Section 3: spread prediction accuracy of
// UN/TV/WC/EM/PT against test-set ground truth. It prints binned RMSE
// (panels a and c) and returns the reports (whose Scatter fields are panel
// b).
func Figure2(w io.Writer, env *Env, opts ExpOptions) []PredictionReport {
	opts = opts.withDefaults()
	reports := RunSpreadPrediction(env, Section3Predictors(env, opts.methodOptions()),
		binWidthFor(env), errGridFor(env))
	renderRMSE(w, env, reports)
	return reports
}

// --- Section 6: Figures 3-9, Table 4 --------------------------------------

// Figure3 compares spread-prediction RMSE of the learned IC, LT, and CD
// models (binned by actual spread).
func Figure3(w io.Writer, env *Env, opts ExpOptions) []PredictionReport {
	opts = opts.withDefaults()
	reports := RunSpreadPrediction(env, Section6Predictors(env, opts.methodOptions()),
		binWidthFor(env), errGridFor(env))
	renderRMSE(w, env, reports)
	return reports
}

// Figure4 reports, for the same three models, the fraction of test
// propagations predicted within each absolute-error budget.
func Figure4(w io.Writer, env *Env, opts ExpOptions) []PredictionReport {
	opts = opts.withDefaults()
	reports := RunSpreadPrediction(env, Section6Predictors(env, opts.methodOptions()),
		binWidthFor(env), errGridFor(env))
	fmt.Fprintf(w, "Ratio of propagations captured within absolute error on %s:\n", env.Name)
	fmt.Fprintf(w, "%8s", "abs.err")
	for _, r := range reports {
		fmt.Fprintf(w, "%8s", r.Method)
	}
	fmt.Fprintln(w)
	for i := range reports[0].Capture {
		fmt.Fprintf(w, "%8d", reports[0].Capture[i].AbsError)
		for _, r := range reports {
			fmt.Fprintf(w, "%8.3f", r.Capture[i].Ratio)
		}
		fmt.Fprintln(w)
	}
	return reports
}

// ModelSeedSets selects K seeds under each learned model (IC via PMIA over
// EM probabilities, LT via LDAG over learned weights, CD via its engine
// with CELF), the inputs to Figure 5 and Figure 6.
func ModelSeedSets(env *Env, opts ExpOptions) *SeedSets {
	opts = opts.withDefaults()
	sets := &SeedSets{}

	icW := probs.LearnEMIC(env.Graph, env.Train, probs.EMOptions{})
	icRes := seedsel.CELF(heuristic.NewPMIA(icW, heuristic.DefaultTheta), opts.K)
	sets.Add("IC", icRes.Seeds)

	ltW := probs.LearnLTWeights(env.Graph, env.Train)
	ltRes := seedsel.CELF(heuristic.NewLDAG(ltW, heuristic.DefaultTheta), opts.K)
	sets.Add("LT", ltRes.Seeds)

	sets.Add("CD", SelectCD(env, opts).Seeds)
	return sets
}

// SelectCD selects seeds with the paper's algorithm: time-aware credit
// scan plus greedy/CELF over a read-only probe of the engine, through the
// same shared selection engine and estimator serve's /seeds uses — so
// Figure 5/6/7 seed sets match a served snapshot of the same dataset bit
// for bit (pinned by the serve-parity regression test).
func SelectCD(env *Env, opts ExpOptions) seedsel.Result {
	opts = opts.withDefaults()
	credit := core.LearnTimeAware(env.Graph, env.Train)
	engine := core.NewEngine(env.Graph, env.Train, core.Options{Lambda: opts.Lambda, Credit: credit, Workers: opts.Workers})
	// The Workers knob bounds the CELF gain fan-out too, not just the
	// scan; results are bit-identical either way.
	return celf.Run(core.NewProbe(engine).Estimator(nil), opts.K, celf.Options{Workers: engine.Workers()})
}

// Figure5 reports the pairwise intersections of the IC, LT, and CD seed
// sets.
func Figure5(w io.Writer, env *Env, opts ExpOptions) *SeedSets {
	sets := ModelSeedSets(env, opts)
	fmt.Fprintf(w, "Model seed-set intersections (k=%d) on %s:\n%s",
		opts.withDefaults().K, env.Name, sets.RenderMatrix())
	return sets
}

// SpreadCurve is one Figure 6 series: spread achieved (under the CD
// model, the most accurate available proxy for ground truth) by the first
// k seeds of a method, for each k in Ks.
type SpreadCurve struct {
	Method string
	Ks     []int
	Spread []float64
	// MeanSeedActions is the average number of training actions performed
	// by the method's seeds — the diagnostic behind the paper's
	// observation that IC's seeds are barely-active users (its "user
	// 168766" post-mortem: IC seeds averaged 30.3 actions against the CD
	// seeds' 1108.7).
	MeanSeedActions float64
}

// Figure6 scores the seed sets of CD, LT, IC, High Degree, and PageRank by
// the spread the CD model predicts for their prefixes.
func Figure6(w io.Writer, env *Env, opts ExpOptions) []SpreadCurve {
	opts = opts.withDefaults()
	sets := ModelSeedSets(env, opts)
	sets.Add("HighDeg", seedsel.HighDegree(env.Graph, opts.K))
	sets.Add("PageRank", seedsel.PageRankSeeds(env.Graph, opts.K))

	credit := core.LearnTimeAware(env.Graph, env.Train)
	ev := core.NewEvaluator(env.Graph, env.Train, credit)

	ks := kGrid(opts.K)
	curves := make([]SpreadCurve, 0, len(sets.Names))
	for i, name := range sets.Names {
		curve := SpreadCurve{Method: name, Ks: ks}
		for _, k := range ks {
			prefix := sets.Sets[i]
			if k < len(prefix) {
				prefix = prefix[:k]
			}
			curve.Spread = append(curve.Spread, ev.Spread(prefix, nil))
		}
		total := 0
		for _, s := range sets.Sets[i] {
			total += env.Train.ActionCount(s)
		}
		if len(sets.Sets[i]) > 0 {
			curve.MeanSeedActions = float64(total) / float64(len(sets.Sets[i]))
		}
		curves = append(curves, curve)
	}

	fmt.Fprintf(w, "Influence spread under CD model on %s:\n%8s", env.Name, "k")
	for _, c := range curves {
		fmt.Fprintf(w, "%10s", c.Method)
	}
	fmt.Fprintln(w)
	for i, k := range ks {
		fmt.Fprintf(w, "%8d", k)
		for _, c := range curves {
			fmt.Fprintf(w, "%10.1f", c.Spread[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%8s", "actions")
	for _, c := range curves {
		fmt.Fprintf(w, "%10.1f", c.MeanSeedActions)
	}
	fmt.Fprintln(w)
	return curves
}

// RuntimeSeries is one Figure 7 series: cumulative selection time per
// seed count.
type RuntimeSeries struct {
	Method  string
	Elapsed []time.Duration // Elapsed[i] is time to select i+1 seeds
}

// Figure7 times seed selection under MC-greedy IC, MC-greedy LT, and the
// CD engine. The absolute numbers shrink with our reduced trials and
// dataset scale, but the orders-of-magnitude gap between simulation-based
// greedy and the CD engine is the figure's point and survives.
func Figure7(w io.Writer, env *Env, opts ExpOptions) []RuntimeSeries {
	opts = opts.withDefaults()
	var series []RuntimeSeries

	icW := probs.LearnEMIC(env.Graph, env.Train, probs.EMOptions{})
	icMC := cascade.NewMCEstimator(icW, cascade.IC, cascade.MCOptions{Trials: opts.Trials, Seed: opts.Seed})
	icRes := seedsel.CELF(cascade.NewGreedyEstimator(icMC), opts.K)
	series = append(series, RuntimeSeries{Method: "IC", Elapsed: icRes.Elapsed})

	ltW := probs.LearnLTWeights(env.Graph, env.Train)
	ltMC := cascade.NewMCEstimator(ltW, cascade.LT, cascade.MCOptions{Trials: opts.Trials, Seed: opts.Seed})
	ltRes := seedsel.CELF(cascade.NewGreedyEstimator(ltMC), opts.K)
	series = append(series, RuntimeSeries{Method: "LT", Elapsed: ltRes.Elapsed})

	start := time.Now()
	cdRes := SelectCD(env, opts)
	// Engine construction (the log scan) dominates CD cost; fold it into
	// every point like the paper's end-to-end timings do.
	scanAdjusted := make([]time.Duration, len(cdRes.Elapsed))
	base := time.Since(start) - lastOr0(cdRes.Elapsed)
	for i, e := range cdRes.Elapsed {
		scanAdjusted[i] = base + e
	}
	series = append(series, RuntimeSeries{Method: "CD", Elapsed: scanAdjusted})

	fmt.Fprintf(w, "Seed-selection runtime on %s (k=%d, %d MC trials):\n", env.Name, opts.K, opts.Trials)
	for _, s := range series {
		fmt.Fprintf(w, "%4s: total %v\n", s.Method, lastOr0(s.Elapsed))
	}
	return series
}

func lastOr0(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	return d[len(d)-1]
}

// ScalePoint is one Figure 8/9 measurement at a training-log size.
type ScalePoint struct {
	Tuples    int
	Runtime   time.Duration
	UCEntries int64
	// ApproxBytes estimates UC memory: two mirrored map entries per credit.
	ApproxBytes int64
	Spread      float64 // spread of chosen seeds under the full-log evaluator
	TrueSeeds   int     // overlap with seeds chosen on the full training log
}

// Scalability runs Figures 8 and 9 in one sweep: for nested samples of the
// training propagations, select K seeds with the CD engine and record
// runtime, memory, spread (scored by the full-log evaluator), and overlap
// with the full-log ("true") seeds.
func Scalability(w io.Writer, env *Env, fractions []float64, opts ExpOptions) []ScalePoint {
	opts = opts.withDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	}
	credit := core.LearnTimeAware(env.Graph, env.Train)
	fullEv := core.NewEvaluator(env.Graph, env.Train, credit)

	// Random nested sample order, as the paper samples traces randomly.
	rng := rand.New(rand.NewPCG(opts.Seed, 0xfeedbeef))
	order := rng.Perm(env.Train.NumActions())

	var trueSeeds []graph.NodeID
	var points []ScalePoint
	for fi := len(fractions) - 1; fi >= 0; fi-- {
		// Iterate largest-first so the full run defines the true seeds.
		n := int(fractions[fi] * float64(env.Train.NumActions()))
		if n < 1 {
			n = 1
		}
		actions := make([]actionlog.ActionID, n)
		for i := 0; i < n; i++ {
			actions[i] = actionlog.ActionID(order[i])
		}
		sub := env.Train.Restrict(actions)

		start := time.Now()
		subCredit := core.LearnTimeAware(env.Graph, sub)
		engine := core.NewEngine(env.Graph, sub, core.Options{Lambda: opts.Lambda, Credit: subCredit, Workers: opts.Workers})
		res := celf.Run(core.NewProbe(engine).Estimator(nil), opts.K, celf.Options{Workers: engine.Workers()})
		elapsed := time.Since(start)

		if fi == len(fractions)-1 {
			trueSeeds = res.Seeds
		}
		points = append(points, ScalePoint{
			Tuples:      sub.NumTuples(),
			Runtime:     elapsed,
			UCEntries:   engine.Entries(),
			ApproxBytes: engine.Entries() * ucEntryBytes,
			Spread:      fullEv.Spread(res.Seeds, nil),
			TrueSeeds:   Overlap(res.Seeds, trueSeeds),
		})
	}
	// Reverse into ascending-tuples order for reporting.
	for i, j := 0, len(points)-1; i < j; i, j = i+1, j-1 {
		points[i], points[j] = points[j], points[i]
	}

	fmt.Fprintf(w, "CD scalability on %s (k=%d):\n", env.Name, opts.K)
	fmt.Fprintf(w, "%10s %12s %12s %14s %10s %10s\n",
		"tuples", "runtime", "UC entries", "approx.mem", "spread", "true.seeds")
	for _, p := range points {
		fmt.Fprintf(w, "%10d %12v %12d %14s %10.1f %10d\n",
			p.Tuples, p.Runtime.Round(time.Millisecond), p.UCEntries,
			humanBytes(p.ApproxBytes), p.Spread, p.TrueSeeds)
	}
	return points
}

// ucEntryBytes approximates the in-memory cost of one UC credit: a float64
// value plus two map-entry overheads (forward and mirror index).
const ucEntryBytes = 64

func humanBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// TruncationPoint is one Table 4 row.
type TruncationPoint struct {
	Lambda      float64
	Spread      float64
	TrueSeeds   int
	UCEntries   int64
	ApproxBytes int64
	Runtime     time.Duration
}

// Table4 sweeps the truncation threshold lambda and reports its effect on
// spread, seed quality (overlap with the finest-lambda seeds), memory, and
// runtime.
func Table4(w io.Writer, env *Env, lambdas []float64, opts ExpOptions) []TruncationPoint {
	opts = opts.withDefaults()
	if len(lambdas) == 0 {
		lambdas = []float64{0.1, 0.01, 0.001, 0.0005, 0.0001}
	}
	credit := core.LearnTimeAware(env.Graph, env.Train)
	ev := core.NewEvaluator(env.Graph, env.Train, credit)

	var points []TruncationPoint
	var trueSeeds []graph.NodeID
	// Finest lambda defines the "true seeds"; run it first.
	for i := len(lambdas) - 1; i >= 0; i-- {
		lam := lambdas[i]
		start := time.Now()
		engine := core.NewEngine(env.Graph, env.Train, core.Options{Lambda: lam, Credit: credit, Workers: opts.Workers})
		res := celf.Run(core.NewProbe(engine).Estimator(nil), opts.K, celf.Options{Workers: engine.Workers()})
		elapsed := time.Since(start)
		if i == len(lambdas)-1 {
			trueSeeds = res.Seeds
		}
		points = append(points, TruncationPoint{
			Lambda:      lam,
			Spread:      ev.Spread(res.Seeds, nil),
			TrueSeeds:   Overlap(res.Seeds, trueSeeds),
			UCEntries:   engine.Entries(),
			ApproxBytes: engine.Entries() * ucEntryBytes,
			Runtime:     elapsed,
		})
	}
	for i, j := 0, len(points)-1; i < j; i, j = i+1, j-1 {
		points[i], points[j] = points[j], points[i]
	}

	fmt.Fprintf(w, "Effect of truncation threshold on %s (k=%d):\n", env.Name, opts.K)
	fmt.Fprintf(w, "%10s %10s %10s %12s %14s %12s\n",
		"lambda", "spread", "true.seeds", "UC entries", "approx.mem", "runtime")
	for _, p := range points {
		fmt.Fprintf(w, "%10g %10.1f %10d %12d %14s %12v\n",
			p.Lambda, p.Spread, p.TrueSeeds, p.UCEntries,
			humanBytes(p.ApproxBytes), p.Runtime.Round(time.Millisecond))
	}
	return points
}

// --- shared helpers --------------------------------------------------------

func renderRMSE(w io.Writer, env *Env, reports []PredictionReport) {
	fmt.Fprintf(w, "RMSE vs actual spread on %s:\n", env.Name)
	fmt.Fprintf(w, "%10s %8s", "bin", "count")
	for _, r := range reports {
		fmt.Fprintf(w, "%10s", r.Method)
	}
	fmt.Fprintln(w)
	if len(reports) == 0 {
		return
	}
	for i, bin := range reports[0].Bins {
		fmt.Fprintf(w, "%10d %8d", bin.BinLow, bin.Count)
		for _, r := range reports {
			fmt.Fprintf(w, "%10.1f", r.Bins[i].RMSE)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%10s %8s", "overall", "")
	for _, r := range reports {
		fmt.Fprintf(w, "%10.1f", r.OverallRMSE)
	}
	fmt.Fprintln(w)
}

// binWidthFor picks the RMSE bin width from the test-set size scale, the
// analogue of the paper's dataset-specific bin choices (100 for Flixster,
// 20 for Flickr).
func binWidthFor(env *Env) int {
	maxActual := 0
	for _, tc := range env.GroundTruth {
		if tc.Actual > maxActual {
			maxActual = tc.Actual
		}
	}
	width := maxActual / 8
	if width < 5 {
		width = 5
	}
	return width
}

// errGridFor picks the Figure 4 absolute-error grid to span the observed
// spread scale.
func errGridFor(env *Env) []int {
	maxActual := 0
	for _, tc := range env.GroundTruth {
		if tc.Actual > maxActual {
			maxActual = tc.Actual
		}
	}
	step := maxActual / 16
	if step < 1 {
		step = 1
	}
	grid := make([]int, 0, 16)
	for e := 0; e <= maxActual; e += step {
		grid = append(grid, e)
	}
	return grid
}

// kGrid returns 1 plus multiples of max(1, k/10) up to k.
func kGrid(k int) []int {
	step := k / 10
	if step < 1 {
		step = 1
	}
	grid := []int{1}
	for v := step; v <= k; v += step {
		if v != 1 {
			grid = append(grid, v)
		}
	}
	if grid[len(grid)-1] != k {
		grid = append(grid, k)
	}
	return grid
}
