package credist

// One benchmark per table and figure of the paper's evaluation section
// (DESIGN.md §3 maps ids to drivers), plus ablation benches for the design
// choices DESIGN.md calls out. The benches run the same drivers as
// cmd/experiments but on reduced-scale datasets so `go test -bench=.`
// finishes in minutes; cmd/experiments runs the full presets.
//
// Benchmarks report domain metrics via b.ReportMetric (spread, RMSE,
// overlap) so EXPERIMENTS.md can quote paper-vs-measured shapes directly
// from bench output.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"credist/internal/actionlog"
	"credist/internal/cascade"
	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/datagen"
	"credist/internal/eval"
	"credist/internal/graph"
	"credist/internal/probs"
	"credist/internal/ris"
	"credist/internal/seedsel"
)

// benchFlixster/benchFlickr are reduced-scale versions of the presets used
// by the per-figure benches.
func benchFlixsterCfg() datagen.Config {
	cfg := datagen.FlixsterSmall()
	cfg.NumUsers = 1500
	cfg.NumActions = 1100
	return cfg
}

func benchFlickrCfg() datagen.Config {
	cfg := datagen.FlickrSmall()
	cfg.NumUsers = 1500
	cfg.NumActions = 1100
	return cfg
}

func benchLargeCfg() datagen.Config {
	cfg := datagen.FlixsterLarge()
	cfg.NumUsers = 12000
	cfg.NumActions = 3000
	return cfg
}

var (
	benchFlixsterEnv = sync.OnceValue(func() *eval.Env { return eval.MakeEnv(benchFlixsterCfg()) })
	benchFlickrEnv   = sync.OnceValue(func() *eval.Env { return eval.MakeEnv(benchFlickrCfg()) })
	benchLargeEnv    = sync.OnceValue(func() *eval.Env { return eval.MakeEnv(benchLargeCfg()) })
)

// benchOpts are the shared reduced-scale experiment options.
var benchOpts = eval.ExpOptions{K: 25, Trials: 200, Lambda: 0.001, Seed: 1}

func BenchmarkTable1DatasetStats(b *testing.B) {
	cfgs := []datagen.Config{benchFlixsterCfg(), benchFlickrCfg()}
	for i := 0; i < b.N; i++ {
		stats := eval.Table1(io.Discard, cfgs)
		b.ReportMetric(float64(stats[0].NumTuples), "flixster-tuples")
		b.ReportMetric(float64(stats[1].NumTuples), "flickr-tuples")
	}
}

func BenchmarkTable2SeedIntersection(b *testing.B) {
	env := benchFlixsterEnv()
	for i := 0; i < b.N; i++ {
		sets := eval.Table2(io.Discard, env, benchOpts)
		// The paper's headline: EM vs ad-hoc methods is near-disjoint while
		// EM vs its perturbed version stays large.
		m := sets.Matrix()
		b.ReportMetric(float64(m[3][4]), "EM∩PT")
		b.ReportMetric(float64(m[0][3]), "UN∩EM")
	}
}

func BenchmarkFigure2SpreadPredictionError(b *testing.B) {
	env := benchFlixsterEnv()
	for i := 0; i < b.N; i++ {
		reports := eval.Figure2(io.Discard, env, benchOpts)
		for _, r := range reports {
			if r.Method == "EM" {
				b.ReportMetric(r.OverallRMSE, "EM-rmse")
			}
			if r.Method == "UN" {
				b.ReportMetric(r.OverallRMSE, "UN-rmse")
			}
		}
	}
}

func BenchmarkFigure3ModelRMSE(b *testing.B) {
	env := benchFlixsterEnv()
	for i := 0; i < b.N; i++ {
		reports := eval.Figure3(io.Discard, env, benchOpts)
		for _, r := range reports {
			b.ReportMetric(r.OverallRMSE, r.Method+"-rmse")
		}
	}
}

func BenchmarkFigure4CaptureRatio(b *testing.B) {
	env := benchFlickrEnv()
	for i := 0; i < b.N; i++ {
		reports := eval.Figure4(io.Discard, env, benchOpts)
		for _, r := range reports {
			// Capture ratio at the mid-grid error budget.
			mid := r.Capture[len(r.Capture)/2]
			b.ReportMetric(mid.Ratio, r.Method+"-capture")
		}
	}
}

func BenchmarkFigure5ModelSeedIntersection(b *testing.B) {
	env := benchFlixsterEnv()
	for i := 0; i < b.N; i++ {
		sets := eval.Figure5(io.Discard, env, benchOpts)
		m := sets.Matrix()
		b.ReportMetric(float64(m[0][2]), "IC∩CD")
		b.ReportMetric(float64(m[1][2]), "LT∩CD")
	}
}

func BenchmarkFigure6SpreadAchieved(b *testing.B) {
	env := benchFlixsterEnv()
	for i := 0; i < b.N; i++ {
		curves := eval.Figure6(io.Discard, env, benchOpts)
		for _, c := range curves {
			b.ReportMetric(c.Spread[len(c.Spread)-1], c.Method+"-spread")
		}
	}
}

func BenchmarkFigure7RunningTime(b *testing.B) {
	env := benchFlixsterEnv()
	opts := benchOpts
	opts.K = 5
	opts.Trials = 100
	for i := 0; i < b.N; i++ {
		series := eval.Figure7(io.Discard, env, opts)
		var ic, cd float64
		for _, s := range series {
			total := float64(s.Elapsed[len(s.Elapsed)-1].Milliseconds())
			switch s.Method {
			case "IC":
				ic = total
			case "CD":
				cd = total
			}
			b.ReportMetric(total, s.Method+"-ms")
		}
		if cd > 0 {
			b.ReportMetric(ic/cd, "IC/CD-speedup")
		}
	}
}

func BenchmarkFigure8Scalability(b *testing.B) {
	env := benchLargeEnv()
	for i := 0; i < b.N; i++ {
		points := eval.Scalability(io.Discard, env, []float64{0.25, 0.5, 1.0}, benchOpts)
		last := points[len(points)-1]
		b.ReportMetric(float64(last.Tuples), "tuples")
		b.ReportMetric(float64(last.Runtime.Milliseconds()), "runtime-ms")
		b.ReportMetric(float64(last.UCEntries), "uc-entries")
	}
}

func BenchmarkFigure9TrainingSize(b *testing.B) {
	env := benchLargeEnv()
	for i := 0; i < b.N; i++ {
		points := eval.Scalability(io.Discard, env, []float64{0.1, 0.5, 1.0}, benchOpts)
		// Convergence: spread at half the data vs all of it.
		b.ReportMetric(points[1].Spread, "spread@50%")
		b.ReportMetric(points[2].Spread, "spread@100%")
		b.ReportMetric(float64(points[1].TrueSeeds), "true-seeds@50%")
	}
}

func BenchmarkTable4Truncation(b *testing.B) {
	env := benchLargeEnv()
	for i := 0; i < b.N; i++ {
		points := eval.Table4(io.Discard, env, []float64{0.01, 0.001, 0.0001}, benchOpts)
		b.ReportMetric(points[0].Spread, "spread@0.01")
		b.ReportMetric(points[len(points)-1].Spread, "spread@1e-4")
		b.ReportMetric(float64(points[0].UCEntries), "entries@0.01")
		b.ReportMetric(float64(points[len(points)-1].UCEntries), "entries@1e-4")
	}
}

// --- ablations -------------------------------------------------------------

// BenchmarkAblationCELFvsGreedy quantifies the lazy-forward optimization:
// same seeds, far fewer marginal-gain evaluations.
func BenchmarkAblationCELFvsGreedy(b *testing.B) {
	env := benchFlixsterEnv()
	credit := core.LearnTimeAware(env.Graph, env.Train)
	for i := 0; i < b.N; i++ {
		eng1 := core.NewEngine(env.Graph, env.Train, core.Options{Lambda: 0.001, Credit: credit})
		celf := seedsel.CELF(core.NewProbe(eng1).Estimator(nil), 10)
		eng2 := core.NewEngine(env.Graph, env.Train, core.Options{Lambda: 0.001, Credit: credit})
		greedy := seedsel.Greedy(core.NewProbe(eng2).Estimator(nil), 10)
		b.ReportMetric(float64(celf.Lookups), "celf-lookups")
		b.ReportMetric(float64(greedy.Lookups), "greedy-lookups")
	}
}

// BenchmarkAblationDirectCredit compares the simple 1/d_in rule against
// the time-aware Eq. (9) rule on engine size and selected spread.
func BenchmarkAblationDirectCredit(b *testing.B) {
	env := benchFlixsterEnv()
	ta := core.LearnTimeAware(env.Graph, env.Train)
	scorer := core.NewEvaluator(env.Graph, env.Train, ta)
	for i := 0; i < b.N; i++ {
		simple := core.NewEngine(env.Graph, env.Train, core.Options{Lambda: 0.001})
		sRes := seedsel.CELF(core.NewProbe(simple).Estimator(nil), 10)
		timeAware := core.NewEngine(env.Graph, env.Train, core.Options{Lambda: 0.001, Credit: ta})
		tRes := seedsel.CELF(core.NewProbe(timeAware).Estimator(nil), 10)
		b.ReportMetric(scorer.Spread(sRes.Seeds, nil), "simple-spread")
		b.ReportMetric(scorer.Spread(tRes.Seeds, nil), "timeaware-spread")
		b.ReportMetric(float64(simple.Entries()), "simple-entries")
		b.ReportMetric(float64(timeAware.Entries()), "timeaware-entries")
	}
}

// --- micro-benchmarks on the core machinery --------------------------------

func BenchmarkScan(b *testing.B) {
	env := benchFlixsterEnv()
	credit := core.LearnTimeAware(env.Graph, env.Train)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewEngine(env.Graph, env.Train, core.Options{Lambda: 0.001, Credit: credit})
	}
}

func BenchmarkEngineGain(b *testing.B) {
	env := benchFlixsterEnv()
	credit := core.LearnTimeAware(env.Graph, env.Train)
	engine := core.NewEngine(env.Graph, env.Train, core.Options{Lambda: 0.001, Credit: credit})
	pr := core.NewProbe(engine)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Gain(NodeID(i%env.Graph.NumNodes()), nil)
	}
}

// BenchmarkEvaluatorSpread times exact sigma_cd over a fixed-seed stream of
// random 3-seed sets, so no one set's propagation DAGs stay hot in cache:
// plain Spread, and SpreadObj under an audience of every fourth user.
func BenchmarkEvaluatorSpread(b *testing.B) {
	env := benchFlixsterEnv()
	ev := core.NewEvaluator(env.Graph, env.Train, nil)
	rng := rand.New(rand.NewPCG(1, 3))
	sets := make([][]NodeID, 1024)
	for i := range sets {
		sets[i] = []NodeID{NodeID(rng.IntN(ev.NumUsers())), NodeID(rng.IntN(ev.NumUsers())), NodeID(rng.IntN(ev.NumUsers()))}
	}
	weights := make([]float64, ev.NumUsers())
	for u := 0; u < len(weights); u += 4 {
		weights[u] = 1
	}
	audience := &core.Objective{Weights: weights}
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.Spread(sets[i%len(sets)], nil)
		}
	})
	b.Run("audience", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.Spread(sets[i%len(sets)], audience)
		}
	})
}

func BenchmarkMCSimulationIC(b *testing.B) {
	env := benchFlixsterEnv()
	w := probs.LearnEMIC(env.Graph, env.Train, probs.EMOptions{MaxIter: 5})
	mc := cascade.NewMCEstimator(w, cascade.IC, cascade.MCOptions{Trials: 100, Seed: 1})
	seeds := []NodeID{0, 5, 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Spread(seeds)
	}
}

func BenchmarkMCSimulationLT(b *testing.B) {
	env := benchFlixsterEnv()
	w := probs.LearnLTWeights(env.Graph, env.Train)
	mc := cascade.NewMCEstimator(w, cascade.LT, cascade.MCOptions{Trials: 100, Seed: 1})
	seeds := []NodeID{0, 5, 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Spread(seeds)
	}
}

func BenchmarkEMLearning(b *testing.B) {
	env := benchFlixsterEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probs.LearnEMIC(env.Graph, env.Train, probs.EMOptions{MaxIter: 10})
	}
}

func BenchmarkTimeAwareLearning(b *testing.B) {
	env := benchFlixsterEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.LearnTimeAware(env.Graph, env.Train)
	}
}

// BenchmarkNoiseRobustness sweeps perturbation noise over the EM-learned
// probabilities and reports how many seeds survive at 20% (the paper's PT
// setting) and 80%.
func BenchmarkNoiseRobustness(b *testing.B) {
	env := benchFlixsterEnv()
	for i := 0; i < b.N; i++ {
		points := eval.NoiseRobustness(io.Discard, env, []float64{0.2, 0.8}, benchOpts)
		b.ReportMetric(float64(points[0].Overlap), "overlap@20%")
		b.ReportMetric(float64(points[1].Overlap), "overlap@80%")
	}
}

// BenchmarkLearnerComparison scores seed sets from every trace-based
// probability learner under the CD evaluator.
func BenchmarkLearnerComparison(b *testing.B) {
	env := benchFlickrEnv()
	for i := 0; i < b.N; i++ {
		points := eval.LearnerComparison(io.Discard, env, benchOpts)
		for _, p := range points {
			b.ReportMetric(p.Spread, p.Method+"-spread")
		}
	}
}

// BenchmarkAblationRISvsCD contrasts the post-paper RIS algorithm with the
// CD engine: seeds from each, cross-scored by the CD evaluator and by RIS
// sampling, plus wall-clock per method.
func BenchmarkAblationRISvsCD(b *testing.B) {
	env := benchFlixsterEnv()
	emW := probs.LearnEMIC(env.Graph, env.Train, probs.EMOptions{MaxIter: 5})
	credit := core.LearnTimeAware(env.Graph, env.Train)
	scorer := core.NewEvaluator(env.Graph, env.Train, credit)
	for i := 0; i < b.N; i++ {
		col := ris.Collect(ris.NewSampler(emW, cascade.IC), 30000, 1)
		risSeeds, _ := col.SelectSeeds(10)
		cd := core.NewEngine(env.Graph, env.Train, core.Options{Lambda: 0.001, Credit: credit})
		cdRes := seedsel.CELF(core.NewProbe(cd).Estimator(nil), 10)
		b.ReportMetric(scorer.Spread(risSeeds, nil), "ris-cdspread")
		b.ReportMetric(scorer.Spread(cdRes.Seeds, nil), "cd-cdspread")
		b.ReportMetric(col.EstimateSpread(risSeeds), "ris-icspread")
		b.ReportMetric(col.EstimateSpread(cdRes.Seeds), "cd-icspread")
	}
}

// BenchmarkParallelScan measures the engine-construction speedup from the
// sharded scan.
func BenchmarkParallelScan(b *testing.B) {
	env := benchFlixsterEnv()
	credit := core.LearnTimeAware(env.Graph, env.Train)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.NewEngine(env.Graph, env.Train, core.Options{Lambda: 0.001, Credit: credit, Workers: 1})
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.NewEngine(env.Graph, env.Train, core.Options{Lambda: 0.001, Credit: credit})
		}
	})
}

// BenchmarkAppendVsRescan is the streaming-ingest headline: extending an
// engine with a 5% held-out action tail (AppendActions scanning only the
// tail into a successor sharing the base's shards) versus the full rescan a naive
// reload pays, on the flixster-small preset. The incremental path is
// required to be >= 10x faster (ISSUE 3 acceptance); the parent benchmark
// reports the measured one-shot speedup, the sub-benchmarks give the
// steady-state ns/op.
func BenchmarkAppendVsRescan(b *testing.B) {
	cfg, ok := datagen.PresetByName("flixster-small")
	if !ok {
		b.Fatal("missing preset")
	}
	full := datagen.Generate(cfg)
	credit := core.LearnTimeAware(full.Graph, full.Log)
	opts := core.Options{Lambda: 0.001, Credit: credit}
	n := full.Log.NumActions()
	headN := n - n/20 // hold out 5%
	headLog := full.Log.Prefix(headN)
	base := core.NewEngine(full.Graph, headLog, opts)

	appendOnce := func(b *testing.B) *core.Engine {
		e, err := base.AppendActions(full.Graph, full.Log, ActionID(headN))
		if err != nil {
			b.Fatal(err)
		}
		return e
	}

	// One-shot speedup in its own sub-benchmark, so a single -benchtime=1x
	// run (the CI smoke step) still reports the ratio.
	b.Run("speedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			inc := appendOnce(b)
			appendMs := float64(time.Since(t0).Nanoseconds()) / 1e6
			t0 = time.Now()
			rescan := core.NewEngine(full.Graph, full.Log, opts)
			rescanMs := float64(time.Since(t0).Nanoseconds()) / 1e6
			if inc.Entries() != rescan.Entries() {
				b.Fatalf("append entries %d != rescan entries %d", inc.Entries(), rescan.Entries())
			}
			b.ReportMetric(appendMs, "append-ms")
			b.ReportMetric(rescanMs, "rescan-ms")
			b.ReportMetric(rescanMs/appendMs, "speedup")
		}
	})
	b.Run("append", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			appendOnce(b)
		}
	})
	b.Run("rescan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.NewEngine(full.Graph, full.Log, opts)
		}
	})
}

// BenchmarkColdStart is the durable-snapshot headline (ISSUE 4
// acceptance): restarting from a binary model snapshot versus the full
// rescan a naive restart pays, on the flixster-small preset. The rescan
// reference restores the same frozen parameters from the text format
// (the pre-snapshot state of the art, serve -params) and scans the whole
// log — re-learning would be a different model, not a restart. Two
// snapshot scenarios are measured:
//
//   - "speedup": the snapshot covers the entire log (a server
//     checkpointed via POST /snapshot and restarted) — pure load, no
//     scanning.
//   - "speedup-stale": the snapshot covers 95% and the load appends the
//     5% tail that arrived after the checkpoint.
//
// The out-of-core variants measure the mapped open against the heap load
// of the same file. Both validate every record and alias the rows in
// place; the heap load also reads the whole file into memory and checks
// its CRC:
//
//   - "speedup-mmap": one-shot mapped open vs heap load of the full
//     snapshot, reporting both and the ratio.
//   - "mmap-open": steady-state ns/op of the mapped open alone.
//
// Each speedup case runs one-shot inside the loop so the CI
// -benchtime=1x smoke still reports the ratios.
func BenchmarkColdStart(b *testing.B) {
	cfg, ok := datagen.PresetByName("flixster-small")
	if !ok {
		b.Fatal("missing preset")
	}
	full := datagen.Generate(cfg)
	n := full.Log.NumActions()
	headN := n - n/20
	headDS := &Dataset{Name: full.Name, Graph: full.Graph, Log: full.Log.Prefix(headN)}
	opts := Options{Lambda: 0.001}
	var tail []Tuple
	for a := headN; a < n; a++ {
		tail = append(tail, full.Log.Action(ActionID(a))...)
	}

	dir := b.TempDir()
	fullPath := filepath.Join(dir, "model-full.bin")
	stalePath := filepath.Join(dir, "model-head.bin")
	paramsPath := filepath.Join(dir, "params.txt")
	head := Learn(headDS, opts)
	if err := head.Save(stalePath); err != nil {
		b.Fatal(err)
	}
	if err := head.SaveParams(paramsPath); err != nil {
		b.Fatal(err)
	}
	grown, err := head.Ingest(tail)
	if err != nil {
		b.Fatal(err)
	}
	if err := grown.Save(fullPath); err != nil {
		b.Fatal(err)
	}
	combined := &Dataset{Name: full.Name, Graph: full.Graph, Log: grown.Dataset().Log}
	var snapMiB float64
	if fi, err := os.Stat(fullPath); err == nil {
		snapMiB = float64(fi.Size()) / (1 << 20)
	}

	loadOnce := func(b *testing.B, path string) *Planner {
		m, err := LoadModel(combined, path, Options{})
		if err != nil {
			b.Fatal(err)
		}
		return m.NewPlanner()
	}
	rescanOnce := func(b *testing.B) *Planner {
		m, err := LoadModel(combined, paramsPath, opts)
		if err != nil {
			b.Fatal(err)
		}
		return m.NewPlanner()
	}
	speedup := func(path string) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				loaded := loadOnce(b, path)
				loadMs := float64(time.Since(t0).Nanoseconds()) / 1e6
				t0 = time.Now()
				rescanned := rescanOnce(b)
				rescanMs := float64(time.Since(t0).Nanoseconds()) / 1e6
				if loaded.Entries() != rescanned.Entries() {
					b.Fatalf("loaded entries %d != rescanned %d", loaded.Entries(), rescanned.Entries())
				}
				b.ReportMetric(loadMs, "load-ms")
				b.ReportMetric(rescanMs, "rescan-ms")
				b.ReportMetric(rescanMs/loadMs, "speedup")
				b.ReportMetric(snapMiB, "snapshot-MiB")
			}
		}
	}

	mmapOnce := func(b *testing.B) (*Model, *Planner) {
		m, err := LoadModelMapped(combined, fullPath, Options{})
		if err != nil {
			b.Fatal(err)
		}
		return m, m.NewPlanner()
	}

	b.Run("speedup", speedup(fullPath))
	b.Run("speedup-stale", speedup(stalePath))
	b.Run("speedup-mmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			m, mp := mmapOnce(b)
			openMs := float64(time.Since(t0).Nanoseconds()) / 1e6
			t0 = time.Now()
			loaded := loadOnce(b, fullPath)
			loadMs := float64(time.Since(t0).Nanoseconds()) / 1e6
			if mp.Entries() != loaded.Entries() {
				b.Fatalf("mapped entries %d != heap-loaded %d", mp.Entries(), loaded.Entries())
			}
			b.ReportMetric(openMs, "mmap-open-ms")
			b.ReportMetric(loadMs, "heap-load-ms")
			b.ReportMetric(loadMs/openMs, "speedup")
			b.ReportMetric(snapMiB, "snapshot-MiB")
			m.Close()
		}
	})
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loadOnce(b, fullPath)
		}
	})
	b.Run("mmap-open", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, _ := mmapOnce(b)
			m.Close()
		}
	})
	b.Run("rescan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rescanOnce(b)
		}
	})
}

// BenchmarkExplainReach measures one why-reach query (five seeds, one
// target, top 10 paths) on the flixster-small preset, over 1,000
// precomputed queries cycled in order:
//
//   - "random": seeds and target drawn uniformly from the users;
//   - "celf-seeds": the five CELF seeds with a uniform target, so every
//     seed is an influential user with long action lists.
func BenchmarkExplainReach(b *testing.B) {
	cfg, ok := datagen.PresetByName("flixster-small")
	if !ok {
		b.Fatal("missing preset")
	}
	full := datagen.Generate(cfg)
	m := Learn(&Dataset{Name: full.Name, Graph: full.Graph, Log: full.Log}, Options{Lambda: 0.001})
	celfSeeds, _ := selectSeeds(m, 5)
	n := m.Dataset().NumUsers()
	type query struct {
		seeds []NodeID
		v     NodeID
	}
	queries := func(pick func(rng *rand.Rand) []NodeID) []query {
		rng := rand.New(rand.NewPCG(29, 3))
		qs := make([]query, 1000)
		for i := range qs {
			qs[i] = query{seeds: pick(rng), v: NodeID(rng.IntN(n))}
		}
		return qs
	}
	cases := []struct {
		name    string
		queries []query
	}{
		{"random", queries(func(rng *rand.Rand) []NodeID {
			seeds := make([]NodeID, 0, 5)
			for len(seeds) < 5 {
				if s := NodeID(rng.IntN(n)); !slices.Contains(seeds, s) {
					seeds = append(seeds, s)
				}
			}
			return seeds
		})},
		{"celf-seeds", queries(func(*rand.Rand) []NodeID { return celfSeeds })},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			p := m.NewPlanner()
			for _, q := range c.queries {
				mustExplainReach(b, p, q.seeds, q.v, 10)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := c.queries[i%len(c.queries)]
				explainSink, _ = p.ExplainReach(q.seeds, q.v, 10)
			}
		})
	}
}

// explainSink keeps BenchmarkExplainReach's calls from being optimized
// away.
var explainSink ReachExplanation

// coldStartBench is the per-commit cold-start record the CI bench smoke
// archives as BENCH_coldstart.json: one heap load and one mapped open of
// the same full flixster-small snapshot, with the resident split each
// backend reports.
type coldStartBench struct {
	Commit        string  `json:"commit,omitempty"`
	Date          string  `json:"date"`
	Dataset       string  `json:"dataset"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
	Entries       int64   `json:"entries"`
	HeapLoadNs    int64   `json:"heap_load_ns"`
	MmapOpenNs    int64   `json:"mmap_open_ns"`
	Speedup       float64 `json:"speedup"`
	HeapBytes     int64   `json:"heap_bytes"`
	MappedBytes   int64   `json:"mapped_bytes"`
	RowStore      string  `json:"row_store"`
}

// TestWriteColdStartBenchJSON is the CI bench smoke behind the
// BENCH_COLDSTART_JSON env var (the output path; unset skips): it times
// one heap load and one mapped open of a full flixster-small snapshot,
// checks they agree on shape, and writes the record as JSON. BENCH_COMMIT
// stamps the measured revision.
func TestWriteColdStartBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_COLDSTART_JSON")
	if out == "" {
		t.Skip("set BENCH_COLDSTART_JSON=<path> to write the cold-start bench artifact")
	}
	cfg, ok := datagen.PresetByName("flixster-small")
	if !ok {
		t.Fatal("missing preset")
	}
	full := datagen.Generate(cfg)
	ds := &Dataset{Name: full.Name, Graph: full.Graph, Log: full.Log}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := Learn(ds, Options{Lambda: 0.001}).Save(path); err != nil {
		t.Fatal(err)
	}
	var snapBytes int64
	if fi, err := os.Stat(path); err == nil {
		snapBytes = fi.Size()
	}

	t0 := time.Now()
	heap, err := LoadModel(ds, path, Options{})
	heapNs := time.Since(t0).Nanoseconds()
	if err != nil {
		t.Fatal(err)
	}
	t0 = time.Now()
	mm, err := LoadModelMapped(ds, path, Options{})
	openNs := time.Since(t0).Nanoseconds()
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	hp, mp := heap.NewPlanner(), mm.NewPlanner()
	if hp.Entries() != mp.Entries() {
		t.Fatalf("heap load has %d entries, mapped open %d", hp.Entries(), mp.Entries())
	}

	rec := coldStartBench{
		Commit:        os.Getenv("BENCH_COMMIT"),
		Date:          time.Now().UTC().Format(time.RFC3339),
		Dataset:       full.Name,
		SnapshotBytes: snapBytes,
		Entries:       hp.Entries(),
		HeapLoadNs:    heapNs,
		MmapOpenNs:    openNs,
		Speedup:       float64(heapNs) / float64(openNs),
		HeapBytes:     mp.HeapBytes(),
		MappedBytes:   mp.MappedBytes(),
		RowStore:      mp.RowStoreBackend(),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("cold start: heap load %.2f ms, mmap open %.2f ms (%.0fx), %d entries -> %s",
		float64(heapNs)/1e6, float64(openNs)/1e6, rec.Speedup, rec.Entries, out)
}

// BenchmarkCELFParallel measures the seed-selection path that ships:
// cold CELF over a read-only probe of the compacted engine
// (core.ProbeEstimator, as /seeds, Resume and the objective and
// partitioned selections run it) on the full flixster-small preset, at
// k=10 (the served prefix length) and k=50, at 1/2/4/8 workers. Nothing
// is cloned or committed into the engine; each seed commit is replayed
// onto the rows of the candidates CELF re-prices, so the cost grows with
// k. Seeds and gains are bit-identical at every worker count, so the
// sub-benchmarks differ only in wall clock. The "speedup" sub-benchmark
// runs serial-vs-8-workers at k=50 one-shot inside the loop so the CI
// -benchtime=1x smoke still reports the ratio (the >=3x acceptance target
// needs >=8 hardware threads to be observable).
func BenchmarkCELFParallel(b *testing.B) {
	cfg, ok := datagen.PresetByName("flixster-small")
	if !ok {
		b.Fatal("missing preset")
	}
	full := datagen.Generate(cfg)
	credit := core.LearnTimeAware(full.Graph, full.Log)
	base := core.NewEngine(full.Graph, full.Log, core.Options{Lambda: 0.001, Credit: credit})

	run := func(b *testing.B, k, workers int) celf.Result {
		res := celf.Run(core.NewProbe(base).Estimator(nil), k, celf.Options{Workers: workers})
		if len(res.Seeds) != k {
			b.Fatalf("selected %d seeds, want %d", len(res.Seeds), k)
		}
		return res
	}

	for _, k := range []int{10, 50} {
		serialRef := run(b, k, 1)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("k-%d/workers-%d", k, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := run(b, k, workers)
					if res.Seeds[0] != serialRef.Seeds[0] || res.Gains[k-1] != serialRef.Gains[k-1] {
						b.Fatal("parallel selection diverged from serial")
					}
				}
			})
		}
	}
	b.Run("speedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			run(b, 50, 1)
			serialMs := float64(time.Since(t0).Nanoseconds()) / 1e6
			t0 = time.Now()
			run(b, 50, 8)
			parallelMs := float64(time.Since(t0).Nanoseconds()) / 1e6
			b.ReportMetric(serialMs, "serial-ms")
			b.ReportMetric(parallelMs, "parallel8-ms")
			b.ReportMetric(serialMs/parallelMs, "speedup")
		}
	})
}

// BenchmarkUCFlixsterSmall measures the UC store on the full
// flixster-small preset: entry count, resident bytes per entry, and Gain
// throughput over every candidate. These are the numbers CHANGES.md
// tracks across UC-representation changes (the map-of-maps layout the
// sorted rows replaced measured 71.5 bytes/entry here; sorted rows with a
// column mirror 24.4; rows alone 17.9).
func BenchmarkUCFlixsterSmall(b *testing.B) {
	cfg, ok := datagen.PresetByName("flixster-small")
	if !ok {
		b.Fatal("missing preset")
	}
	full := datagen.Generate(cfg)
	credit := core.LearnTimeAware(full.Graph, full.Log)
	engine := core.NewEngine(full.Graph, full.Log, core.Options{Lambda: 0.001, Credit: credit})
	pr := core.NewProbe(engine)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Gain(NodeID(i%full.Graph.NumNodes()), nil)
	}
	// Reported after the loop: ResetTimer deletes metrics reported before it.
	b.ReportMetric(float64(engine.Entries()), "entries")
	b.ReportMetric(float64(engine.ResidentBytes())/(1<<20), "resident-MiB")
	b.ReportMetric(float64(engine.ResidentBytes())/float64(engine.Entries()), "bytes/entry")
}

// --- approximate tier: RIS serving vs the exact evaluator -------------------

// BenchmarkApproxVsExact contrasts the exact sigma_cd evaluation with a
// warm approximate-tier query at eps=0.1 on the full flixster-small
// preset: the approximate path answers by membership counting over
// pre-drawn RR samples instead of walking every credit DAG, and still
// reports an interval containing the exact value.
func BenchmarkApproxVsExact(b *testing.B) {
	cfg, ok := datagen.PresetByName("flixster-small")
	if !ok {
		b.Fatal("missing preset")
	}
	full := datagen.Generate(cfg)
	ds := &Dataset{Name: full.Name, Graph: full.Graph, Log: full.Log}
	m := Learn(ds, Options{Lambda: 0.001})
	seeds, _ := selectSeeds(m, 10)
	exact := m.Spread(seeds)
	// Warm: the first approximate query grows the pool to its eps target;
	// every later query answers from the shared samples.
	warm, err := m.ApproxSpread(seeds, ApproxOptions{Eps: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	if warm.CILow > exact || exact > warm.CIHigh {
		b.Fatalf("exact spread %g outside reported interval [%g, %g]", exact, warm.CILow, warm.CIHigh)
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m.Spread(seeds)
		}
	})
	b.Run("approx-eps0.1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.ApproxSpread(seeds, ApproxOptions{Eps: 0.1}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(warm.Samples), "samples")
	})
}

type approxBench struct {
	Commit      string  `json:"commit,omitempty"`
	Date        string  `json:"date"`
	Dataset     string  `json:"dataset"`
	Users       int     `json:"users"`
	Seeds       int     `json:"seeds"`
	Samples     int     `json:"samples"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	ExactNs     int64   `json:"exact_ns"`
	ApproxNs    int64   `json:"approx_ns"`
	Speedup     float64 `json:"speedup"`
	ExactSpread float64 `json:"exact_spread"`
	Estimate    float64 `json:"estimate"`
	CILow       float64 `json:"ci_low"`
	CIHigh      float64 `json:"ci_high"`
	AchievedEps float64 `json:"achieved_eps"`
}

// TestWriteApproxBenchJSON is the CI bench smoke behind the
// BENCH_APPROX_JSON env var (the output path; unset skips): it times the
// exact evaluator against a warm eps=0.1 approximate query on the
// flixster-small preset, checks the reported interval contains the exact
// value and that the approximate path is at least 10x faster, and writes
// the committed-baseline artifact.
func TestWriteApproxBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_APPROX_JSON")
	if out == "" {
		t.Skip("set BENCH_APPROX_JSON=<path> to write the approx bench artifact")
	}
	cfg, ok := datagen.PresetByName("flixster-small")
	if !ok {
		t.Fatal("missing preset")
	}
	full := datagen.Generate(cfg)
	ds := &Dataset{Name: full.Name, Graph: full.Graph, Log: full.Log}
	m := Learn(ds, Options{Lambda: 0.001})
	seeds, _ := selectSeeds(m, 10)
	exact := m.Spread(seeds)
	warm, err := m.ApproxSpread(seeds, ApproxOptions{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CILow > exact || exact > warm.CIHigh {
		t.Fatalf("exact spread %g outside reported interval [%g, %g]", exact, warm.CILow, warm.CIHigh)
	}
	// Steady state on both sides: several reps, best time wins, so a CI
	// scheduler hiccup cannot fail the speedup gate spuriously.
	best := func(f func()) int64 {
		bestNs := int64(1<<63 - 1)
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			f()
			if ns := time.Since(t0).Nanoseconds(); ns < bestNs {
				bestNs = ns
			}
		}
		return bestNs
	}
	exactNs := best(func() { _ = m.Spread(seeds) })
	approxNs := best(func() {
		if _, err := m.ApproxSpread(seeds, ApproxOptions{Eps: 0.1}); err != nil {
			t.Fatal(err)
		}
	})
	speedup := float64(exactNs) / float64(approxNs)
	if speedup < 10 {
		t.Fatalf("approximate tier only %.1fx faster than exact (exact %d ns, approx %d ns), want >= 10x",
			speedup, exactNs, approxNs)
	}
	rec := approxBench{
		Commit:      os.Getenv("BENCH_COMMIT"),
		Date:        time.Now().UTC().Format(time.RFC3339),
		Dataset:     full.Name,
		Users:       full.Graph.NumNodes(),
		Seeds:       len(seeds),
		Samples:     warm.Samples,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		ExactNs:     exactNs,
		ApproxNs:    approxNs,
		Speedup:     speedup,
		ExactSpread: exact,
		Estimate:    warm.Estimate,
		CILow:       warm.CILow,
		CIHigh:      warm.CIHigh,
		AchievedEps: warm.AchievedEps,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("approx vs exact: exact %.2f ms, approx %.3f ms (%.0fx), interval [%.1f, %.1f] contains %.1f -> %s",
		float64(exactNs)/1e6, float64(approxNs)/1e6, speedup, warm.CILow, warm.CIHigh, exact, out)
}

// --- set-up steps: what a server pays before its first /spread ------------

// BenchmarkSetupSteps times the steps a server started on a text log and a
// mapped snapshot takes before it answers its first /spread, on the
// flixster-small preset with its last 2% of actions held out (the
// serve-mix workload's inputs): parsing the action log and the edge
// list, alone and together as LoadDataset reads them, opening the
// snapshot mapped, and building the exact evaluator's propagation DAGs
// and direct credits. BENCH_setup.json records these per step.
func BenchmarkSetupSteps(b *testing.B) {
	cfg, ok := datagen.PresetByName("flixster-small")
	if !ok {
		b.Fatal("missing preset")
	}
	full := datagen.Generate(cfg)
	head := full.Log.Prefix(full.Log.NumActions() - full.Log.NumActions()/50)
	dir := b.TempDir()
	graphPath, logPath := filepath.Join(dir, "g.txt"), filepath.Join(dir, "log.txt")
	modelPath := filepath.Join(dir, "model.bin")
	if err := SaveDataset(&Dataset{Name: full.Name, Graph: full.Graph, Log: head}, graphPath, logPath); err != nil {
		b.Fatal(err)
	}
	ds, err := LoadDataset(full.Name, graphPath, logPath)
	if err != nil {
		b.Fatal(err)
	}
	model := Learn(ds, Options{Lambda: 0.001})
	if err := model.Save(modelPath); err != nil {
		b.Fatal(err)
	}

	b.Run("read-log", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := os.Open(logPath)
			if err != nil {
				b.Fatal(err)
			}
			l, err := actionlog.Read(f, ds.Graph.NumNodes())
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			if l.NumTuples() != ds.Log.NumTuples() {
				b.Fatalf("read %d tuples, want %d", l.NumTuples(), ds.Log.NumTuples())
			}
		}
	})
	b.Run("read-graph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := os.Open(graphPath)
			if err != nil {
				b.Fatal(err)
			}
			g, err := graph.ReadEdgeList(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			if g.NumEdges() != ds.Graph.NumEdges() {
				b.Fatalf("read %d edges, want %d", g.NumEdges(), ds.Graph.NumEdges())
			}
		}
	})
	b.Run("load-dataset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, err := LoadDataset(full.Name, graphPath, logPath)
			if err != nil {
				b.Fatal(err)
			}
			if d.Log.NumTuples() != ds.Log.NumTuples() {
				b.Fatalf("loaded %d tuples, want %d", d.Log.NumTuples(), ds.Log.NumTuples())
			}
		}
	})
	b.Run("mapped-open", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := LoadModelMapped(ds, modelPath, Options{})
			if err != nil {
				b.Fatal(err)
			}
			m.Close()
		}
	})
	b.Run("new-evaluator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ev := core.NewEvaluator(ds.Graph, ds.Log, model.credit); ev.NumActions() != ds.Log.NumActions() {
				b.Fatalf("evaluator covers %d actions, want %d", ev.NumActions(), ds.Log.NumActions())
			}
		}
	})
}
