package eval

import (
	"io"
	"math"
	"strings"
	"testing"

	"credist/internal/datagen"
	"credist/internal/graph"
)

// testEnv builds a small but non-trivial environment once per test run.
func testEnv(t *testing.T) *Env {
	t.Helper()
	cfg := datagen.Config{
		Name: "eval-test", NumUsers: 400, OutDegree: 4, Reciprocity: 0.6,
		NumActions: 250, MeanInfluence: 0.07, MeanDelay: 8,
		SpontaneousPerAction: 2, ThresholdFraction: 0.4, Seed: 77,
	}
	return MakeEnv(cfg)
}

// fastOpts keeps Monte-Carlo work tiny in tests.
var fastOpts = ExpOptions{K: 5, Trials: 50, Lambda: 0.001, Seed: 7}

func TestNewEnvSplit(t *testing.T) {
	env := testEnv(t)
	if env.Train.NumActions()+env.Test.NumActions() != env.Full.NumActions() {
		t.Fatal("split lost actions")
	}
	ratio := float64(env.Test.NumActions()) / float64(env.Full.NumActions())
	if ratio < 0.15 || ratio > 0.25 {
		t.Fatalf("test ratio = %.2f, want ~0.20", ratio)
	}
	if len(env.GroundTruth) != env.Test.NumActions() {
		t.Fatalf("ground truth cases %d != test actions %d",
			len(env.GroundTruth), env.Test.NumActions())
	}
	for _, tc := range env.GroundTruth {
		if len(tc.Initiators) == 0 || tc.Actual < len(tc.Initiators) {
			t.Fatalf("bad test case %+v", tc)
		}
	}
}

func TestSection3WeightsComplete(t *testing.T) {
	env := testEnv(t)
	weights := Section3Weights(env, MethodOptions{Seed: 1})
	for _, name := range []string{"UN", "TV", "WC", "EM", "PT"} {
		if weights[name] == nil {
			t.Fatalf("missing method %s", name)
		}
	}
	// UN must be flat 0.01 everywhere there is an edge.
	g := env.Graph
	for u := int32(0); u < 20; u++ {
		for _, v := range g.Out(u) {
			if p := weights["UN"].Get(u, v); p != 0.01 {
				t.Fatalf("UN p = %g", p)
			}
		}
	}
}

func TestRunSpreadPredictionShape(t *testing.T) {
	env := testEnv(t)
	preds := Section6Predictors(env, MethodOptions{Trials: 30, Seed: 2})
	reports := RunSpreadPrediction(env, preds, 10, []int{0, 5, 10, 50})
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(reports))
	}
	for _, r := range reports {
		if len(r.Scatter) != len(env.GroundTruth) {
			t.Fatalf("%s scatter %d != cases %d", r.Method, len(r.Scatter), len(env.GroundTruth))
		}
		if r.OverallRMSE < 0 || math.IsNaN(r.OverallRMSE) {
			t.Fatalf("%s rmse %g", r.Method, r.OverallRMSE)
		}
		// Capture ratios are monotone nondecreasing in the error budget
		// and end at most at 1.
		for i := 1; i < len(r.Capture); i++ {
			if r.Capture[i].Ratio < r.Capture[i-1].Ratio {
				t.Fatalf("%s capture not monotone", r.Method)
			}
		}
		last := r.Capture[len(r.Capture)-1].Ratio
		if last < 0 || last > 1 {
			t.Fatalf("%s capture out of range: %g", r.Method, last)
		}
		// Bin counts sum to the number of cases.
		total := 0
		for _, b := range r.Bins {
			total += b.Count
		}
		if total != len(env.GroundTruth) {
			t.Fatalf("%s bins cover %d of %d", r.Method, total, len(env.GroundTruth))
		}
	}
}

func TestSeedSetsIntersection(t *testing.T) {
	var s SeedSets
	s.Add("A", []graph.NodeID{1, 2, 3})
	s.Add("B", []graph.NodeID{3, 4, 5})
	s.Add("C", []graph.NodeID{9})
	m := s.Matrix()
	if m[0][0] != 3 || m[0][1] != 1 || m[0][2] != 0 || m[1][1] != 3 {
		t.Fatalf("matrix = %v", m)
	}
	text := s.RenderMatrix()
	if !strings.Contains(text, "A") || !strings.Contains(text, "B") {
		t.Fatalf("render missing names:\n%s", text)
	}
}

func TestOverlap(t *testing.T) {
	if got := Overlap([]graph.NodeID{1, 2, 3}, []graph.NodeID{2, 3, 4}); got != 2 {
		t.Fatalf("Overlap = %d", got)
	}
}

func TestTable1(t *testing.T) {
	var sb strings.Builder
	stats := Table1(&sb, []datagen.Config{{
		Name: "tiny", NumUsers: 100, OutDegree: 3, Reciprocity: 0.5,
		NumActions: 30, MeanInfluence: 0.1, Seed: 5,
	}})
	if len(stats) != 1 || stats[0].NumActions != 30 {
		t.Fatalf("stats = %+v", stats)
	}
	if !strings.Contains(sb.String(), "tiny") {
		t.Fatal("table missing dataset name")
	}
}

func TestTable2SeedSets(t *testing.T) {
	env := testEnv(t)
	sets := Table2(io.Discard, env, fastOpts)
	if len(sets.Names) != 5 {
		t.Fatalf("methods = %v", sets.Names)
	}
	for i, seeds := range sets.Sets {
		if len(seeds) != fastOpts.K {
			t.Fatalf("method %s selected %d seeds, want %d", sets.Names[i], len(seeds), fastOpts.K)
		}
	}
	// EM and PT (its perturbation) must agree far more than EM and UN:
	// the paper's noise-robustness observation.
	emIdx, ptIdx, unIdx := indexOf(sets.Names, "EM"), indexOf(sets.Names, "PT"), indexOf(sets.Names, "UN")
	if sets.Intersection(emIdx, ptIdx) < sets.Intersection(emIdx, unIdx) {
		t.Fatalf("EM∩PT=%d < EM∩UN=%d", sets.Intersection(emIdx, ptIdx), sets.Intersection(emIdx, unIdx))
	}
}

func indexOf(names []string, want string) int {
	for i, n := range names {
		if n == want {
			return i
		}
	}
	return -1
}

func TestSelectCDAndFigure5(t *testing.T) {
	env := testEnv(t)
	res := SelectCD(env, fastOpts)
	if len(res.Seeds) != fastOpts.K {
		t.Fatalf("CD selected %d seeds", len(res.Seeds))
	}
	// Gains must be non-increasing (submodularity through CELF).
	for i := 1; i < len(res.Gains); i++ {
		if res.Gains[i] > res.Gains[i-1]+1e-9 {
			t.Fatalf("gains not monotone: %v", res.Gains)
		}
	}
	sets := Figure5(io.Discard, env, fastOpts)
	if len(sets.Names) != 3 {
		t.Fatalf("figure5 methods = %v", sets.Names)
	}
}

func TestFigure6CurvesMonotone(t *testing.T) {
	env := testEnv(t)
	curves := Figure6(io.Discard, env, fastOpts)
	if len(curves) != 5 {
		t.Fatalf("curves = %d, want 5 methods", len(curves))
	}
	for _, c := range curves {
		for i := 1; i < len(c.Spread); i++ {
			if c.Spread[i] < c.Spread[i-1]-1e-9 {
				t.Fatalf("%s spread decreases with k: %v", c.Method, c.Spread)
			}
		}
	}
}

func TestFigure7CDFasterThanMC(t *testing.T) {
	env := testEnv(t)
	opts := fastOpts
	opts.K = 3
	// Enough trials that MC greedy does meaningful work even on the toy
	// dataset; with trivially few trials the comparison is scheduler
	// noise rather than algorithmic cost.
	opts.Trials = 500
	series := Figure7(io.Discard, env, opts)
	byName := map[string]RuntimeSeries{}
	for _, s := range series {
		byName[s.Method] = s
	}
	ic := byName["IC"].Elapsed
	cd := byName["CD"].Elapsed
	if len(ic) == 0 || len(cd) == 0 {
		t.Fatal("missing series")
	}
	// Even at toy scale the CD engine beats MC greedy.
	if cd[len(cd)-1] > ic[len(ic)-1] {
		t.Fatalf("CD %v slower than IC %v", cd[len(cd)-1], ic[len(ic)-1])
	}
}

func TestScalabilityPoints(t *testing.T) {
	env := testEnv(t)
	points := Scalability(io.Discard, env, []float64{0.3, 1.0}, fastOpts)
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Tuples >= points[1].Tuples {
		t.Fatal("points not ascending in tuples")
	}
	// Full-data run defines true seeds, so its overlap is K by definition.
	if points[1].TrueSeeds != fastOpts.K {
		t.Fatalf("full-data true-seed overlap = %d, want %d", points[1].TrueSeeds, fastOpts.K)
	}
	if points[0].UCEntries <= 0 || points[1].UCEntries <= points[0].UCEntries {
		t.Fatal("UC entries should grow with tuples")
	}
}

func TestTable4LambdaTradeoff(t *testing.T) {
	env := testEnv(t)
	points := Table4(io.Discard, env, []float64{0.1, 0.001}, fastOpts)
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	coarse, fine := points[0], points[1]
	if coarse.Lambda != 0.1 || fine.Lambda != 0.001 {
		t.Fatalf("order wrong: %+v", points)
	}
	if coarse.UCEntries > fine.UCEntries {
		t.Fatal("coarser lambda should keep fewer UC entries")
	}
	if fine.TrueSeeds != fastOpts.K {
		t.Fatalf("finest lambda overlap = %d, want %d", fine.TrueSeeds, fastOpts.K)
	}
	if coarse.Spread > fine.Spread+1e-6 {
		t.Fatalf("coarse lambda spread %g exceeds fine %g", coarse.Spread, fine.Spread)
	}
}

func TestKGrid(t *testing.T) {
	grid := kGrid(50)
	if grid[0] != 1 || grid[len(grid)-1] != 50 {
		t.Fatalf("grid = %v", grid)
	}
	grid = kGrid(3)
	if grid[len(grid)-1] != 3 {
		t.Fatalf("grid = %v", grid)
	}
}

func TestBinWidthAndErrGrid(t *testing.T) {
	env := testEnv(t)
	if binWidthFor(env) < 5 {
		t.Fatal("bin width too small")
	}
	grid := errGridFor(env)
	if len(grid) < 2 || grid[0] != 0 {
		t.Fatalf("err grid = %v", grid)
	}
}

func TestNoiseRobustnessMonotone(t *testing.T) {
	env := testEnv(t)
	points := NoiseRobustness(io.Discard, env, []float64{0.05, 0.8}, fastOpts)
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// Mild noise should preserve at least as many seeds as extreme noise
	// (allowing equality: both can be perfect on tiny data).
	if points[0].Overlap < points[1].Overlap {
		t.Fatalf("5%% noise overlap %d below 80%% noise overlap %d",
			points[0].Overlap, points[1].Overlap)
	}
	for _, p := range points {
		if p.Overlap < 0 || p.Overlap > fastOpts.K {
			t.Fatalf("overlap out of range: %+v", p)
		}
	}
}

func TestLearnerComparison(t *testing.T) {
	env := testEnv(t)
	points := LearnerComparison(io.Discard, env, fastOpts)
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Spread <= 0 {
			t.Fatalf("method %s spread %g", p.Method, p.Spread)
		}
	}
	if points[0].Method != "CD" {
		t.Fatalf("first method = %s", points[0].Method)
	}
}

func TestCSVExports(t *testing.T) {
	env := testEnv(t)
	preds := Section6Predictors(env, MethodOptions{Trials: 20, Seed: 3})
	reports := RunSpreadPrediction(env, preds, 10, []int{0, 10})
	var sb strings.Builder
	if err := WritePredictionCSV(&sb, reports); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "method,bin_low,count,rmse") {
		t.Fatal("prediction CSV missing header")
	}
	sb.Reset()
	if err := WriteCaptureCSV(&sb, reports); err != nil {
		t.Fatal(err)
	}
	if strings.Count(sb.String(), "\n") != 1+len(reports)*2 {
		t.Fatalf("capture CSV rows = %d", strings.Count(sb.String(), "\n"))
	}
	sb.Reset()
	if err := WriteScatterCSV(&sb, reports); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	curves := []SpreadCurve{{Method: "CD", Ks: []int{1, 2}, Spread: []float64{1, 2}}}
	if err := WriteSpreadCurvesCSV(&sb, curves); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "CD,1,1") {
		t.Fatalf("spread CSV wrong:\n%s", sb.String())
	}
	sb.Reset()
	var sets SeedSets
	sets.Add("A", []graph.NodeID{1})
	sets.Add("B", []graph.NodeID{1})
	if err := WriteIntersectionCSV(&sb, &sets); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "A,B,1") {
		t.Fatalf("intersection CSV wrong:\n%s", sb.String())
	}
	sb.Reset()
	points := []ScalePoint{{Tuples: 10, UCEntries: 5, Spread: 1.5}}
	if err := WriteScalabilityCSV(&sb, points); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	tr := []TruncationPoint{{Lambda: 0.01, Spread: 2, TrueSeeds: 1}}
	if err := WriteTruncationCSV(&sb, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0.01,2,1") {
		t.Fatalf("truncation CSV wrong:\n%s", sb.String())
	}
}

func TestTopologyRobustness(t *testing.T) {
	base := datagen.Config{
		Name: "topo-test", NumUsers: 300, OutDegree: 4, Reciprocity: 0.5,
		NumActions: 150, MeanInfluence: 0.08, MeanDelay: 8,
		SpontaneousPerAction: 2, Seed: 31,
	}
	points := TopologyRobustness(io.Discard, base, fastOpts)
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.CDSpread <= 0 {
			t.Fatalf("topology %s: CD spread %g", p.Topology, p.CDSpread)
		}
		// Trace-based selection should never lose to structure-only
		// heuristics when scored by the trace-based model.
		if p.Lift < 1 {
			t.Fatalf("topology %s: lift %g < 1", p.Topology, p.Lift)
		}
	}
}

func TestDatagenTopologies(t *testing.T) {
	for _, topo := range []string{"pa", "er", "ws"} {
		cfg := datagen.Config{
			Name: "t-" + topo, NumUsers: 200, OutDegree: 4,
			NumActions: 40, MeanInfluence: 0.1, Seed: 3, Topology: topo,
		}
		ds := datagen.Generate(cfg)
		if ds.Graph.NumEdges() == 0 || ds.Log.NumTuples() == 0 {
			t.Fatalf("topology %s produced empty dataset", topo)
		}
	}
}

func TestFigure2And4Drivers(t *testing.T) {
	env := testEnv(t)
	opts := fastOpts
	opts.Trials = 20
	var sb strings.Builder
	reports := Figure2(&sb, env, opts)
	if len(reports) != 5 {
		t.Fatalf("figure2 methods = %d", len(reports))
	}
	if !strings.Contains(sb.String(), "RMSE vs actual spread") {
		t.Fatal("figure2 text output missing")
	}
	sb.Reset()
	reports = Figure3(&sb, env, opts)
	if len(reports) != 3 {
		t.Fatalf("figure3 methods = %d", len(reports))
	}
	sb.Reset()
	reports = Figure4(&sb, env, opts)
	if len(reports) != 3 {
		t.Fatalf("figure4 methods = %d", len(reports))
	}
	if !strings.Contains(sb.String(), "captured within absolute error") {
		t.Fatal("figure4 text output missing")
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.0KiB",
		3 << 20: "3.0MiB",
		5 << 30: "5.0GiB",
	}
	for in, want := range cases {
		if got := humanBytes(in); got != want {
			t.Errorf("humanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}
