package celf_test

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"credist/internal/cascade"
	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/datagen"
	"credist/internal/graph"
	"credist/internal/ris"
	"credist/internal/seedsel"
)

// celfDemo is a small deterministic dataset for the CD-estimator tests.
func celfDemo() *datagen.Dataset {
	return datagen.Generate(datagen.Config{
		Name: "celf-demo", NumUsers: 250, OutDegree: 4, Reciprocity: 0.6,
		NumActions: 150, MeanInfluence: 0.12, MeanDelay: 8,
		SpontaneousPerAction: 1, Seed: 7,
	})
}

// freshEngine scans the demo dataset with the given credit rule.
func freshEngine(t testing.TB, simple bool) *core.Engine {
	t.Helper()
	ds := celfDemo()
	var credit core.CreditModel
	if !simple {
		credit = core.LearnTimeAware(ds.Graph, ds.Log)
	}
	return core.NewEngine(ds.Graph, ds.Log, core.Options{Lambda: 0.001, Credit: credit})
}

func requireSameSelection(t *testing.T, what string, want, got celf.Result) {
	t.Helper()
	if len(want.Seeds) != len(got.Seeds) {
		t.Fatalf("%s: %d vs %d seeds", what, len(got.Seeds), len(want.Seeds))
	}
	spreadWant, spreadGot := 0.0, 0.0
	for i := range want.Seeds {
		if want.Seeds[i] != got.Seeds[i] || want.Gains[i] != got.Gains[i] {
			t.Fatalf("%s: diverged at seed %d: (%d, %b) vs (%d, %b)",
				what, i, got.Seeds[i], got.Gains[i], want.Seeds[i], want.Gains[i])
		}
		// Per-prefix spreads are cumulative gain sums; identical gains in
		// identical order make every prefix spread bit-identical too.
		spreadWant += want.Gains[i]
		spreadGot += got.Gains[i]
		if spreadWant != spreadGot {
			t.Fatalf("%s: prefix spread diverged at %d: %b vs %b", what, i, spreadGot, spreadWant)
		}
	}
}

// TestParallelCELFDeterministicCD is the determinism wall for the CD
// estimator: seeds and per-prefix spreads must be bit-identical for
// Workers: 1 versus GOMAXPROCS (and an explicit over-subscribed count),
// under both the time-aware and the simple credit rule.
func TestParallelCELFDeterministicCD(t *testing.T) {
	for _, simple := range []bool{false, true} {
		name := "time-aware"
		if simple {
			name = "simple"
		}
		t.Run(name, func(t *testing.T) {
			base := freshEngine(t, simple)
			serial := celf.Run(core.NewProbe(base).Estimator(nil), 25, celf.Options{Workers: 1})
			if len(serial.Seeds) != 25 {
				t.Fatalf("serial run selected %d seeds, want 25", len(serial.Seeds))
			}
			for _, workers := range []int{runtime.GOMAXPROCS(0), 4, 13} {
				parallel := celf.Run(core.NewProbe(base).Estimator(nil), 25, celf.Options{Workers: workers})
				requireSameSelection(t, name, serial, parallel)
			}
		})
	}
}

// TestParallelCELFDeterministicRIS covers the second estimator family the
// issue pins: greedy maximum coverage over RIS samples, Workers: 1 vs
// GOMAXPROCS vs an explicit fan-out.
func TestParallelCELFDeterministicRIS(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 23))
	b := graph.NewBuilder(80)
	for e := 0; e < 400; e++ {
		u, v := graph.NodeID(rng.IntN(80)), graph.NodeID(rng.IntN(80))
		if u != v {
			_ = b.AddEdge(u, v)
		}
	}
	g := b.Build()
	w := cascade.NewWeights(g)
	for u := int32(0); u < 80; u++ {
		for _, v := range g.Out(u) {
			_ = w.Set(u, v, 0.1+0.2*rng.Float64())
		}
	}
	col := ris.Collect(ris.NewSampler(w, cascade.IC), 5000, 3)
	serial := celf.Run(col.Estimator(), 12, celf.Options{Workers: 1})
	for _, workers := range []int{runtime.GOMAXPROCS(0), 4} {
		parallel := celf.Run(col.Estimator(), 12, celf.Options{Workers: workers})
		requireSameSelection(t, "ris", serial, parallel)
	}
}

// TestParallelCELFActuallyFaster asserts — not just reports — that the
// parallel gain fan-out beats serial on hardware that can express it.
// It self-skips below 4 CPUs (a 1-core runner cannot show a speedup; the
// speculative refreshes even make forced parallelism slower there, which
// is why Workers defaults to GOMAXPROCS), under -race and -short (a
// wall-clock assertion has no place in the correctness gate), and uses a
// deliberately lenient 1.25x floor with best-of-2 timing so shared CI
// runners don't flake; CI runs it in its own non-race step, and the full
// 1/2/4/8-worker curve and the ≥3x-at-8-workers target live in
// BenchmarkCELFParallel.
func TestParallelCELFActuallyFaster(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock assertion is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >=4 CPUs to observe a parallel speedup, have %d", runtime.NumCPU())
	}
	ds := datagen.Generate(datagen.Config{
		Name: "celf-speedup", NumUsers: 1500, OutDegree: 4, Reciprocity: 0.6,
		NumActions: 1100, MeanInfluence: 0.12, MeanDelay: 8,
		SpontaneousPerAction: 1, Seed: 7,
	})
	credit := core.LearnTimeAware(ds.Graph, ds.Log)
	base := core.NewEngine(ds.Graph, ds.Log, core.Options{Lambda: 0.001, Credit: credit})
	const k = 30
	bestOf2 := func(workers int) time.Duration {
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 2; i++ {
			start := time.Now()
			if res := celf.Run(core.NewProbe(base).Estimator(nil), k, celf.Options{Workers: workers}); len(res.Seeds) != k {
				t.Fatalf("selected %d seeds, want %d", len(res.Seeds), k)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	serial := bestOf2(1)
	parallel := bestOf2(4)
	if speedup := float64(serial) / float64(parallel); speedup < 1.25 {
		t.Errorf("4-worker CELF speedup = %.2fx (serial %v, parallel %v), want >= 1.25x",
			speedup, serial, parallel)
	}
}

// TestCELFMatchesGreedyOnEngine pins that the shared engine's lazy
// (and speculative-refresh) evaluation never changes the selection: CELF
// over the CD engine equals plain greedy, seed for seed, bit for bit.
func TestCELFMatchesGreedyOnEngine(t *testing.T) {
	base := freshEngine(t, false)
	greedy := seedsel.Greedy(core.NewProbe(base).Estimator(nil), 10)
	for _, workers := range []int{1, 4} {
		lazy := celf.Run(core.NewProbe(base).Estimator(nil), 10, celf.Options{Workers: workers})
		requireSameSelection(t, "greedy-vs-celf", greedy, lazy)
		if lazy.Lookups >= greedy.Lookups {
			t.Fatalf("workers=%d: CELF lookups %d not below greedy %d", workers, lazy.Lookups, greedy.Lookups)
		}
	}
}

// TestSelectionGrowIsPrefixIncremental pins the growable contract: Grow
// never rewrites the committed prefix, growing to a covered k does no
// work, and the grown selection equals a one-shot run at the larger k.
func TestSelectionGrowIsPrefixIncremental(t *testing.T) {
	base := freshEngine(t, false)
	oneShot := celf.Run(core.NewProbe(base).Estimator(nil), 20, celf.Options{Workers: 2})

	sel := celf.NewSelection(core.NewProbe(base).Estimator(nil), celf.Options{Workers: 2})
	first := sel.Grow(8)
	if len(first.Seeds) != 8 || sel.Len() != 8 {
		t.Fatalf("Grow(8) committed %d seeds", sel.Len())
	}
	lookupsAfter8 := first.Lookups
	again := sel.Grow(5)
	if len(again.Seeds) != 8 || again.Lookups != lookupsAfter8 {
		t.Fatalf("Grow(5) after Grow(8) did work: %d seeds, %d lookups (had %d)",
			len(again.Seeds), again.Lookups, lookupsAfter8)
	}
	full := sel.Grow(20)
	requireSameSelection(t, "grow-vs-oneshot", oneShot, full)
	for i := 0; i < 8; i++ {
		if full.Seeds[i] != first.Seeds[i] || full.Gains[i] != first.Gains[i] {
			t.Fatalf("growth rewrote committed seed %d", i)
		}
	}
	if full.Lookups <= lookupsAfter8 {
		t.Fatalf("growth past the prefix reported no extra lookups")
	}
	// LookupsAt is per-seed cumulative and non-decreasing.
	if len(full.LookupsAt) != 20 {
		t.Fatalf("LookupsAt has %d entries, want 20", len(full.LookupsAt))
	}
	for i := 1; i < len(full.LookupsAt); i++ {
		if full.LookupsAt[i] < full.LookupsAt[i-1] {
			t.Fatalf("LookupsAt decreases at %d", i)
		}
	}
}

// TestResumeContinuationBitIdentical pins the restored-prefix path: a
// selection resumed from the first 7 seeds of a run and grown to 15
// produces the same seeds and gains as the continuous 15-seed run.
func TestResumeContinuationBitIdentical(t *testing.T) {
	base := freshEngine(t, false)
	continuous := celf.Run(core.NewProbe(base).Estimator(nil), 15, celf.Options{Workers: 2})

	prefix := celf.Prefix{
		Seeds:     continuous.Seeds[:7],
		Gains:     continuous.Gains[:7],
		LookupsAt: continuous.LookupsAt[:7],
	}
	sel, err := celf.Resume(core.NewProbe(base).Estimator(nil), prefix, celf.Options{Workers: 2})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if sel.Len() != 7 {
		t.Fatalf("resumed selection has %d seeds, want 7", sel.Len())
	}
	resumed := sel.Grow(15)
	requireSameSelection(t, "resume-vs-continuous", continuous, resumed)
}

// TestResumeRejectsBadPrefixes covers the validation of restored input.
func TestResumeRejectsBadPrefixes(t *testing.T) {
	mk := func() *core.ProbeEstimator { return core.NewProbe(freshEngine(t, true)).Estimator(nil) }
	cases := map[string]celf.Prefix{
		"length mismatch":   {Seeds: []graph.NodeID{1, 2}, Gains: []float64{1}, LookupsAt: []int64{1, 2}},
		"out of range":      {Seeds: []graph.NodeID{100000}, Gains: []float64{1}, LookupsAt: []int64{1}},
		"negative id":       {Seeds: []graph.NodeID{-1}, Gains: []float64{1}, LookupsAt: []int64{1}},
		"duplicate seed":    {Seeds: []graph.NodeID{3, 3}, Gains: []float64{2, 1}, LookupsAt: []int64{1, 2}},
		"non-finite gain":   {Seeds: []graph.NodeID{3}, Gains: []float64{nan()}, LookupsAt: []int64{1}},
		"infinite gain too": {Seeds: []graph.NodeID{3}, Gains: []float64{inf()}, LookupsAt: []int64{1}},
	}
	for name, prefix := range cases {
		if _, err := celf.Resume(mk(), prefix, celf.Options{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

// TestCandidatePoolRestriction pins candidate pools through the shared
// engine.
func TestCandidatePoolRestriction(t *testing.T) {
	base := freshEngine(t, true)
	pool := []graph.NodeID{5, 9, 17, 40, 77}
	res := celf.Run(core.NewProbe(base).Estimator(nil), 3, celf.Options{Candidates: pool, Workers: 2})
	allowed := map[graph.NodeID]bool{}
	for _, x := range pool {
		allowed[x] = true
	}
	for _, s := range res.Seeds {
		if !allowed[s] {
			t.Fatalf("selected %d outside the candidate pool", s)
		}
	}
	if len(res.Seeds) != 3 {
		t.Fatalf("selected %d seeds, want 3", len(res.Seeds))
	}
}

// TestExhaustion: a pool smaller than k runs dry and says so.
func TestExhaustion(t *testing.T) {
	base := freshEngine(t, true)
	sel := celf.NewSelection(core.NewProbe(base).Estimator(nil), celf.Options{Candidates: []graph.NodeID{1, 2}})
	res := sel.Grow(10)
	if len(res.Seeds) != 2 || !sel.Exhausted() {
		t.Fatalf("Grow(10) over 2 candidates: %d seeds, exhausted=%v", len(res.Seeds), sel.Exhausted())
	}
	// Growing an exhausted selection is a no-op, not a rebuild.
	before := res.Lookups
	if after := sel.Grow(20); len(after.Seeds) != 2 || after.Lookups != before {
		t.Fatalf("Grow after exhaustion did work")
	}
}
