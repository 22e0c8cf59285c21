package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

// randomSeedSet draws 1 to 12 seeds over the whole universe (users with no
// action included), with duplicates, and half the time adds two or three
// participants of one action so several seeds sit in the same DAG at
// different positions.
func randomSeedSet(rng *rand.Rand, log *actionlog.Log) []graph.NodeID {
	seeds := make([]graph.NodeID, 1+rng.IntN(12))
	for i := range seeds {
		seeds[i] = graph.NodeID(rng.IntN(log.NumUsers()))
	}
	if rng.IntN(2) == 0 {
		seeds = append(seeds, seeds[rng.IntN(len(seeds))])
	}
	if rng.IntN(2) == 0 && log.NumActions() > 0 {
		tuples := log.Action(actionlog.ActionID(rng.IntN(log.NumActions())))
		for n := 2 + rng.IntN(2); n > 0 && len(tuples) > 0; n-- {
			seeds = append(seeds, tuples[rng.IntN(len(tuples))].User)
		}
	}
	rng.Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
	return seeds
}

// checkEvaluatorMatchesReference is the evaluator's defining property: on
// a random instance, under the simple or the time-aware credit rule, and
// optionally grown by Extend from a random head of the log, Spread
// (default, audience, window, both, and the two halves of a blocked
// query) and SetCredit are bit-identical to the map-based reference DP for
// a stream of random seed sets answered from the evaluator's pooled
// scratch.
func checkEvaluatorMatchesReference(t *testing.T, seed uint64, timeAware, extend bool) {
	rng := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
	g, log := probeInstance(rng)
	var credit CreditModel = SimpleCredit{}
	if timeAware {
		credit = LearnTimeAware(g, log)
	}
	ref := newRefEvaluator(g, log, credit)
	ev := NewEvaluator(g, log, credit)
	if extend {
		headN := rng.IntN(log.NumActions() + 1)
		var err error
		if ev, err = NewEvaluator(g, log.Prefix(headN), credit).Extend(g, log, actionlog.ActionID(headN)); err != nil {
			t.Fatalf("seed=%d: Extend from %d: %v", seed, headN, err)
		}
	}
	delays := BuildActionDelays(log)
	n := log.NumUsers()
	for q := 0; q < 40; q++ {
		seeds := randomSeedSet(rng, log)
		if got, want := ev.Spread(seeds, nil), ref.Spread(seeds); got != want {
			t.Fatalf("seed=%d %v: Spread = %b, reference %b", seed, seeds, got, want)
		}
		obj := randomObjective(rng, log, delays)
		switch rng.IntN(3) {
		case 0: // window only, uniform weights
			obj = &Objective{Windowed: true, Tau: float64(rng.IntN(6)), Delays: delays}
		case 1: // audience only
			obj.Windowed, obj.Tau, obj.Delays = false, 0, nil
		}
		if got, want := ev.Spread(seeds, obj), ref.SpreadObj(seeds, obj); got != want {
			t.Fatalf("seed=%d %v %+v: Spread = %b, reference %b", seed, seeds, obj, got, want)
		}
		// A blocked query evaluates the union with the rivals and the
		// rivals alone.
		blocked := randomSeedSet(rng, log)
		union := append(append([]graph.NodeID(nil), seeds...), blocked...)
		for _, set := range [][]graph.NodeID{union, blocked} {
			if got, want := ev.Spread(set, obj), ref.SpreadObj(set, obj); got != want {
				t.Fatalf("seed=%d blocked %v: Spread = %b, reference %b", seed, set, got, want)
			}
		}
		if log.NumActions() > 0 {
			a := actionlog.ActionID(rng.IntN(log.NumActions()))
			u := graph.NodeID(rng.IntN(n))
			if got, want := ev.SetCredit(a, seeds, u), ref.SetCredit(a, seeds, u); got != want {
				t.Fatalf("seed=%d: SetCredit(%d, %v, %d) = %b, reference %b", seed, a, seeds, u, got, want)
			}
		}
	}
}

// FuzzEvaluatorMatchesReference drives checkEvaluatorMatchesReference over
// instance seeds, both credit rules, and fresh vs Extend-grown
// evaluators. The seed corpus, which plain go test runs, covers every
// cell of that matrix with four instances.
func FuzzEvaluatorMatchesReference(f *testing.F) {
	seed := uint64(0)
	for _, timeAware := range []bool{false, true} {
		for _, extend := range []bool{false, true} {
			for i := 0; i < 4; i++ {
				f.Add(seed, timeAware, extend)
				seed++
			}
		}
	}
	f.Fuzz(checkEvaluatorMatchesReference)
}

// TestEvaluatorScratchEpochWrap runs queries through one scratch whose
// epoch starts at MaxUint32 and whose marks all hold a stale epoch, so
// the wrap must clear them: every answer still matches the reference.
func TestEvaluatorScratchEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 31))
	g, log := probeInstance(rng)
	credit := LearnTimeAware(g, log)
	ref, ev := newRefEvaluator(g, log, credit), NewEvaluator(g, log, credit)
	sc := ev.newScratch()
	for i := range sc.seedAt {
		sc.seedAt[i] = 1
	}
	for i := range sc.seenAt {
		sc.seenAt[i] = 1
	}
	sc.epoch = math.MaxUint32
	for q := 0; q < 20; q++ {
		seeds := randomSeedSet(rng, log)
		if got, want := ev.spread(sc, seeds, nil), ref.Spread(seeds); got != want {
			t.Fatalf("query %d (epoch %d) %v: spread = %b, reference %b", q, sc.epoch, seeds, got, want)
		}
	}
	if sc.epoch != 20 {
		t.Fatalf("epoch = %d after wrapping and 20 queries, want 20", sc.epoch)
	}
}

// TestEvaluatorSpreadZeroAllocs pins the pooled hot path: once the pool
// holds a scratch, Spread allocates nothing, with or without an objective.
func TestEvaluatorSpreadZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	rng := rand.New(rand.NewPCG(5, 8))
	g, log := probeInstance(rng)
	ev := NewEvaluator(g, log, nil)
	seeds := randomSeedSet(rng, log)
	obj := randomObjective(rng, log, BuildActionDelays(log))
	ev.Spread(seeds, nil)
	if n := testing.AllocsPerRun(100, func() { ev.Spread(seeds, nil) }); n != 0 {
		t.Errorf("Spread: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ev.Spread(seeds, obj) }); n != 0 {
		t.Errorf("Spread under an objective: %v allocs per call, want 0", n)
	}
}
