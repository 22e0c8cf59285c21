package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"credist/internal/graph"
)

// randomObjective draws a non-default objective over the instance: graded
// audience weights (some zero) and, half the time, a time window.
func randomObjective(rng *rand.Rand, log interface{ NumUsers() int }, delays *ActionDelays) *Objective {
	n := log.NumUsers()
	weights := make([]float64, n)
	for u := range weights {
		switch rng.IntN(3) {
		case 0:
			weights[u] = 0
		case 1:
			weights[u] = 1
		default:
			weights[u] = rng.Float64() * 2
		}
	}
	obj := &Objective{Weights: weights}
	if rng.IntN(2) == 0 {
		obj.Windowed = true
		obj.Tau = float64(rng.IntN(6)) // delays are drawn from {0..7}
		obj.Delays = delays
	}
	return obj
}

// TestGainObjMatchesSpreadObjDelta is the objective layer's core property:
// the engine's objective marginal gain equals the evaluator's objective
// spread delta, for weighted, windowed, and combined objectives — the
// same cross-check Gain has against Spread.
func TestGainObjMatchesSpreadObjDelta(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 14))
	for trial := 0; trial < 25; trial++ {
		g, log := randomInstance(rng, 12+rng.IntN(10), 4+rng.IntN(6))
		delays := BuildActionDelays(log)
		obj := randomObjective(rng, log, delays)
		e := NewProbe(NewEngine(g, log, Options{})).Estimator(obj)
		ev := NewEvaluator(g, log, nil)
		var seeds []graph.NodeID
		for round := 0; round < 4; round++ {
			for cand := 0; cand < g.NumNodes(); cand++ {
				c := graph.NodeID(cand)
				if contains(seeds, c) {
					continue
				}
				want := ev.Spread(append(append([]graph.NodeID(nil), seeds...), c), obj) - ev.Spread(seeds, obj)
				got := e.Gain(c)
				if math.Abs(got-want) > 1e-6 {
					t.Fatalf("trial %d seeds=%v Gain(%d)=%g want %g", trial, seeds, c, got, want)
				}
			}
			next := graph.NodeID(rng.IntN(g.NumNodes()))
			if contains(seeds, next) {
				continue
			}
			e.Add(next)
			seeds = append(seeds, next)
		}
	}
}

// TestObjectiveDefaultBitIdentical pins the determinism wall's first
// brick: the default objective (nil, zero value, or explicit uniform
// weights) takes code paths whose answers are bit-identical to the
// pre-objective Gain and Spread.
func TestObjectiveDefaultBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 15))
	g, log := randomInstance(rng, 30, 12)
	pr := NewProbe(NewEngine(g, log, Options{}))
	ev := NewEvaluator(g, log, nil)
	uniform := make([]float64, log.NumUsers())
	for u := range uniform {
		uniform[u] = 1
	}
	explicit := &Objective{Weights: uniform}
	for u := 0; u < g.NumNodes(); u++ {
		x := graph.NodeID(u)
		want := pr.Gain(x, nil)
		if got := pr.Gain(x, &Objective{}); got != want {
			t.Fatalf("Gain(%d, zero) = %b, Gain(%d, nil) = %b", u, got, u, want)
		}
		if got := pr.Gain(x, explicit); got != want {
			t.Fatalf("Gain(%d, uniform) = %b, Gain(%d, nil) = %b", u, got, u, want)
		}
	}
	seeds := []graph.NodeID{3, 17, 9}
	want := ev.Spread(seeds, nil)
	if got := ev.Spread(seeds, &Objective{}); got != want {
		t.Fatalf("Spread(zero) = %b, Spread(nil) = %b", got, want)
	}
	// Explicit uniform weights are the same number but not the same bits:
	// the objective path sums each seed's self-credit per action
	// (sum_a 1/A_s) where Spread adds the algebraically equal flat 1.
	// Bit-identity for the default objective comes from taking the
	// pre-objective code path, never from arithmetic coincidence.
	if got := ev.Spread(seeds, explicit); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Spread(uniform) = %g, Spread(nil) = %g", got, want)
	}
}

// TestObjectiveWindowZero pins the window edge case: tau = 0 counts only
// same-instant participations (the action's initiators), and a window
// larger than every delay is the unwindowed objective exactly.
func TestObjectiveWindowZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 3))
	g, log := randomInstance(rng, 20, 8)
	delays := BuildActionDelays(log)
	ev := NewEvaluator(g, log, nil)
	seeds := []graph.NodeID{1, 5}
	wide := &Objective{Windowed: true, Tau: 1e9, Delays: delays}
	if got, want := ev.Spread(seeds, wide), ev.Spread(seeds, nil); math.Abs(got-want) > 1e-12 {
		t.Fatalf("wide window spread %g, unwindowed %g", got, want)
	}
	zero := &Objective{Windowed: true, Tau: 0, Delays: delays}
	if got := ev.Spread(seeds, zero); got < 0 || got > ev.Spread(seeds, nil) {
		t.Fatalf("zero-window spread %g outside [0, %g]", got, ev.Spread(seeds, nil))
	}
}

// TestObjectiveIsDefault pins which objectives take the exact
// pre-objective code path.
func TestObjectiveIsDefault(t *testing.T) {
	var nilObj *Objective
	if !nilObj.IsDefault() || !(&Objective{}).IsDefault() {
		t.Error("nil or zero objective not default")
	}
	if (&Objective{Windowed: true, Tau: 5}).IsDefault() {
		t.Error("windowed objective claims default")
	}
}

// TestActionDelays pins the delay index against the log directly.
func TestActionDelays(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 21))
	_, log := randomInstance(rng, 15, 6)
	d := BuildActionDelays(log)
	if d.NumActions() != log.NumActions() {
		t.Fatalf("delay index covers %d actions, log has %d", d.NumActions(), log.NumActions())
	}
	for a := 0; a < log.NumActions(); a++ {
		tuples := log.Action(int32(a))
		t0 := tuples[0].Time
		for _, tu := range tuples {
			got, ok := d.Delay(int32(a), tu.User)
			if !ok {
				t.Fatalf("action %d user %d missing from delay index", a, tu.User)
			}
			if got != tu.Time-t0 {
				t.Fatalf("action %d user %d delay %g, want %g", a, tu.User, got, tu.Time-t0)
			}
		}
		if _, ok := d.Delay(int32(a), graph.NodeID(log.NumUsers())); ok {
			t.Fatalf("action %d reports a delay for a non-participant", a)
		}
	}
}
