package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

// instanceFromSeed deterministically derives a random instance, a nested
// pair of seed sets S ⊆ T, and a candidate x ∉ T from a quick-check seed.
func instanceFromSeed(seed uint64) (g *graph.Graph, log *actionlog.Log, s, tt []graph.NodeID, x graph.NodeID) {
	rng := rand.New(rand.NewPCG(seed, 0xabcdef))
	g, log = randomInstance(rng, 10+rng.IntN(8), 3+rng.IntN(5))
	n := g.NumNodes()
	perm := rng.Perm(n)
	sLen := rng.IntN(3)
	tLen := sLen + rng.IntN(3)
	for i := 0; i < tLen; i++ {
		tt = append(tt, graph.NodeID(perm[i]))
	}
	s = tt[:sLen]
	x = graph.NodeID(perm[tLen])
	return g, log, s, tt, x
}

// TestSpreadMonotone checks sigma_cd(S) <= sigma_cd(T) whenever S ⊆ T
// (Theorem 2, monotonicity) on random instances.
func TestSpreadMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		g, log, s, tt, _ := instanceFromSeed(seed)
		ev := NewEvaluator(g, log, nil)
		return ev.Spread(s, nil) <= ev.Spread(tt, nil)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSpreadSubmodular checks the diminishing-returns inequality
// sigma(S+x)-sigma(S) >= sigma(T+x)-sigma(T) for S ⊆ T, x ∉ T
// (Theorem 2, submodularity) on random instances.
func TestSpreadSubmodular(t *testing.T) {
	f := func(seed uint64) bool {
		g, log, s, tt, x := instanceFromSeed(seed)
		ev := NewEvaluator(g, log, nil)
		gainS := ev.Spread(append(append([]graph.NodeID(nil), s...), x), nil) - ev.Spread(s, nil)
		gainT := ev.Spread(append(append([]graph.NodeID(nil), tt...), x), nil) - ev.Spread(tt, nil)
		return gainS >= gainT-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSpreadNonNegativeAndBounded checks 0 <= sigma_cd(S) <= |V| (each
// kappa_{S,u} is a probability-like quantity in [0,1]).
func TestSpreadNonNegativeAndBounded(t *testing.T) {
	f := func(seed uint64) bool {
		g, log, _, tt, _ := instanceFromSeed(seed)
		ev := NewEvaluator(g, log, nil)
		sp := ev.Spread(tt, nil)
		return sp >= 0 && sp <= float64(g.NumNodes())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSetCreditWithinUnit checks Gamma_{S,u}(a) ∈ [0,1]: the credit a set
// earns for one activation never exceeds full credit. This is the
// normalization invariant the direct-credit rules must guarantee.
func TestSetCreditWithinUnit(t *testing.T) {
	f := func(seed uint64) bool {
		g, log, _, tt, _ := instanceFromSeed(seed)
		ev := NewEvaluator(g, log, nil)
		for a := 0; a < log.NumActions(); a++ {
			for u := 0; u < g.NumNodes(); u++ {
				c := ev.SetCredit(actionlog.ActionID(a), tt, graph.NodeID(u))
				if c < 0 || c > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineGainMatchesEvaluatorQuick cross-checks Theorem 3 (the engine's
// incremental marginal gain) against brute-force recomputation, after a
// random committed prefix.
func TestEngineGainMatchesEvaluatorQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g, log, _, tt, x := instanceFromSeed(seed)
		e := NewProbe(NewEngine(g, log, Options{})).Estimator(nil)
		ev := NewEvaluator(g, log, nil)
		for _, s := range tt {
			e.Add(s)
		}
		want := ev.Spread(append(append([]graph.NodeID(nil), tt...), x), nil) - ev.Spread(tt, nil)
		got := e.Gain(x)
		return abs(got-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineGainOrderIndependent checks that the committed-prefix order
// does not change subsequent gains (the UC/SC state depends only on the
// set, not the order, per Lemmas 2 and 3).
func TestEngineGainOrderIndependent(t *testing.T) {
	f := func(seed uint64) bool {
		g, log, _, tt, x := instanceFromSeed(seed)
		if len(tt) < 2 {
			return true
		}
		e1 := NewProbe(NewEngine(g, log, Options{})).Estimator(nil)
		e2 := NewProbe(NewEngine(g, log, Options{})).Estimator(nil)
		for _, s := range tt {
			e1.Add(s)
		}
		for i := len(tt) - 1; i >= 0; i-- {
			e2.Add(tt[i])
		}
		return abs(e1.Gain(x)-e2.Gain(x)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
