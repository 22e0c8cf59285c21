package core

import (
	"cmp"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

func TestSimpleCreditSumsToOne(t *testing.T) {
	g, log := figure1(t)
	p := actionlog.BuildPropagation(log, g, 0)
	for i := range p.Users {
		if len(p.Parents[i]) == 0 {
			continue
		}
		sum := 0.0
		for _, j := range p.Parents[i] {
			sum += SimpleCredit{}.Gamma(p, int32(i), j)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("direct credits of user %d sum to %g", p.Users[i], sum)
		}
	}
}

// tauMap collects c's delay edges into a map.
func tauMap(c *TimeAwareCredit) map[graph.Edge]float64 {
	m := make(map[graph.Edge]float64, len(c.tauVal))
	c.eachTau(func(v, u graph.NodeID, tau float64) { m[graph.Edge{From: v, To: u}] = tau })
	return m
}

// withStrayTau returns c plus one tau edge (n-1, n) whose head lies just
// outside the n-user influenceability table.
func withStrayTau(c *TimeAwareCredit) *TimeAwareCredit {
	n := graph.NodeID(len(c.infl))
	s := newTimeAware(c.infl, len(c.tauVal)+1)
	c.eachTau(s.addTau)
	s.addTau(n-1, n, 1)
	s.sealTau()
	return s
}

// TestTauCSRMatchesMap: Tau and Gamma read from the compressed rows equal
// the map lookups they replaced, over every (from, to) pair of the
// universe — present, absent and non-positive delays alike — and every
// parent edge of random propagations.
func TestTauCSRMatchesMap(t *testing.T) {
	mapGamma := func(tau map[graph.Edge]float64, infl []float64, p *actionlog.Propagation, child, parent int32) float64 {
		u, v := p.Users[child], p.Users[parent]
		d, ok := tau[graph.Edge{From: v, To: u}]
		if !ok || d <= 0 {
			return 0
		}
		return infl[u] / float64(len(p.Parents[child])) * math.Exp(-(p.Times[child]-p.Times[parent])/d)
	}
	rng := rand.New(rand.NewPCG(19, 19))
	for trial := 0; trial < 40; trial++ {
		g, log := randomInstance(rng, 6+rng.IntN(20), 3+rng.IntN(6))
		n := g.NumNodes()
		infl := make([]float64, n)
		for u := range infl {
			infl[u] = rng.Float64()
		}
		tau := make(map[graph.Edge]float64)
		for range rng.IntN(3 * n) {
			e := graph.Edge{From: graph.NodeID(rng.IntN(n)), To: graph.NodeID(rng.IntN(n))}
			tau[e] = rng.Float64()*8 - 1
		}
		for _, e := range g.Edges() {
			if rng.IntN(2) == 0 {
				tau[e] = rng.Float64() * 8
			}
		}
		edges := slices.SortedFunc(maps.Keys(tau), func(x, y graph.Edge) int {
			return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
		})
		c := newTimeAware(infl, len(edges))
		for _, e := range edges {
			c.addTau(e.From, e.To, tau[e])
		}
		c.sealTau()
		for v := graph.NodeID(0); int(v) <= n; v++ {
			for u := graph.NodeID(0); int(u) <= n; u++ {
				got, ok := c.Tau(v, u)
				want, wok := tau[graph.Edge{From: v, To: u}]
				if ok != wok || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d: Tau(%d,%d) = %v,%v, map %v,%v", trial, v, u, got, ok, want, wok)
				}
			}
		}
		for a := 0; a < log.NumActions(); a++ {
			p := actionlog.BuildPropagation(log, g, actionlog.ActionID(a))
			for i, ps := range p.Parents {
				for _, j := range ps {
					got, want := c.Gamma(p, int32(i), j), mapGamma(tau, infl, p, int32(i), j)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d: Gamma(action %d, %d<-%d) = %v, map %v", trial, a, i, j, got, want)
					}
				}
			}
		}
	}
}

func TestLearnTimeAwareTau(t *testing.T) {
	// Edge 0->1 observes delays 2, 4, 6: tau must be 4.
	b := graph.NewBuilder(2)
	_ = b.AddEdge(0, 1)
	g := b.Build()
	lb := actionlog.NewBuilder(2)
	for a, delay := range []float64{2, 4, 6} {
		_ = lb.Add(0, actionlog.ActionID(a), 10)
		_ = lb.Add(1, actionlog.ActionID(a), 10+delay)
	}
	credit := LearnTimeAware(g, lb.Build())
	tau, ok := credit.Tau(0, 1)
	if !ok || math.Abs(tau-4) > 1e-12 {
		t.Fatalf("tau = %g,%v, want 4", tau, ok)
	}
}

func TestLearnTimeAwareInfluenceability(t *testing.T) {
	// User 1 performs 4 actions: 2 within tau of a neighbor's action, 2
	// spontaneous. infl(1) = 0.5.
	b := graph.NewBuilder(2)
	_ = b.AddEdge(0, 1)
	g := b.Build()
	lb := actionlog.NewBuilder(2)
	// Influenced: delays 1 and 3 -> tau = 2; delay 1 <= 2 counts, delay 3
	// does not.
	_ = lb.Add(0, 0, 0)
	_ = lb.Add(1, 0, 1)
	_ = lb.Add(0, 1, 0)
	_ = lb.Add(1, 1, 3)
	// Spontaneous actions by user 1.
	_ = lb.Add(1, 2, 5)
	_ = lb.Add(1, 3, 9)
	credit := LearnTimeAware(g, lb.Build())
	// tau = (1+3)/2 = 2; influenced actions: delay 1 (yes), delay 3 (no).
	// infl = 1/4.
	if got := credit.Influenceability(1); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("infl = %g, want 0.25", got)
	}
	if got := credit.Influenceability(0); got != 0 {
		t.Fatalf("initiator-only infl = %g, want 0", got)
	}
}

func TestTimeAwareGammaDecays(t *testing.T) {
	// Same propagation structure, different delays: later adoption earns
	// less credit.
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(0, 2)
	g := b.Build()
	lb := actionlog.NewBuilder(3)
	// Training evidence to learn tau on both edges (delay 4 each).
	_ = lb.Add(0, 0, 0)
	_ = lb.Add(1, 0, 4)
	_ = lb.Add(2, 0, 4)
	// The probe action: 1 adopts fast, 2 adopts slow.
	_ = lb.Add(0, 1, 0)
	_ = lb.Add(1, 1, 1)
	_ = lb.Add(2, 1, 12)
	log := lb.Build()
	credit := LearnTimeAware(g, log)
	p := actionlog.BuildPropagation(log, g, 1)
	i1, i2 := int32(slices.Index(p.Users, 1)), int32(slices.Index(p.Users, 2))
	g1 := credit.Gamma(p, i1, p.Parents[i1][0])
	g2 := credit.Gamma(p, i2, p.Parents[i2][0])
	if g1 <= g2 {
		t.Fatalf("credit should decay with delay: fast %g, slow %g", g1, g2)
	}
}

func TestTimeAwareGammaZeroWithoutTau(t *testing.T) {
	// An edge never observed propagating earns no credit even if the
	// propagation graph contains it for a test action: tau is undefined.
	credit := &TimeAwareCredit{infl: []float64{1, 1}}
	b := graph.NewBuilder(2)
	_ = b.AddEdge(0, 1)
	g := b.Build()
	lb := actionlog.NewBuilder(2)
	_ = lb.Add(0, 0, 0)
	_ = lb.Add(1, 0, 1)
	log := lb.Build()
	p := actionlog.BuildPropagation(log, g, 0)
	i1 := int32(slices.Index(p.Users, 1))
	if got := credit.Gamma(p, i1, p.Parents[i1][0]); got != 0 {
		t.Fatalf("gamma = %g, want 0 without tau", got)
	}
}

// TestTimeAwareCreditBounded: direct credits a child assigns under Eq. 9
// sum to at most 1 on random instances (infl <= 1 and exp decay <= 1).
func TestTimeAwareCreditBounded(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		g, log := randomInstance(rng, 15, 8)
		credit := LearnTimeAware(g, log)
		for a := 0; a < log.NumActions(); a++ {
			p := actionlog.BuildPropagation(log, g, actionlog.ActionID(a))
			for i := range p.Users {
				sum := 0.0
				for _, j := range p.Parents[i] {
					gam := credit.Gamma(p, int32(i), j)
					if gam < 0 {
						return false
					}
					sum += gam
				}
				if sum > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineWithTimeAwareMatchesEvaluator(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 31))
	for trial := 0; trial < 10; trial++ {
		g, log := randomInstance(rng, 15, 6)
		credit := LearnTimeAware(g, log)
		e := NewProbe(NewEngine(g, log, Options{Credit: credit})).Estimator(nil)
		ev := NewEvaluator(g, log, credit)
		var seeds []graph.NodeID
		for round := 0; round < 3; round++ {
			for cand := 0; cand < g.NumNodes(); cand++ {
				c := graph.NodeID(cand)
				if contains(seeds, c) {
					continue
				}
				want := ev.Spread(append(append([]graph.NodeID(nil), seeds...), c), nil) - ev.Spread(seeds, nil)
				if got := e.Gain(c); math.Abs(got-want) > 1e-6 {
					t.Fatalf("trial %d: Gain(%d)=%g want %g", trial, c, got, want)
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

func TestPairCreditIdentity(t *testing.T) {
	g, log := figure1(t)
	ev := NewEvaluator(g, log, nil)
	// kappa_{v,v} = 1 whenever v acts; Figure 1 has one action so
	// kappa_{v,u} = Gamma_{v,u}(a)/1.
	if got := ev.PairCredit(nodeV, nodeV); math.Abs(got-1) > 1e-12 {
		t.Fatalf("kappa_vv = %g", got)
	}
	if got := ev.PairCredit(nodeV, nodeU); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("kappa_vu = %g, want 0.75", got)
	}
	if got := ev.PairCredit(nodeU, nodeV); got != 0 {
		t.Fatalf("kappa_uv = %g, want 0 (credit flows backward)", got)
	}
}
