package core

import (
	"bytes"
	"cmp"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
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

func TestTimeAwareIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 61))
	g, log := randomInstance(rng, 20, 8)
	credit := LearnTimeAware(g, log)
	var buf bytes.Buffer
	if err := WriteTimeAware(&buf, credit); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTimeAware(&buf, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumNodes(); u++ {
		if a, b := credit.Influenceability(graph.NodeID(u)), back.Influenceability(graph.NodeID(u)); math.Abs(a-b) > 1e-12 {
			t.Fatalf("infl(%d) %g != %g", u, a, b)
		}
	}
	for e, tau := range tauMap(credit) {
		got, ok := back.Tau(e.From, e.To)
		if !ok || math.Abs(got-tau) > 1e-12 {
			t.Fatalf("tau(%v) %g,%v != %g", e, got, ok, tau)
		}
	}
	// Models built from original and restored parameters agree.
	ev1 := NewEvaluator(g, log, credit)
	ev2 := NewEvaluator(g, log, back)
	seeds := []graph.NodeID{0, 3, 7}
	if a, b := ev1.Spread(seeds, nil), ev2.Spread(seeds, nil); math.Abs(a-b) > 1e-9 {
		t.Fatalf("restored model spread %g != %g", b, a)
	}
}

// TestTimeAwareIOBitExact audits the %g serialization: every learned
// parameter must survive a write/read round trip with identical float64
// bits (%g with default precision is Go's shortest decimal that parses
// back to the same value), including adversarial values near the format's
// edge cases, and re-serializing the restored model must reproduce the
// file byte for byte (tau records are written in sorted edge order).
func TestTimeAwareIOBitExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(67, 67))
	g, log := randomInstance(rng, 30, 12)
	credit := LearnTimeAware(g, log)
	// Splice in values that stress shortest-float formatting: repeating
	// binary fractions, a denormal, and neighbors of representable points.
	credit.infl[0] = 1.0 / 3.0
	credit.infl[1] = 0.1 + 0.2
	credit.infl[2] = math.Nextafter(1, 2) - 1
	credit.tauVal[0] = math.Nextafter(credit.tauVal[0], math.Inf(1))

	var buf bytes.Buffer
	if err := WriteTimeAware(&buf, credit); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	back, err := ReadTimeAware(bytes.NewBufferString(first), g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	for u := range credit.infl {
		if math.Float64bits(credit.infl[u]) != math.Float64bits(back.infl[u]) {
			t.Fatalf("infl(%d) bits differ: %v -> %v", u, credit.infl[u], back.infl[u])
		}
	}
	backTau := tauMap(back)
	if len(backTau) != len(credit.tauVal) {
		t.Fatalf("tau count %d != %d", len(backTau), len(credit.tauVal))
	}
	for e, tau := range tauMap(credit) {
		got, ok := backTau[e]
		if !ok || math.Float64bits(got) != math.Float64bits(tau) {
			t.Fatalf("tau(%v) bits differ: %v -> %v", e, tau, got)
		}
	}
	var again bytes.Buffer
	if err := WriteTimeAware(&again, back); err != nil {
		t.Fatal(err)
	}
	if again.String() != first {
		t.Fatal("re-serialized params are not byte-identical")
	}
}

func TestReadTimeAwareErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus 1\n",
		"numUsers -2\n",
		"infl 0 0.5\n",             // before numUsers
		"numUsers 2\ninfl 5 0.5\n", // out of range
		"numUsers 2\ninfl 0\n",     // malformed
		"numUsers 2\ntau 0 1\n",    // malformed
		"numUsers 2\ntau a 1 2\n",  // bad from
		"numUsers 2\ntau 0 1 zz\n", // bad value
		"numUsers x\n",
		"numUsers 2\ntau 0 2 1\n",          // head outside the table
		"numUsers 2\ntau -1 0 1\n",         // negative tail
		"numUsers 2\ntau 2147483000 0 1\n", // tail far outside the table
	}
	for _, in := range cases {
		if _, err := ReadTimeAware(bytes.NewBufferString(in), 16); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// TestReadTimeAwareRejectsDuplicates pins the repeated-record hardening: a
// second numUsers header used to silently discard every parsed infl entry,
// and duplicate infl/tau records used to resolve last-wins. All three are
// now line-numbered errors.
func TestReadTimeAwareRejectsDuplicates(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantSub string
	}{
		{
			name:    "repeated numUsers header",
			in:      "numUsers 3\ninfl 0 0.5\nnumUsers 3\n",
			wantSub: "line 3: duplicate numUsers",
		},
		{
			name:    "repeated numUsers without infl",
			in:      "numUsers 3\nnumUsers 4\n",
			wantSub: "line 2: duplicate numUsers",
		},
		{
			name:    "duplicate infl record",
			in:      "numUsers 3\ninfl 1 0.5\ninfl 1 0.7\n",
			wantSub: "line 3: duplicate infl record for user 1",
		},
		{
			name:    "duplicate tau record",
			in:      "numUsers 3\ntau 0 1 2.5\ntau 0 1 9\n",
			wantSub: "line 3: duplicate tau record for edge (0,1)",
		},
		{
			name:    "duplicate tau after other edges",
			in:      "numUsers 3\ntau 0 1 2.5\ntau 1 2 3\ntau 0 1 2.5\n",
			wantSub: "line 4: duplicate tau record for edge (0,1)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTimeAware(bytes.NewBufferString(tc.in), 16)
			if err == nil {
				t.Fatalf("input %q accepted", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error = %q, want substring %q", err, tc.wantSub)
			}
		})
	}
	// Distinct records remain accepted.
	ok := "numUsers 3\ninfl 0 0.5\ninfl 1 0.25\ntau 0 1 2.5\ntau 1 0 3\n"
	if _, err := ReadTimeAware(bytes.NewBufferString(ok), 3); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
}
