package core

import (
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"testing"

	"credist/internal/actionlog"
	"credist/internal/graph"
	"credist/internal/seedsel"
)

// figure1 builds the running example of the paper (Figure 1): one action
// propagating over six users. Node ids: v=0, y=1, t=2, w=3, z=4, u=5.
// Propagation-DAG edges: v->t, y->t, v->w, t->z, v->u, t->u, w->u, z->u,
// with direct credit 1/d_in. The paper works out Gamma_{v,u}=0.75,
// Gamma_{{v,z},u}=0.875, Gamma^{V-z}_{v,u}=0.625, and for S={t,z}:
// Gamma^{V-S}_{v,u}=0.5 dropping to 0.25 once w joins S.
func figure1(t *testing.T) (*graph.Graph, *actionlog.Log) {
	t.Helper()
	b := graph.NewBuilder(6)
	edges := [][2]graph.NodeID{{0, 2}, {1, 2}, {0, 3}, {2, 4}, {0, 5}, {2, 5}, {3, 5}, {4, 5}}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	g := b.Build()
	lb := actionlog.NewBuilder(6)
	times := []actionlog.Timestamp{1, 1, 2, 2, 3, 4} // v,y,t,w,z,u
	for u, at := range times {
		if err := lb.Add(graph.NodeID(u), 0, at); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return g, lb.Build()
}

const (
	nodeV = graph.NodeID(0)
	nodeY = graph.NodeID(1)
	nodeT = graph.NodeID(2)
	nodeW = graph.NodeID(3)
	nodeZ = graph.NodeID(4)
	nodeU = graph.NodeID(5)
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFigure1EngineCredits(t *testing.T) {
	g, log := figure1(t)
	e := NewEngine(g, log, Options{})

	cases := []struct {
		v, u graph.NodeID
		want float64
	}{
		{nodeV, nodeU, 0.75},
		{nodeV, nodeT, 0.5},
		{nodeV, nodeW, 1.0},
		{nodeV, nodeZ, 0.5},
		{nodeY, nodeT, 0.5},
		{nodeT, nodeU, 0.5}, // direct 0.25 + via z 1*0.25
		{nodeW, nodeU, 0.25},
		{nodeZ, nodeU, 0.25},
	}
	for _, c := range cases {
		if got := e.Credit(0, c.v, c.u); !almostEqual(got, c.want) {
			t.Errorf("Credit(%d,%d) = %g, want %g", c.v, c.u, got, c.want)
		}
	}
}

func TestFigure1SeedSetCredit(t *testing.T) {
	g, log := figure1(t)
	ev := NewEvaluator(g, log, nil)
	if got := ev.SetCredit(0, []graph.NodeID{nodeV, nodeZ}, nodeU); !almostEqual(got, 0.875) {
		t.Errorf("Gamma_{{v,z},u} = %g, want 0.875", got)
	}
	if got := ev.SetCredit(0, []graph.NodeID{nodeV}, nodeU); !almostEqual(got, 0.75) {
		t.Errorf("Gamma_{{v},u} = %g, want 0.75", got)
	}
	if got := ev.SetCredit(0, []graph.NodeID{nodeV}, nodeV); !almostEqual(got, 1) {
		t.Errorf("Gamma_{{v},v} = %g, want 1", got)
	}
}

func TestFigure1Lemma2Update(t *testing.T) {
	g, log := figure1(t)
	eng := NewEngine(g, log, Options{})
	e := newCommitOracle(eng)
	pr := NewProbe(eng)
	// probed reads v's credit over u through the probe's replay.
	probed := func() float64 {
		row, _ := pr.replay(eng, int32(nodeV), 0)
		if i, ok := searchRow(row, int32(nodeU)); ok {
			return row[i].c
		}
		return 0
	}
	// Add t and z to the seed set; the paper computes the remaining credit
	// of v over u in the induced subgraph as 0.5, and 0.25 after w joins.
	for _, s := range []graph.NodeID{nodeT, nodeZ} {
		e.Add(s)
		pr.Commit(s, nil)
	}
	if got := e.Credit(0, nodeV, nodeU); !almostEqual(got, 0.5) {
		t.Fatalf("Gamma^{V-{t,z}}_{v,u} = %g, want 0.5", got)
	}
	if got := probed(); got != e.Credit(0, nodeV, nodeU) {
		t.Fatalf("probe replays Gamma^{V-{t,z}}_{v,u} = %g, the oracle holds %g", got, e.Credit(0, nodeV, nodeU))
	}
	e.Add(nodeW)
	pr.Commit(nodeW, nil)
	if got := e.Credit(0, nodeV, nodeU); !almostEqual(got, 0.25) {
		t.Fatalf("Gamma^{V-{t,z,w}}_{v,u} = %g, want 0.25", got)
	}
	if got := probed(); got != e.Credit(0, nodeV, nodeU) {
		t.Fatalf("probe replays Gamma^{V-{t,z,w}}_{v,u} = %g, the oracle holds %g", got, e.Credit(0, nodeV, nodeU))
	}
}

func TestFigure1MarginalGainMatchesEvaluator(t *testing.T) {
	g, log := figure1(t)
	e := NewProbe(NewEngine(g, log, Options{})).Estimator(nil)
	ev := NewEvaluator(g, log, nil)

	var seeds []graph.NodeID
	order := []graph.NodeID{nodeT, nodeV, nodeZ}
	for _, x := range order {
		for cand := graph.NodeID(0); cand < 6; cand++ {
			if contains(seeds, cand) {
				continue
			}
			want := ev.Spread(append(append([]graph.NodeID(nil), seeds...), cand), nil) - ev.Spread(seeds, nil)
			if got := e.Gain(cand); !almostEqual(got, want) {
				t.Errorf("seeds=%v Gain(%d) = %g, want %g", seeds, cand, got, want)
			}
		}
		e.Add(x)
		seeds = append(seeds, x)
	}
}

func contains(s []graph.NodeID, x graph.NodeID) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// randomInstance builds a random social graph and action log for
// property-style tests. Timestamps are integers so ties occur, exercising
// the strictly-earlier rule.
func randomInstance(rng *rand.Rand, nUsers, nActions int) (*graph.Graph, *actionlog.Log) {
	b := graph.NewBuilder(nUsers)
	for u := 0; u < nUsers; u++ {
		deg := 1 + rng.IntN(4)
		for d := 0; d < deg; d++ {
			v := graph.NodeID(rng.IntN(nUsers))
			if v != graph.NodeID(u) {
				_ = b.AddEdge(graph.NodeID(u), v)
			}
		}
	}
	g := b.Build()
	lb := actionlog.NewBuilder(nUsers)
	for a := 0; a < nActions; a++ {
		size := 2 + rng.IntN(nUsers-1)
		perm := rng.Perm(nUsers)
		for i := 0; i < size; i++ {
			_ = lb.Add(graph.NodeID(perm[i]), actionlog.ActionID(a), float64(rng.IntN(8)))
		}
	}
	return g, lb.Build()
}

func TestEngineMatchesEvaluatorOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 25; trial++ {
		g, log := randomInstance(rng, 12+rng.IntN(10), 4+rng.IntN(6))
		e := NewProbe(NewEngine(g, log, Options{})).Estimator(nil)
		ev := NewEvaluator(g, log, nil)
		var seeds []graph.NodeID
		for round := 0; round < 4; round++ {
			for cand := 0; cand < g.NumNodes(); cand++ {
				c := graph.NodeID(cand)
				if contains(seeds, c) {
					continue
				}
				want := ev.Spread(append(append([]graph.NodeID(nil), seeds...), c), nil) - ev.Spread(seeds, nil)
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

func TestEngineEntriesAccounting(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	g, log := randomInstance(rng, 20, 8)
	e := newCommitOracle(NewEngine(g, log, Options{}))
	if e.Entries() < 0 {
		t.Fatalf("negative entries %d", e.Entries())
	}
	before := e.Entries()
	e.Add(5)
	if e.Entries() > before {
		t.Fatalf("entries grew after Add: %d -> %d", before, e.Entries())
	}
	e.Add(6)
	e.Add(7)
	if e.Entries() < 0 {
		t.Fatalf("negative entries after adds: %d", e.Entries())
	}
}

func TestEngineTruncationReducesEntriesAndSpread(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 2))
	g, log := randomInstance(rng, 25, 10)
	exact := NewEngine(g, log, Options{})
	trunc := NewEngine(g, log, Options{Lambda: 0.2})
	if trunc.Entries() > exact.Entries() {
		t.Fatalf("truncated engine has more entries: %d > %d", trunc.Entries(), exact.Entries())
	}
	for u := 0; u < g.NumNodes(); u++ {
		ge, gt := NewProbe(exact).Gain(graph.NodeID(u), nil), NewProbe(trunc).Gain(graph.NodeID(u), nil)
		if gt > ge+1e-9 {
			t.Fatalf("truncated gain exceeds exact for %d: %g > %g", u, gt, ge)
		}
	}
}

func TestGainZeroForInactiveUser(t *testing.T) {
	g, log := figure1(t)
	// Rebuild with an extra user who performs nothing.
	b := graph.NewBuilder(7)
	for _, e := range g.Edges() {
		_ = b.AddEdge(e.From, e.To)
	}
	_ = b.AddEdge(6, 0)
	g2 := b.Build()
	lb := actionlog.NewBuilder(7)
	for _, tp := range log.Tuples() {
		_ = lb.Add(tp.User, tp.Action, tp.Time)
	}
	log2 := lb.Build()
	e := NewEngine(g2, log2, Options{})
	if got := NewProbe(e).Gain(6, nil); got != 0 {
		t.Fatalf("inactive user gain = %g, want 0", got)
	}
}

// TestEngineDeterministicAcrossWorkers proves the sorted-sparse UC makes
// the engine bit-for-bit reproducible: a serial build and a fully parallel
// build of the same dataset must agree exactly — not within a tolerance —
// on every marginal gain, on the CELF seed sequence and its gains, and on
// the UC entry count, both before and after seeds are committed.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 3))
	g, log := randomInstance(rng, 60, 40)
	credit := LearnTimeAware(g, log)
	for _, lambda := range []float64{0, 0.01} {
		serial := NewEngine(g, log, Options{Workers: 1, Lambda: lambda, Credit: credit})
		parallel := NewEngine(g, log, Options{Workers: runtime.GOMAXPROCS(0), Lambda: lambda, Credit: credit})
		if serial.Entries() != parallel.Entries() {
			t.Fatalf("lambda=%g: entries %d vs %d", lambda, serial.Entries(), parallel.Entries())
		}
		for u := 0; u < g.NumNodes(); u++ {
			if gs, gp := NewProbe(serial).Gain(graph.NodeID(u), nil), NewProbe(parallel).Gain(graph.NodeID(u), nil); gs != gp {
				t.Fatalf("lambda=%g: Gain(%d) not bit-identical: %b vs %b", lambda, u, gs, gp)
			}
		}
		ps, pp := NewProbe(serial).Estimator(nil), NewProbe(parallel).Estimator(nil)
		rs := seedsel.CELF(ps, 8)
		rp := seedsel.CELF(pp, 8)
		for i := range rs.Seeds {
			if rs.Seeds[i] != rp.Seeds[i] {
				t.Fatalf("lambda=%g: seed %d differs: %d vs %d", lambda, i, rs.Seeds[i], rp.Seeds[i])
			}
			if rs.Gains[i] != rp.Gains[i] {
				t.Fatalf("lambda=%g: gain %d not bit-identical: %b vs %b", lambda, i, rs.Gains[i], rp.Gains[i])
			}
		}
		os, op := newCommitOracle(serial), newCommitOracle(parallel)
		for _, s := range rs.Seeds {
			os.Add(s)
			op.Add(s)
		}
		if os.Entries() != op.Entries() {
			t.Fatalf("lambda=%g: post-selection entries %d vs %d", lambda, os.Entries(), op.Entries())
		}
		for u := 0; u < g.NumNodes(); u++ {
			if gs, gp := ps.Gain(graph.NodeID(u)), pp.Gain(graph.NodeID(u)); gs != gp {
				t.Fatalf("lambda=%g: post-selection Gain(%d): %b vs %b", lambda, u, gs, gp)
			}
		}
		// Spread evaluation is deterministic too: two evaluator instances
		// must score the selected set bit-identically (the union of seed
		// actions is walked in input order, not map order).
		ev1, ev2 := NewEvaluator(g, log, credit), NewEvaluator(g, log, credit)
		if a, b := ev1.Spread(rs.Seeds, nil), ev2.Spread(rs.Seeds, nil); a != b {
			t.Fatalf("lambda=%g: Spread not bit-identical: %b vs %b", lambda, a, b)
		}
	}
}

// TestGainOfCommittedSeedIsZero pins the sigma_cd(S+x) - sigma_cd(S)
// contract for x already in S: zero, matching the evaluator's seed dedup.
// CELF never queries a committed seed, but the batched-gain API does.
func TestGainOfCommittedSeedIsZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 8))
	g, log := randomInstance(rng, 30, 12)
	e := NewProbe(NewEngine(g, log, Options{})).Estimator(nil)
	ev := NewEvaluator(g, log, nil)
	seeds := []graph.NodeID{4, 9}
	for _, s := range seeds {
		e.Add(s)
	}
	for _, s := range seeds {
		if got := e.Gain(s); got != 0 {
			t.Errorf("Gain(%d) = %g for committed seed, want 0", s, got)
		}
		want := ev.Spread(append(append([]graph.NodeID(nil), seeds...), s), nil) - ev.Spread(seeds, nil)
		if want != 0 {
			t.Errorf("evaluator disagrees: Spread(S+%d)-Spread(S) = %g", s, want)
		}
	}
}

// TestProbeClone proves Probe.Clone gives full isolation with
// bit-identical behavior: committing seeds to a clone leaves the original
// untouched, and the clone's gains and CELF selections match — exactly —
// those of a fresh probe over a freshly scanned engine, and the oracle's
// entry count after the same commits.
func TestProbeClone(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 5))
	g, log := randomInstance(rng, 50, 30)
	credit := LearnTimeAware(g, log)
	opts := Options{Lambda: 0.001, Credit: credit}
	eng := NewEngine(g, log, opts)
	base := NewProbe(eng)
	base.Commit(7, nil)

	baseline := make([]float64, g.NumNodes())
	for u := range baseline {
		baseline[u] = base.Gain(graph.NodeID(u), nil)
	}
	baseEntries := eng.Entries()

	// Drive the clone and a from-scratch reference identically.
	clone := base.Clone()
	ref := NewProbe(NewEngine(g, log, opts))
	ref.Commit(7, nil)
	res := seedsel.CELF(clone.Estimator(nil), 6)
	refRes := seedsel.CELF(ref.Estimator(nil), 6)
	for i := range res.Seeds {
		if res.Seeds[i] != refRes.Seeds[i] || res.Gains[i] != refRes.Gains[i] {
			t.Fatalf("clone CELF diverged at %d: (%d, %b) vs (%d, %b)",
				i, res.Seeds[i], res.Gains[i], refRes.Seeds[i], refRes.Gains[i])
		}
	}
	oracle := newCommitOracle(eng)
	for _, s := range clone.Seeds() {
		oracle.Add(s)
	}
	for u := 0; u < g.NumNodes(); u++ {
		if a, b := clone.Gain(graph.NodeID(u), nil), oracle.Gain(graph.NodeID(u)); a != b {
			t.Fatalf("clone Gain(%d) = %b, the oracle gives %b", u, a, b)
		}
	}
	if oracle.Entries() >= baseEntries {
		t.Fatalf("oracle entries %d after %d commits, scanned %d", oracle.Entries(), len(clone.Seeds()), baseEntries)
	}

	// The original must be exactly as it was before the clone committed.
	if eng.Entries() != baseEntries {
		t.Fatalf("engine entries changed: %d -> %d", baseEntries, eng.Entries())
	}
	if got := base.Seeds(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("original seed set changed: %v", got)
	}
	for u := range baseline {
		if got := base.Gain(graph.NodeID(u), nil); got != baseline[u] {
			t.Fatalf("original Gain(%d) changed: %b -> %b", u, baseline[u], got)
		}
	}

	// A clone taken mid-selection continues exactly like its source, and
	// a commit to the source afterwards does not reach the clone.
	mid := base.Clone()
	mid.Commit(res.Seeds[0], nil)
	fromClone := mid.Clone()
	for u := 0; u < g.NumNodes(); u++ {
		if a, b := mid.Gain(graph.NodeID(u), nil), fromClone.Gain(graph.NodeID(u), nil); a != b {
			t.Fatalf("mid-selection clone Gain(%d): %b vs %b", u, a, b)
		}
	}
	mid.Commit(res.Seeds[1], nil)
	if got := fromClone.Seeds(); len(got) != 2 {
		t.Fatalf("a commit to the source reached the clone: %v", got)
	}
}

func TestParallelScanMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 19))
	g, log := randomInstance(rng, 40, 30)
	serial := NewEngine(g, log, Options{Workers: 1})
	parallel := NewEngine(g, log, Options{Workers: 8})
	if serial.Entries() != parallel.Entries() {
		t.Fatalf("entries differ: serial %d parallel %d", serial.Entries(), parallel.Entries())
	}
	for u := 0; u < g.NumNodes(); u++ {
		gs, gp := NewProbe(serial).Gain(graph.NodeID(u), nil), NewProbe(parallel).Gain(graph.NodeID(u), nil)
		if math.Abs(gs-gp) > 1e-12 {
			t.Fatalf("Gain(%d) differs: %g vs %g", u, gs, gp)
		}
	}
	// And after committing seeds.
	ps, pp := NewProbe(serial).Estimator(nil), NewProbe(parallel).Estimator(nil)
	ps.Add(3)
	pp.Add(3)
	for u := 0; u < g.NumNodes(); u++ {
		gs, gp := ps.Gain(graph.NodeID(u)), pp.Gain(graph.NodeID(u))
		if math.Abs(gs-gp) > 1e-12 {
			t.Fatalf("post-Add Gain(%d) differs: %g vs %g", u, gs, gp)
		}
	}
}

// TestResidentBytesAccounting pins the row-store footprint accounting: the
// heap engine's resident bytes cover at least every live cell, and the
// mapped backend reports file-backed cells as mapped, before and after a
// selection over it (which writes nothing).
func TestResidentBytesAccounting(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 5))
	g, log := randomInstance(rng, 40, 20)
	rows := NewEngine(g, log, Options{})
	n := rows.Entries()
	if n == 0 {
		t.Fatal("empty instance")
	}
	// Lower bound: every live entry occupies at least its cell.
	if rows.ResidentBytes() < n*16 {
		t.Errorf("row engine reports %d bytes for %d entries", rows.ResidentBytes(), n)
	}

	// Mapped backend: the same model served off a version-3 file must
	// report its cells as mapped, not heap — the heap number counts only
	// what the Go allocator actually holds.
	lin := DatasetLineage("resident", g, log)
	path := writeSnapshotFile(t, rows, lin, nil)
	mapped := openSnapshot(t, path, true).Engine
	if mappedAliasSupported() {
		if mapped.HeapBytes() != 0 {
			t.Errorf("mapped engine counts %d heap bytes for file-backed cells", mapped.HeapBytes())
		}
		// Every live cell and its 16-byte directory record live in the
		// mapping, bounded above by the whole file.
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if mb := mapped.MappedBytes(); mb < n*16 || mb > fi.Size() {
			t.Errorf("mapped engine reports %d mapped bytes for %d entries in a %d-byte file", mb, n, fi.Size())
		}
		if mapped.ResidentBytes() != mapped.MappedBytes() {
			t.Error("resident/mapped split disagrees before any write")
		}
		// A selection commits to a probe: nothing moves to the heap.
		heapBefore, mappedBefore := mapped.HeapBytes(), mapped.MappedBytes()
		seedsel.CELF(NewProbe(mapped).Estimator(nil), 3)
		if mapped.HeapBytes() != heapBefore || mapped.MappedBytes() != mappedBefore {
			t.Errorf("selection changed the mapped footprint: heap %d->%d mapped %d->%d",
				heapBefore, mapped.HeapBytes(), mappedBefore, mapped.MappedBytes())
		}
	}
}
