package core

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"credist/internal/actionlog"
	"credist/internal/celf"
	"credist/internal/graph"
)

// probeInstance builds a random instance for the probe property: a denser
// graph than randomInstance (so transitive credits, and with them Lemma 2
// subtractions, are common), integer timestamps so ties occur, and two
// trailing users who perform no action at all.
func probeInstance(rng *rand.Rand) (*graph.Graph, *actionlog.Log) {
	nUsers := 10 + rng.IntN(14)
	b := graph.NewBuilder(nUsers)
	for u := 0; u < nUsers; u++ {
		for deg := 1 + rng.IntN(5); deg > 0; deg-- {
			if v := graph.NodeID(rng.IntN(nUsers)); v != graph.NodeID(u) {
				_ = b.AddEdge(graph.NodeID(u), v)
			}
		}
	}
	active := nUsers - 2
	lb := actionlog.NewBuilder(nUsers)
	nActions := 4 + rng.IntN(12)
	for a := 0; a < nActions; a++ {
		perm := rng.Perm(active)
		for _, u := range perm[:2+rng.IntN(active-1)] {
			_ = lb.Add(graph.NodeID(u), actionlog.ActionID(a), float64(rng.IntN(8)))
		}
	}
	return b.Build(), lb.Build()
}

// engineState is the part of an engine a query must not change.
type engineState struct {
	heap, mapped, entries int64
}

func stateOf(e *Engine) engineState {
	return engineState{e.HeapBytes(), e.MappedBytes(), e.Entries()}
}

// engineForm returns e itself (form 0), or e written as a snapshot and
// read back on the heap: with its shards aliasing the read buffer, so row
// offsets count from the base section rather than from the first cell
// (form 1), or decoded into heap copies, as hosts that cannot alias the
// layout read it (form 2).
func engineForm(t *testing.T, e *Engine, form int) *Engine {
	t.Helper()
	if form == 0 {
		return e
	}
	var buf bytes.Buffer
	lin := Lineage{Dataset: "form", NumUsers: e.NumNodes(), NumActions: e.NumActions()}
	if err := e.WriteSnapshot(&buf, lin, nil, nil); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	sf, err := parseSnapshot(alignedCopy(buf.Bytes()), form == 1 && mappedAliasSupported(), false)
	if err != nil {
		t.Fatalf("read engine form %d: %v", form, err)
	}
	return sf.Engine
}

// checkProbeMatchesCommit is the probe's defining property: for random
// seed sequences (duplicates, inactive users and already-committed seeds
// included) and random objectives, every gain Probe.Commit reports and
// every candidate gain Probe.Gain returns is bit-identical to GainObj on
// the commit oracle after Add-ing the same seeds in order — with the
// probe reading a scanned or mapped engine in the given form
// (engineForm), and optionally cloned from a probe that already holds
// commits — and the probed engine is left exactly as it was.
func checkProbeMatchesCommit(t *testing.T, seed uint64, lambda float64, form int, mmap bool) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	g, log := probeInstance(rng)
	n := log.NumUsers()
	opts := Options{Lambda: lambda, Workers: 1}
	if rng.IntN(2) == 0 {
		opts.Credit = LearnTimeAware(g, log)
	}
	full := NewEngine(g, log, opts)
	if mmap {
		full = openSnapshot(t, writeSnapshotFile(t, full, DatasetLineage("probe", g, log), nil), true).Engine
	}
	eng := engineForm(t, full, form)
	// The reference is scanned afresh, sharing no storage with the probed
	// engine, so a probe that wrote through to a shared row would show.
	// A third of the runs start every probe as a clone of one that
	// already holds commits.
	ref := newCommitOracle(NewEngine(g, log, opts))
	held := NewProbe(eng)
	if rng.IntN(3) == 0 {
		for k := 1 + rng.IntN(2); k > 0; k-- {
			s := graph.NodeID(rng.IntN(n))
			held.Commit(s, nil)
			ref.Add(s)
		}
	}
	before := stateOf(eng)

	delays := BuildActionDelays(log)
	pick := func(max int) []graph.NodeID {
		out := make([]graph.NodeID, rng.IntN(max+1))
		for i := range out {
			out[i] = graph.NodeID(rng.IntN(n))
		}
		if len(out) > 0 && rng.IntN(2) == 0 {
			out = append(out, out[rng.IntN(len(out))]) // a duplicate
		}
		return out
	}
	for q := 0; q < 4; q++ {
		var obj *Objective
		if rng.IntN(3) > 0 {
			obj = randomObjective(rng, log, delays)
		}
		// Blocked rivals, then base seeds, committed in order: the gain
		// each commit reports is the telescoped spread term.
		seq := append(pick(2), pick(5)...)
		want := ref.clone()
		pr := held.Clone()
		for _, s := range seq {
			w := want.GainObj(s, obj)
			want.Add(s)
			if got := pr.Commit(s, obj); got != w {
				t.Fatalf("seed=%d q=%d seq=%v: Commit(%d) = %b, the oracle gives %b", seed, q, seq, s, got, w)
			}
		}
		for x := 0; x < n; x++ {
			w := want.GainObj(graph.NodeID(x), obj)
			if got := pr.Gain(graph.NodeID(x), obj); got != w {
				t.Fatalf("seed=%d q=%d seq=%v: Gain(%d) = %b, the oracle gives %b", seed, q, seq, x, got, w)
			}
			if slices.Contains(want.seeds, graph.NodeID(x)) {
				continue // the oracle dropped the row; the probe never reads it
			}
			// Cell for cell, the replayed rows and SC are the oracle's,
			// including cells Lemma 2 removed or left too small to move a
			// gain.
			xi := int32(x)
			for _, a := range full.actionsOf[x] {
				row, sc := pr.replay(xi, a)
				if wr := want.shards[a].row(xi); !slices.Equal(row, wr) || sc != want.seedCredit(a, xi) {
					t.Fatalf("seed=%d q=%d seq=%v: node %d action %d: replayed %v sc %b, the oracle holds %v sc %b",
						seed, q, seq, x, a, row, sc, wr, want.seedCredit(a, xi))
				}
			}
		}
	}
	if after := stateOf(eng); after != before {
		t.Fatalf("seed=%d: probing changed the engine: %+v -> %+v", seed, before, after)
	}
}

// FuzzProbeMatchesCommit drives checkProbeMatchesCommit over instance
// seeds, truncation thresholds {0, 0.001, 0.05} (the largest drops many
// transitive cells, so Lemma 2 often finds the cell to lower missing, and
// pushes cells through the 1e-15 removal), every engine form
// (engineForm), and both row stores. The seed corpus, which plain go test
// runs, covers every cell of that matrix with three instances.
func FuzzProbeMatchesCommit(f *testing.F) {
	seed := uint64(0)
	for lambda := uint8(0); lambda < 3; lambda++ {
		for form := uint8(0); form < 4; form++ {
			for _, mmap := range []bool{false, true} {
				for i := 0; i < 3; i++ {
					f.Add(seed, lambda, form, mmap)
					seed++
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, lambda, form uint8, mmap bool) {
		checkProbeMatchesCommit(t, seed, []float64{0, 0.001, 0.05}[lambda%3], int(form%3), mmap)
	})
}

// commitEstimator is the in-place selection oracle: gains priced under
// obj by GainObj on the commit oracle that every seed is Added to.
type commitEstimator struct {
	*commitOracle
	obj *Objective
}

func (e commitEstimator) Gain(x graph.NodeID) float64 { return e.GainObj(x, e.obj) }

// checkProbeSelectionMatchesCommit is the selection-level probe property:
// CELF over a ProbeEstimator on a scanned engine in the given form
// (engineForm) picks the same seeds, with the same gain bits and the same
// lookup counts, as CELF over the commit oracle that Adds each seed — for
// one-shot Run and for Resume from a prefix of that run followed by Grow. mode picks the
// pricing (bit 0: a random audience/window objective) and the extras (bit
// 1: blocked rivals committed first; bit 2: per-node costs and a budget).
// The probed engine is left exactly as it was.
func checkProbeSelectionMatchesCommit(t *testing.T, seed uint64, lambda float64, form int, mode uint8) {
	rng := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
	g, log := probeInstance(rng)
	n := log.NumUsers()
	opts := Options{Lambda: lambda, Workers: 1}
	if rng.IntN(2) == 0 {
		opts.Credit = LearnTimeAware(g, log)
	}
	eng := engineForm(t, NewEngine(g, log, opts), form)
	before := stateOf(eng)

	var obj *Objective
	if mode&1 != 0 {
		obj = randomObjective(rng, log, BuildActionDelays(log))
	}
	sel := celf.Options{Workers: 1 + rng.IntN(3)}
	if mode&2 != 0 {
		for r := 1 + rng.IntN(2); r > 0; r-- {
			sel.Blocked = append(sel.Blocked, graph.NodeID(rng.IntN(n)))
		}
	}
	if mode&4 != 0 {
		sel.Costs = make([]float64, n)
		for u := range sel.Costs {
			sel.Costs[u] = 0.5 + 2*rng.Float64()
		}
		sel.Budget = 1 + 4*rng.Float64()
	}
	k := 1 + rng.IntN(6)

	// Each estimator starts fresh with the rivals committed. The oracle's
	// engine is scanned afresh, sharing no storage with the probed ones.
	commit := func() celf.Estimator {
		est := commitEstimator{commitOracle: newCommitOracle(NewEngine(g, log, opts)), obj: obj}
		for _, r := range sel.Blocked {
			est.Add(r)
		}
		return est
	}
	probe := func() celf.Estimator {
		est := NewProbe(eng).Estimator(obj)
		for _, r := range sel.Blocked {
			est.Add(r)
		}
		return est
	}
	same := func(what string, got, want celf.Result) {
		t.Helper()
		if !slices.Equal(got.Seeds, want.Seeds) || !slices.Equal(got.LookupsAt, want.LookupsAt) || got.Lookups != want.Lookups {
			t.Fatalf("seed=%d mode=%d form=%d %s: probe picked %v (lookups %v, %d), the oracle %v (lookups %v, %d)",
				seed, mode, form, what, got.Seeds, got.LookupsAt, got.Lookups, want.Seeds, want.LookupsAt, want.Lookups)
		}
		for i := range want.Gains {
			if got.Gains[i] != want.Gains[i] {
				t.Fatalf("seed=%d mode=%d form=%d %s: gain %d = %b, the oracle gives %b",
					seed, mode, form, what, i, got.Gains[i], want.Gains[i])
			}
		}
	}

	want := celf.Run(commit(), k, sel)
	same("Run", celf.Run(probe(), k, sel), want)

	prefix := celf.Prefix{}
	if len(want.Seeds) > 0 {
		p := rng.IntN(len(want.Seeds) + 1)
		prefix = celf.Prefix{Seeds: want.Seeds[:p], Gains: want.Gains[:p], LookupsAt: want.LookupsAt[:p]}
	}
	resume := func(est celf.Estimator) celf.Result {
		s, err := celf.Resume(est, prefix, sel)
		if err != nil {
			t.Fatalf("seed=%d mode=%d: Resume: %v", seed, mode, err)
		}
		return s.Grow(k + 1)
	}
	same("Resume+Grow", resume(probe()), resume(commit()))

	if after := stateOf(eng); after != before {
		t.Fatalf("seed=%d: selecting changed the engine: %+v -> %+v", seed, before, after)
	}
}

// FuzzProbeSelectionMatchesCommit drives checkProbeSelectionMatchesCommit
// over instance seeds, truncation thresholds {0, 0.001, 0.05}, every
// engine form (engineForm) and every mode: default or objective pricing,
// with and without blocked rivals, costs and a budget. The seed corpus, which
// plain go test runs, covers every cell of that matrix once.
func FuzzProbeSelectionMatchesCommit(f *testing.F) {
	seed := uint64(0)
	for lambda := uint8(0); lambda < 3; lambda++ {
		for form := uint8(0); form < 4; form++ {
			for mode := uint8(0); mode < 8; mode++ {
				f.Add(seed, lambda, form, mode)
				seed++
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, lambda, form, mode uint8) {
		checkProbeSelectionMatchesCommit(t, seed, []float64{0, 0.001, 0.05}[lambda%3], int(form%3), mode%8)
	})
}

// TestRepeatedCommitChangesNothing pins that committing a seed twice is a
// no-op, through the oracle's in-place Add and through a probe over the
// engine reopened on the heap: the seed set lists it once, and entries and every
// gain are those after a single commit.
func TestRepeatedCommitChangesNothing(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 3))
	g, log := probeInstance(rng)
	full := NewEngine(g, log, Options{Lambda: 0.001, Workers: 1})
	n := full.NumNodes()
	x := graph.NodeID(0)
	for u := 1; u < n; u++ {
		if NewProbe(full).Gain(graph.NodeID(u), nil) > NewProbe(full).Gain(x, nil) {
			x = graph.NodeID(u)
		}
	}
	once := newCommitOracle(full)
	once.Add(x)
	twice := newCommitOracle(full)
	twice.Add(x)
	twice.Add(x)
	if got := twice.Seeds(); !slices.Equal(got, []graph.NodeID{x}) {
		t.Fatalf("Seeds after a double Add(%d) = %v", x, got)
	}
	if twice.Entries() != once.Entries() {
		t.Fatalf("Entries after a double Add = %d, single Add %d", twice.Entries(), once.Entries())
	}
	for u := 0; u < n; u++ {
		if got, want := twice.Gain(graph.NodeID(u)), once.Gain(graph.NodeID(u)); got != want {
			t.Fatalf("Gain(%d) after a double Add = %b, single Add %b", u, got, want)
		}
	}

	pr := NewProbe(engineForm(t, full, 1))
	first := pr.Commit(x, nil)
	if again := pr.Commit(x, nil); again != 0 || first != NewProbe(full).Gain(x, nil) {
		t.Fatalf("Commit(%d) = %b then %b, want %b then 0", x, first, again, NewProbe(full).Gain(x, nil))
	}
	if got := pr.Seeds(); !slices.Equal(got, []graph.NodeID{x}) {
		t.Fatalf("probe Seeds after a double commit of %d = %v", x, got)
	}
	for u := 0; u < n; u++ {
		if got, want := pr.Gain(graph.NodeID(u), nil), once.Gain(graph.NodeID(u)); got != want {
			t.Fatalf("probe Gain(%d) after a double commit = %b, single Add %b", u, got, want)
		}
	}
}
