package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"credist/internal/actionlog"
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

// engineState is the part of an engine a read-only query must not change.
type engineState struct {
	heap, mapped, entries int64
	seeds                 []graph.NodeID
}

func stateOf(e *Engine) engineState {
	return engineState{e.HeapBytes(), e.MappedBytes(), e.Entries(), e.Seeds()}
}

// checkProbeMatchesCommit is the probe's defining property: for random
// seed sequences (duplicates, inactive users and already-committed seeds
// included) and random objectives, every gain Probe.Commit reports and
// every candidate gain Probe.Gain returns is bit-identical to GainObj on
// a clone of the full engine after Add-ing the same seeds in order — with
// the probe reading nparts row-range partitions of a heap or mapped
// engine, optionally carrying committed seeds of its own — and the probed
// engines are left exactly as they were.
func checkProbeMatchesCommit(t *testing.T, seed uint64, lambda float64, nparts int, mmap bool) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	g, log := probeInstance(rng)
	n := log.NumUsers()
	opts := Options{Lambda: lambda, Workers: 1}
	if rng.IntN(2) == 0 {
		opts.Credit = LearnTimeAware(g, log)
	}
	full := NewEngine(g, log, opts)
	full.Compact()
	if mmap {
		full, _, _, _ = openMapped(t, writeSnapshotFile(t, full, DatasetLineage("probe", g, log), nil))
	}
	nparts = min(nparts, n)
	parts := []*Engine{full.Clone()}
	if nparts > 1 {
		parts = parts[:0]
		for i := 0; i < nparts; i++ {
			p, err := full.Slice(i*n/nparts, (i+1)*n/nparts)
			if err != nil {
				t.Fatalf("Slice: %v", err)
			}
			parts = append(parts, p)
		}
	}
	// The reference is scanned afresh, sharing no storage with the probed
	// engines, so a probe that wrote through to a shared row would show.
	// A third of the runs probe engines that already hold committed seeds,
	// committed scatter-gather on partitions.
	ref := NewEngine(g, log, opts)
	if rng.IntN(3) == 0 {
		for k := 1 + rng.IntN(2); k > 0; k-- {
			s := graph.NodeID(rng.IntN(n))
			var owner *Engine
			for _, p := range parts {
				if p.ownsRow(s) {
					owner = p
				}
			}
			payload := owner.ExtractSeedRow(s)
			for _, p := range parts {
				p.CommitSeedRow(s, payload)
			}
			ref.Add(s)
		}
	}
	before := make([]engineState, len(parts))
	for i, p := range parts {
		before[i] = stateOf(p)
	}

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
		want := ref.Clone()
		pr := NewProbe(parts...)
		for _, s := range seq {
			w := want.GainObj(s, obj)
			want.Add(s)
			if got := pr.Commit(s, obj); got != w {
				t.Fatalf("seed=%d q=%d seq=%v: Commit(%d) = %b, clone+Add gives %b", seed, q, seq, s, got, w)
			}
		}
		for x := 0; x < n; x++ {
			w := want.GainObj(graph.NodeID(x), obj)
			if got := pr.Gain(graph.NodeID(x), obj); got != w {
				t.Fatalf("seed=%d q=%d seq=%v: Gain(%d) = %b, clone+Add gives %b", seed, q, seq, x, got, w)
			}
			if slices.Contains(want.seeds, graph.NodeID(x)) {
				continue // Add dropped the row; the probe never reads it
			}
			// Cell for cell, the replayed rows and SC are the committed
			// clone's, including cells Lemma 2 removed or left too small to
			// move a gain.
			xi := int32(x)
			owner := pr.owner(graph.NodeID(x))
			for _, a := range want.actionsOf[x] {
				row, sc := pr.replay(owner, xi, a)
				if wr := want.uc[a].row(xi); !slices.Equal(row, wr) || sc != want.seedCredit(a, xi) {
					t.Fatalf("seed=%d q=%d seq=%v: node %d action %d: replayed %v sc %b, clone+Add holds %v sc %b",
						seed, q, seq, x, a, row, sc, wr, want.seedCredit(a, xi))
				}
			}
		}
	}
	for i, p := range parts {
		if after := stateOf(p); after.heap != before[i].heap || after.mapped != before[i].mapped ||
			after.entries != before[i].entries || !slices.Equal(after.seeds, before[i].seeds) {
			t.Fatalf("seed=%d: probing changed engine %d: %+v -> %+v", seed, i, before[i], after)
		}
	}
}

// FuzzProbeMatchesCommit drives checkProbeMatchesCommit over instance
// seeds, truncation thresholds {0, 0.001, 0.05} (the largest drops many
// transitive cells, so Lemma 2 often finds the cell to lower missing, and
// pushes cells through the 1e-15 removal), partition counts {1, 2, 4, 7}
// and both row stores. The seed corpus, which plain go test runs, covers
// every cell of that matrix with three instances.
func FuzzProbeMatchesCommit(f *testing.F) {
	seed := uint64(0)
	for lambda := uint8(0); lambda < 3; lambda++ {
		for nparts := uint8(0); nparts < 4; nparts++ {
			for _, mmap := range []bool{false, true} {
				for i := 0; i < 3; i++ {
					f.Add(seed, lambda, nparts, mmap)
					seed++
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, lambda, nparts uint8, mmap bool) {
		checkProbeMatchesCommit(t, seed,
			[]float64{0, 0.001, 0.05}[lambda%3], []int{1, 2, 4, 7}[nparts%4], mmap)
	})
}
