package partition_test

// The partition-count determinism wall. The whole point of row-range
// partitions is that partitioning is invisible in the numbers: seeds,
// gains, and spreads must be bit-identical — not approximately equal — at
// every partition count, worker count, and row-store backend. These tests
// pin that matrix on the facade planner, which answers every query from a
// core.Probe over one engine or many, plus ingest and checkpoint-restart
// parity at partition granularity over this package's Append and tiling.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"credist"
	"credist/internal/actionlog"
	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/graph"
	"credist/internal/partition"
	"credist/internal/seedsel"
)

// randomInstance mirrors the core test generator: a random social graph
// and action log with integer timestamps so ties occur.
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

// slicePartitions splits the (seed-free) full engine into n heap
// partitions.
func slicePartitions(t *testing.T, full *core.Engine, n int) []*core.Engine {
	t.Helper()
	ranges := partition.SplitRanges(full.NumNodes(), n)
	parts := make([]*core.Engine, len(ranges))
	for i, r := range ranges {
		p, err := full.Slice(r.Lo, r.Hi)
		if err != nil {
			t.Fatalf("Slice%v: %v", r, err)
		}
		parts[i] = p
	}
	return parts
}

// openPartitions writes one snapshot slice per range and reopens each
// through OpenSnapshot, heap-read or memory-mapped. Cleanup of the
// mappings is registered on t.
func openPartitions(t *testing.T, full *core.Engine, lin core.Lineage, n int, mmap bool) []*core.Engine {
	t.Helper()
	dir := t.TempDir()
	ranges := partition.SplitRanges(full.NumNodes(), n)
	parts := make([]*core.Engine, len(ranges))
	for i, r := range ranges {
		path := filepath.Join(dir, fmt.Sprintf("slice-%d-of-%d.bin", i, n))
		f, err := os.Create(path)
		if err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
		part, err := full.Slice(r.Lo, r.Hi)
		if err != nil {
			t.Fatalf("Slice%v: %v", r, err)
		}
		if err := part.WriteSnapshot(f, lin, nil, nil); err != nil {
			t.Fatalf("WriteSnapshot%v: %v", r, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		sf, err := core.OpenSnapshot(path, mmap)
		if err != nil {
			t.Fatalf("OpenSnapshot(%s, mmap=%t): %v", path, mmap, err)
		}
		t.Cleanup(func() { sf.Close() })
		parts[i] = sf.Engine
	}
	return parts
}

// plannerFor returns m's planner split n ways, served from in-memory
// slices of the scanned engine ("sliced") or from snapshot-slice files
// written by SaveSlices and reopened by LoadPartitions, heap-read ("heap")
// or memory-mapped ("mmap"). It also returns the model the planner serves.
// The mappings are released on t's cleanup.
func plannerFor(t *testing.T, m *credist.Model, n int, backend string) (*credist.Model, *credist.Planner) {
	t.Helper()
	pp, err := m.NewPlanner().Partition(n)
	if err != nil {
		t.Fatalf("Partition(%d): %v", n, err)
	}
	if backend == "sliced" {
		return m, pp
	}
	paths := credist.SlicePaths(filepath.Join(t.TempDir(), "model.bin"), n)
	if err := pp.SaveSlices(m, nil, paths); err != nil {
		t.Fatalf("SaveSlices: %v", err)
	}
	loaded, lp, err := credist.LoadPartitions(m.Dataset(), paths, backend == "mmap", credist.Options{})
	if err != nil {
		t.Fatalf("LoadPartitions(mmap=%t): %v", backend == "mmap", err)
	}
	t.Cleanup(func() { lp.Close() })
	return loaded, lp
}

// setProcs runs the rest of the test at GOMAXPROCS n, restoring the
// original on cleanup. Models learned through the facade keep the default
// worker knob, so the planner's gain fan-out and CELF width follow it.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestPartitionCountDeterminism is the headline wall: for partition
// counts {1, 2, 4, 7} x workers {1, GOMAXPROCS} x row stores {in-memory
// slices, heap-opened slice files, mmap-opened slice files}, the
// partitioned planner's CELF seeds and gains must be bit-identical to the
// single-engine selection, batched gains — and Gain and Gains after Add —
// must be bit-identical to the single-engine planner's, and the telescoped
// spread must be bit-identical across every cell of the matrix.
func TestPartitionCountDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 8))
	g, log := randomInstance(rng, 80, 50)
	credit := core.LearnTimeAware(g, log)
	opts := core.Options{Lambda: 0.001, Credit: credit}
	m := credist.Learn(&credist.Dataset{Name: "determinism-wall", Graph: g, Log: log}, credist.Options{Lambda: 0.001})

	full := core.NewEngine(g, log, opts)

	const k = 8
	ref := seedsel.CELF(core.NewProbe(full).Estimator(nil), k)
	if len(ref.Seeds) != k {
		t.Fatalf("reference selection found %d seeds, want %d", len(ref.Seeds), k)
	}
	refGains := make([]float64, g.NumNodes())
	allUsers := make([]graph.NodeID, g.NumNodes())
	for u := range refGains {
		allUsers[u] = graph.NodeID(u)
		refGains[u] = core.NewProbe(full).Gain(graph.NodeID(u), nil)
	}
	base := ref.Seeds[:3]
	refBased := func() []float64 {
		e := core.NewProbe(full).Estimator(nil)
		for _, s := range base {
			e.Add(s)
		}
		out := make([]float64, g.NumNodes())
		for u := range out {
			out[u] = e.Gain(graph.NodeID(u))
		}
		return out
	}()
	// The single-engine facade planner after the same Adds answers the
	// same gains: the partitioned planners below must match it.
	single := m.NewPlanner()
	for _, s := range base {
		single.Add(s)
	}
	for u := range refBased {
		if got := single.Gain(graph.NodeID(u)); got != refBased[u] {
			t.Fatalf("single-engine planner: Gain(%d) after Add = %b, reference %b", u, got, refBased[u])
		}
	}

	var refSpread float64
	var haveSpread bool
	for _, nparts := range []int{1, 2, 4, 7} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			setProcs(t, workers)
			for _, backend := range []string{"sliced", "heap", "mmap"} {
				name := fmt.Sprintf("parts=%d/workers=%d/%s", nparts, workers, backend)
				_, pp := plannerFor(t, m, nparts, backend)
				if got := pp.NumPartitions(); got != nparts {
					t.Fatalf("%s: %d partitions", name, got)
				}

				res := pp.NewSelection().Grow(k)
				for i := range ref.Seeds {
					if res.Seeds[i] != ref.Seeds[i] {
						t.Fatalf("%s: seed %d = %d, reference %d", name, i, res.Seeds[i], ref.Seeds[i])
					}
					if res.Gains[i] != ref.Gains[i] {
						t.Fatalf("%s: gain %d not bit-identical: %b vs %b", name, i, res.Gains[i], ref.Gains[i])
					}
				}

				gains, err := pp.Gains(nil, allUsers)
				if err != nil {
					t.Fatalf("%s: Gains: %v", name, err)
				}
				for u := range gains {
					if gains[u] != refGains[u] {
						t.Fatalf("%s: Gain(%d) not bit-identical: %b vs %b", name, u, gains[u], refGains[u])
					}
				}
				based, err := pp.Gains(base, allUsers)
				if err != nil {
					t.Fatalf("%s: Gains(base): %v", name, err)
				}
				for u := range based {
					if based[u] != refBased[u] {
						t.Fatalf("%s: based Gain(%d) not bit-identical: %b vs %b", name, u, based[u], refBased[u])
					}
				}

				// Add then Gain and Gains on a clone: the seeds live in the
				// clone's probe, and every answer is the single-engine
				// planner's after the same Adds.
				added := pp.Clone()
				for _, s := range base {
					added.Add(s)
				}
				addedGains, err := added.Gains(nil, allUsers)
				if err != nil {
					t.Fatalf("%s: Gains after Add: %v", name, err)
				}
				for u := range allUsers {
					want := single.Gain(graph.NodeID(u))
					if got := added.Gain(graph.NodeID(u)); got != want {
						t.Fatalf("%s: Gain(%d) after Add = %b, single-engine planner %b", name, u, got, want)
					}
					if addedGains[u] != want {
						t.Fatalf("%s: Gains[%d] after Add = %b, single-engine planner %b", name, u, addedGains[u], want)
					}
				}
				if len(pp.Seeds()) != 0 {
					t.Fatalf("%s: Add on a clone reached the planner: %v", name, pp.Seeds())
				}

				spread, err := pp.Spread(ref.Seeds)
				if err != nil {
					t.Fatalf("%s: Spread: %v", name, err)
				}
				if !haveSpread {
					refSpread, haveSpread = spread, true
				} else if spread != refSpread {
					t.Fatalf("%s: Spread not bit-identical across configs: %b vs %b", name, spread, refSpread)
				}
			}
		}
	}
	// The telescoped spread equals the selection's own gain sum exactly:
	// both commit the same seeds in the same order.
	if refSpread != ref.Spread() {
		t.Fatalf("telescoped spread %b != selection gain sum %b", refSpread, ref.Spread())
	}
}

// TestPartitionIngestParity pins ingest routing: appending a log tail
// partition-by-partition (including a tail that grows the user universe,
// absorbed by the trailing partition) must yield bit-identical seeds,
// gains, and entry accounting to a full engine over the combined log.
func TestPartitionIngestParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 2026))
	const oldUsers, newUsers, from, total = 40, 46, 25, 40
	g, combined := randomInstance(rng, newUsers, total)

	// The prefix log: actions [0, from) restricted to the old universe.
	lb := actionlog.NewBuilder(oldUsers)
	for _, tp := range combined.Tuples() {
		if int(tp.Action) < from && int(tp.User) < oldUsers {
			_ = lb.Add(tp.User, tp.Action, tp.Time)
		}
	}
	prefixLog := lb.Build()
	// Rebuild the combined log so its prefix matches exactly.
	cb := actionlog.NewBuilder(newUsers)
	for _, tp := range combined.Tuples() {
		if int(tp.Action) >= from || int(tp.User) < oldUsers {
			_ = cb.Add(tp.User, tp.Action, tp.Time)
		}
	}
	combined = cb.Build()

	opts := core.Options{Lambda: 0.001}
	fullRef := core.NewEngine(g, combined, opts)

	pre := core.NewEngine(g, prefixLog, opts)
	for _, nparts := range []int{1, 3} {
		parts, err := partition.Tile(slicePartitions(t, pre, nparts))
		if err != nil {
			t.Fatalf("Tile: %v", err)
		}
		grown, err := partition.Append(parts, g, combined, from)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if got := grown[0].NumNodes(); got != newUsers {
			t.Fatalf("grown universe %d, want %d", got, newUsers)
		}
		ranges := partition.Ranges(grown)
		if last := ranges[len(ranges)-1]; last.Hi != newUsers {
			t.Fatalf("trailing partition %v does not absorb new users (want hi=%d)", last, newUsers)
		}
		var entries int64
		for _, s := range partition.StatsOf(grown) {
			entries += s.Entries
		}
		if entries != fullRef.Entries() {
			t.Fatalf("partition entries sum %d, full engine %d", entries, fullRef.Entries())
		}
		pr := core.NewProbe(grown...)
		for u := 0; u < newUsers; u++ {
			want := core.NewProbe(fullRef).Gain(graph.NodeID(u), nil)
			if got := pr.Gain(graph.NodeID(u), nil); got != want {
				t.Fatalf("nparts=%d: post-ingest Gain(%d) not bit-identical: %b vs %b", nparts, u, got, want)
			}
		}
		res := seedsel.CELF(core.NewProbe(grown...).Estimator(nil), 5)
		refRes := seedsel.CELF(core.NewProbe(fullRef).Estimator(nil), 5)
		for i := range refRes.Seeds {
			if res.Seeds[i] != refRes.Seeds[i] || res.Gains[i] != refRes.Gains[i] {
				t.Fatalf("nparts=%d: post-ingest seed %d: (%d, %b) vs (%d, %b)",
					nparts, i, res.Seeds[i], res.Gains[i], refRes.Seeds[i], refRes.Gains[i])
			}
		}
	}
}

// TestPartitionCheckpointRestartParity pins checkpoint-restart at
// partition granularity: a selection checkpointed after k1 seeds and
// resumed on freshly loaded snapshot slices (a different partition count,
// mmap-backed) must finish bit-identically to an uninterrupted run.
func TestPartitionCheckpointRestartParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 21))
	g, log := randomInstance(rng, 60, 35)
	opts := core.Options{Lambda: 0.001}
	lin := core.DatasetLineage("restart-parity", g, log)
	full := core.NewEngine(g, log, opts)

	const k1, k = 3, 7
	ref := seedsel.CELF(core.NewProbe(full).Estimator(nil), k)

	first, err := partition.Tile(slicePartitions(t, full, 4))
	if err != nil {
		t.Fatalf("Tile: %v", err)
	}
	mid := celf.NewSelection(core.NewProbe(first...).Estimator(nil), celf.Options{}).Grow(k1)
	prefix := celf.Prefix{Seeds: mid.Seeds, Gains: mid.Gains, LookupsAt: mid.LookupsAt}

	// "Restart": reload the model as mmap slices at a different partition
	// count and resume from the checkpointed prefix.
	second, err := partition.Tile(openPartitions(t, full, lin, 2, true))
	if err != nil {
		t.Fatalf("Tile(mmap): %v", err)
	}
	sel, err := celf.Resume(core.NewProbe(second...).Estimator(nil), prefix, celf.Options{})
	if err != nil {
		t.Fatalf("ResumeSelection: %v", err)
	}
	res := sel.Grow(k)
	for i := range ref.Seeds {
		if res.Seeds[i] != ref.Seeds[i] {
			t.Fatalf("resumed seed %d = %d, uninterrupted %d", i, res.Seeds[i], ref.Seeds[i])
		}
		if res.Gains[i] != ref.Gains[i] {
			t.Fatalf("resumed gain %d not bit-identical: %b vs %b", i, res.Gains[i], ref.Gains[i])
		}
	}
}
