package partition

// The partition-count determinism wall. The whole point of the
// scatter-gather design is that partitioning is invisible in the numbers:
// seeds, gains, and spreads must be bit-identical — not approximately
// equal — at every partition count, worker count, and row-store backend.
// These tests pin that matrix, plus ingest and checkpoint-restart parity
// at partition granularity.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"credist/internal/actionlog"
	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/graph"
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
	ranges := SplitRanges(full.NumNodes(), n)
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
	ranges := SplitRanges(full.NumNodes(), n)
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
		if err := part.WriteSnapshot(f, lin, nil, nil, nil); err != nil {
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

// TestPartitionCountDeterminism is the headline wall: for partition
// counts {1, 2, 4, 7} x workers {1, GOMAXPROCS} x row stores {in-memory
// slices, heap-opened slice files, mmap-opened slice files}, the coordinator's CELF seeds and gains must be
// bit-identical to the single-engine selection, batched gains must be
// bit-identical to single-engine Gain, and the telescoped spread must be
// bit-identical across every cell of the matrix.
func TestPartitionCountDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 8))
	g, log := randomInstance(rng, 80, 50)
	credit := core.LearnTimeAware(g, log)
	opts := core.Options{Lambda: 0.001, Credit: credit}
	lin := core.DatasetLineage("determinism-wall", g, log)

	full := core.NewEngine(g, log, opts)

	const k = 8
	ref := seedsel.CELF(core.NewProbeEstimator(nil, full), k)
	if len(ref.Seeds) != k {
		t.Fatalf("reference selection found %d seeds, want %d", len(ref.Seeds), k)
	}
	refGains := make([]float64, g.NumNodes())
	allUsers := make([]graph.NodeID, g.NumNodes())
	for u := range refGains {
		allUsers[u] = graph.NodeID(u)
		refGains[u] = full.Gain(graph.NodeID(u))
	}
	base := ref.Seeds[:3]
	refBased := func() []float64 {
		e := core.NewProbeEstimator(nil, full)
		for _, s := range base {
			e.Add(s)
		}
		out := make([]float64, g.NumNodes())
		for u := range out {
			out[u] = e.Gain(graph.NodeID(u))
		}
		return out
	}()

	var refSpread float64
	var haveSpread bool
	for _, nparts := range []int{1, 2, 4, 7} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			for _, backend := range []string{"sliced", "heap", "mmap"} {
				name := fmt.Sprintf("parts=%d/workers=%d/%s", nparts, workers, backend)
				var parts []*core.Engine
				if backend == "sliced" {
					parts = slicePartitions(t, full, nparts)
				} else {
					parts = openPartitions(t, full, lin, nparts, backend == "mmap")
				}
				coord, err := New(parts, workers)
				if err != nil {
					t.Fatalf("%s: New: %v", name, err)
				}
				if got := coord.NumPartitions(); got != nparts {
					t.Fatalf("%s: %d partitions", name, got)
				}

				res := coord.NewSelection(celf.Options{Workers: workers}).Grow(k)
				for i := range ref.Seeds {
					if res.Seeds[i] != ref.Seeds[i] {
						t.Fatalf("%s: seed %d = %d, reference %d", name, i, res.Seeds[i], ref.Seeds[i])
					}
					if res.Gains[i] != ref.Gains[i] {
						t.Fatalf("%s: gain %d not bit-identical: %b vs %b", name, i, res.Gains[i], ref.Gains[i])
					}
				}

				gains, err := coord.Gains(nil, allUsers, nil, nil)
				if err != nil {
					t.Fatalf("%s: Gains: %v", name, err)
				}
				for u := range gains {
					if gains[u] != refGains[u] {
						t.Fatalf("%s: Gain(%d) not bit-identical: %b vs %b", name, u, gains[u], refGains[u])
					}
				}
				based, err := coord.Gains(base, allUsers, nil, nil)
				if err != nil {
					t.Fatalf("%s: Gains(base): %v", name, err)
				}
				for u := range based {
					if based[u] != refBased[u] {
						t.Fatalf("%s: based Gain(%d) not bit-identical: %b vs %b", name, u, based[u], refBased[u])
					}
				}

				spread, err := coord.Spread(ref.Seeds, nil, nil)
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
		coord, err := New(slicePartitions(t, pre, nparts), 0)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		grown, err := coord.Append(g, combined, from)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if grown.NumUsers() != newUsers {
			t.Fatalf("grown universe %d, want %d", grown.NumUsers(), newUsers)
		}
		if last := grown.Ranges()[len(grown.Ranges())-1]; last.Hi != newUsers {
			t.Fatalf("trailing partition %v does not absorb new users (want hi=%d)", last, newUsers)
		}
		var entries int64
		for _, s := range grown.Stats() {
			entries += s.Entries
		}
		if entries != fullRef.Entries() {
			t.Fatalf("partition entries sum %d, full engine %d", entries, fullRef.Entries())
		}
		for u := 0; u < newUsers; u++ {
			want := fullRef.Gain(graph.NodeID(u))
			got, err := grown.Gains(nil, []graph.NodeID{graph.NodeID(u)}, nil, nil)
			if err != nil {
				t.Fatalf("Gains(%d): %v", u, err)
			}
			if got[0] != want {
				t.Fatalf("nparts=%d: post-ingest Gain(%d) not bit-identical: %b vs %b", nparts, u, got[0], want)
			}
		}
		res := grown.NewSelection(celf.Options{}).Grow(5)
		refRes := seedsel.CELF(core.NewProbeEstimator(nil, fullRef), 5)
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
	ref := seedsel.CELF(core.NewProbeEstimator(nil, full), k)

	first, err := New(slicePartitions(t, full, 4), 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mid := first.NewSelection(celf.Options{}).Grow(k1)
	prefix := celf.Prefix{Seeds: mid.Seeds, Gains: mid.Gains, LookupsAt: mid.LookupsAt}

	// "Restart": reload the model as mmap slices at a different partition
	// count and resume from the checkpointed prefix.
	second, err := New(openPartitions(t, full, lin, 2, true), 0)
	if err != nil {
		t.Fatalf("New(mmap): %v", err)
	}
	sel, err := second.ResumeSelection(prefix, celf.Options{})
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
