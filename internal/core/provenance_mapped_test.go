package core

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"credist/internal/datagen"
	"credist/internal/graph"
)

// TestProvIndexMappedParity runs on a flixster-small model saved with its
// provenance index (what `credist learn -prov` writes): every pair's
// Lookup and 200 random reach explanations agree across the heap open,
// the mapped open and a fresh build on every platform. Where the host can
// alias the mapping, the mapped open also allocates for the provenance
// section no more than the byV table plus 64 KiB over the same model
// saved without it; elsewhere (32-bit, big-endian) it copies the records
// by design, so the bound does not apply.
func TestProvIndexMappedParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the flixster-small model")
	}
	cfg, ok := datagen.PresetByName("flixster-small")
	if !ok {
		t.Fatal("missing preset")
	}
	ds := datagen.Generate(cfg)
	e := NewEngine(ds.Graph, ds.Log, Options{Lambda: 0.001, Credit: LearnTimeAware(ds.Graph, ds.Log)})
	lin := DatasetLineage(ds.Name, ds.Graph, ds.Log)
	fresh := e.BuildProvIndex()
	sketch := sketchOf(9, 3, [][]graph.NodeID{{0, 1}, {2}, {3, 4, 5}})

	dir := t.TempDir()
	write := func(name string, prov *ProvIndex) string {
		var buf bytes.Buffer
		if err := e.WriteSnapshot(&buf, lin, nil, sketch, prov); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	provPath, plainPath := write("prov.bin", fresh), write("plain.bin", nil)

	heap := openSnapshot(t, provPath, false).Prov
	mapped := openSnapshot(t, provPath, true).Prov
	if !reflect.DeepEqual(heap, fresh) || !reflect.DeepEqual(mapped, fresh) {
		t.Fatal("restored indexes differ from the fresh build")
	}
	// The three indexes are equal field for field and Lookup reads
	// nothing else, so their Lookups agree; every pair's Lookup on the
	// mapped index must return its decoded records.
	for _, r := range provRecords(fresh) {
		a, c := mapped.Lookup(r.v, r.u)
		if !reflect.DeepEqual(a, r.acts) || !reflect.DeepEqual(c, r.creds) {
			t.Fatalf("Lookup(%d,%d) disagrees with the pair's records", r.v, r.u)
		}
	}
	rng := rand.New(rand.NewPCG(71, 5))
	n := e.NumNodes()
	for q := 0; q < 200; q++ {
		seeds := make([]graph.NodeID, 1+rng.IntN(5))
		for i := range seeds {
			seeds[i] = graph.NodeID(rng.IntN(n))
		}
		v := graph.NodeID(rng.IntN(n))
		want := e.ExplainReach(seeds, v, 10)
		for _, idx := range []*ProvIndex{fresh, heap, mapped} {
			if got := e.ExplainReachIndexed(idx, seeds, v, 10); !reflect.DeepEqual(got, want) {
				t.Fatalf("ExplainReach(%v, %d) = %+v, shard walk %+v", seeds, v, got, want)
			}
		}
	}

	if !mappedAliasSupported() {
		return
	}
	// TotalAlloc of an open varies by tens of KB from run to run (the
	// credit parameters' map splits its tables by a per-map random hash
	// seed), so compare the mean of 30 interleaved opens of each file.
	openAlloc := func(path string) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := OpenSnapshot(path, true)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		return after.TotalAlloc - before.TotalAlloc
	}
	const opens = 30
	var withProv, without uint64
	for i := 0; i < opens; i++ {
		withProv += openAlloc(provPath)
		without += openAlloc(plainPath)
	}
	withProv, without = withProv/opens, without/opens
	limit := uint64(8*(n+1)) + 64<<10
	t.Logf("mapped open allocates %d B with the prov section, %d B without (mean of %d; limit %d B extra)", withProv, without, opens, limit)
	if withProv > without+limit {
		t.Fatalf("prov section cost the mapped open %d B, want at most %d", withProv-without, limit)
	}
}
