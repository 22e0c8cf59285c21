package credist

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"credist/internal/core"
)

// TestFacadeExplainSeedMatchesGains pins the why-seed contract at the
// facade: every explained gain is bit-for-bit the batched Gains value for
// the same candidate, and the path list respects the top bound.
func TestFacadeExplainSeedMatchesGains(t *testing.T) {
	ds := Generate(tinyConfig(21))
	m := Learn(ds, Options{Lambda: 0.001})
	cands := []NodeID{2, 7, 19, 40, 111}
	gains := mustGains(t, m.NewPlanner(), nil, cands)
	for i, c := range cands {
		ex := mustExplainSeed(t, m.NewPlanner(), c, 8)
		if ex.Node != c || ex.Gain != gains[i] {
			t.Errorf("ExplainSeed(%d).Gain = %b, Gains = %b", c, ex.Gain, gains[i])
		}
		if len(ex.Paths) > 8 || len(ex.Paths) > ex.TotalPaths {
			t.Errorf("ExplainSeed(%d): %d paths of %d with top=8", c, len(ex.Paths), ex.TotalPaths)
		}
	}
	// Against a live planner: committed seeds discount the explanation
	// exactly as they discount Gain.
	p := m.NewPlanner()
	p.Add(cands[0])
	for _, c := range cands[1:] {
		ex, err := m.ExplainSeedOn(p, c, 8)
		if err != nil {
			t.Fatalf("ExplainSeedOn(%d): %v", c, err)
		}
		if want := p.Gain(c); ex.Gain != want {
			t.Errorf("ExplainSeedOn(%d) after commit = %b, Gain = %b", c, ex.Gain, want)
		}
	}
}

// TestFacadeExplainReachSumsToTotal pins the decomposition rule: the
// per-seed shares, folded in input order, are bit-exactly the Total.
func TestFacadeExplainReachSumsToTotal(t *testing.T) {
	ds := Generate(tinyConfig(24))
	m := Learn(ds, Options{Lambda: 0.001})
	seeds := []NodeID{1, 5, 9, 40}
	for _, v := range []NodeID{3, 14, 77} {
		ex := mustExplainReach(t, m.NewPlanner(), seeds, v, 10)
		if ex.Target != v || len(ex.PerSeed) != len(seeds) {
			t.Fatalf("ExplainReach(%d) shape: target %d, %d shares", v, ex.Target, len(ex.PerSeed))
		}
		sum := 0.0
		for i, ps := range ex.PerSeed {
			if ps.Seed != seeds[i] {
				t.Fatalf("share %d names seed %d, want %d", i, ps.Seed, seeds[i])
			}
			sum += ps.Share
		}
		if sum != ex.Total {
			t.Errorf("target %d: shares fold to %b, Total = %b", v, sum, ex.Total)
		}
	}
}

// TestFacadeProvSnapshotRestore pins the persistence story: a saved
// model restored on the heap or mapped explains exactly as the model that
// was saved, and the deprecated
// BuildProvIndex changes nothing — a save after it writes the same
// version-3 bytes.
func TestFacadeProvSnapshotRestore(t *testing.T) {
	ds := Generate(tinyConfig(22))
	m := Learn(ds, Options{Lambda: 0.001})
	seeds := []NodeID{1, 5, 9}
	v := NodeID(14)
	wantReach := mustExplainReach(t, m.NewPlanner(), seeds, v, 10)
	wantSeedEx := mustExplainSeed(t, m.NewPlanner(), 7, 10)

	dir := t.TempDir()
	path, again := filepath.Join(dir, "model.bin"), filepath.Join(dir, "again.bin")
	if err := m.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	m.BuildProvIndex()
	if err := m.Save(again); err != nil {
		t.Fatalf("Save after BuildProvIndex: %v", err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) || binary.LittleEndian.Uint32(after[8:]) != 3 {
		t.Fatalf("BuildProvIndex changed the saved snapshot (version %d)", binary.LittleEndian.Uint32(after[8:]))
	}

	for _, mmap := range []bool{false, true} {
		load := LoadModel
		if mmap {
			load = LoadModelMapped
		}
		loaded, err := load(ds, path, Options{})
		if err != nil {
			t.Fatalf("mmap=%t: load: %v", mmap, err)
		}
		if got, err := loaded.NewPlanner().ExplainReach(seeds, v, 10); err != nil || !reflect.DeepEqual(wantReach, got) {
			t.Errorf("mmap=%t: restored ExplainReach = %+v (%v), want %+v", mmap, got, err, wantReach)
		}
		if got := mustExplainSeed(t, loaded.NewPlanner(), 7, 10); !reflect.DeepEqual(wantSeedEx, got) {
			t.Errorf("mmap=%t: restored ExplainSeed = %+v, want %+v", mmap, got, wantSeedEx)
		}
		if err := loaded.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFacadePartitionedExplainParity pins the partitioned answer to the
// single-engine one at partition counts {1, 4}: seed explanations come
// wholly from the owner, reach decompositions gather bit-identically.
func TestFacadePartitionedExplainParity(t *testing.T) {
	ds := Generate(tinyConfig(23))
	m := Learn(ds, Options{Lambda: 0.001})
	seeds := []NodeID{3, 11, 27, 90}
	v := NodeID(8)
	wantReach := mustExplainReach(t, m.NewPlanner(), seeds, v, 12)
	cands := []NodeID{2, 9, 33, 150, 299}
	for _, nparts := range []int{1, 4} {
		pp, err := m.NewPlanner().Partition(nparts)
		if err != nil {
			t.Fatalf("Partition(%d): %v", nparts, err)
		}
		for _, c := range cands {
			want := mustExplainSeed(t, m.NewPlanner(), c, 7)
			got, err := pp.ExplainSeed(c, 7)
			if err != nil {
				t.Fatalf("nparts=%d: ExplainSeed(%d): %v", nparts, c, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("nparts=%d: ExplainSeed(%d) = %+v, single engine %+v", nparts, c, got, want)
			}
		}
		got, err := pp.ExplainReach(seeds, v, 12)
		if err != nil {
			t.Fatalf("nparts=%d: ExplainReach: %v", nparts, err)
		}
		if !reflect.DeepEqual(wantReach, got) {
			t.Errorf("nparts=%d: ExplainReach = %+v, single engine %+v", nparts, got, wantReach)
		}
		if _, err := pp.ExplainSeed(NodeID(ds.NumUsers()), 3); err == nil {
			t.Errorf("nparts=%d: out-of-universe candidate accepted", nparts)
		}
		if _, err := pp.ExplainReach([]NodeID{0, NodeID(ds.NumUsers())}, v, 3); err == nil {
			t.Errorf("nparts=%d: out-of-universe seed accepted", nparts)
		}
	}
}

// TestExplainReachOnAfterIngestBuildsFromPlanner: on an ingest-grown
// preset model, reach explanations against the extended planner are built
// from that planner's own shards — the model's lazy base, a full rescan
// of the combined log, is never forced — and answer bit for bit like a
// model bound to the combined log with the same frozen parameters, from
// several goroutines at once.
func TestExplainReachOnAfterIngestBuildsFromPlanner(t *testing.T) {
	if testing.Short() {
		t.Skip("learns the flixster-small preset")
	}
	full, err := GeneratePreset("flixster-small")
	if err != nil {
		t.Fatal(err)
	}
	n := full.Log.NumActions()
	headN := n - n/20
	var tail []Tuple
	for a := headN; a < n; a++ {
		tail = append(tail, full.Log.Action(ActionID(a))...)
	}
	model := Learn(&Dataset{Name: "head", Graph: full.Graph, Log: full.Log.Prefix(headN)}, Options{Lambda: 0.001})
	grown, err := model.Ingest(tail)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := grown.ExtendPlanner(model.NewPlanner())
	if err != nil {
		t.Fatal(err)
	}
	// Forcing the grown model's lazy base would rescan the combined log;
	// stand in the planner's engine and record the call instead.
	var forced atomic.Bool
	grown.base = func() *core.Engine {
		forced.Store(true)
		return planner.eng
	}

	params := filepath.Join(t.TempDir(), "params.txt")
	if err := model.SaveParams(params); err != nil {
		t.Fatal(err)
	}
	ref, err := LoadModel(&Dataset{Name: "combined", Graph: full.Graph, Log: grown.Dataset().Log}, params, Options{Lambda: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	// The first explanations race from several goroutines.
	seeds := []NodeID{3, 17, 256, 1024, 2047}
	targets := []NodeID{5, 99, 512, 2999}
	got := make([][]ReachExplanation, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range targets {
				ex, err := planner.ExplainReach(seeds, v, 10)
				if err != nil {
					t.Errorf("goroutine %d: ExplainReach(%d): %v", g, v, err)
					return
				}
				got[g] = append(got[g], ex)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, v := range targets {
		want := mustExplainReach(t, ref.NewPlanner(), seeds, v, 10)
		for g := range got {
			if !reflect.DeepEqual(got[g][i], want) {
				t.Fatalf("goroutine %d: ExplainReach(%d) = %+v, combined-log model %+v", g, v, got[g][i], want)
			}
		}
	}
	if forced.Load() {
		t.Fatal("reach explanation forced a rescan of the combined log")
	}
}
