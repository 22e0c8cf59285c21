package credist

import (
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
	gains := m.Gains(nil, cands)
	for i, c := range cands {
		ex := m.ExplainSeed(c, 8)
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
		ex := m.ExplainReach(seeds, v, 10)
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

// TestFacadeProvSnapshotRestore pins the persistence story: a model saved
// with a built index restores it from the version-6 snapshot and explains
// identically with zero index builds, on both the heap and mmap loaders.
func TestFacadeProvSnapshotRestore(t *testing.T) {
	ds := Generate(tinyConfig(22))
	m := Learn(ds, Options{Lambda: 0.001})
	st := m.BuildProvIndex()
	if st.Builds != 1 || st.Pairs == 0 || st.Entries == 0 || st.Bytes == 0 {
		t.Fatalf("BuildProvIndex stats = %+v, want one build of a non-empty index", st)
	}
	seeds := []NodeID{1, 5, 9}
	v := NodeID(14)
	wantReach := m.ExplainReach(seeds, v, 10)
	wantSeedEx := m.ExplainSeed(7, 10)

	path := filepath.Join(t.TempDir(), "model.bin")
	if err := m.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadModel(ds, path, Options{})
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	if got := loaded.ExplainReach(seeds, v, 10); !reflect.DeepEqual(wantReach, got) {
		t.Errorf("restored ExplainReach = %+v, want %+v", got, wantReach)
	}
	if got := loaded.ExplainSeed(7, 10); !reflect.DeepEqual(wantSeedEx, got) {
		t.Errorf("restored ExplainSeed = %+v, want %+v", got, wantSeedEx)
	}
	lst := loaded.ProvStats()
	if lst.Builds != 0 {
		t.Errorf("restored model paid %d index builds, want 0", lst.Builds)
	}
	if lst.Pairs != st.Pairs || lst.Entries != st.Entries {
		t.Errorf("restored index shape %d/%d, want %d/%d", lst.Pairs, lst.Entries, st.Pairs, st.Entries)
	}

	mm, err := LoadModelMapped(ds, path, Options{})
	if err != nil {
		t.Fatalf("LoadModelMapped: %v", err)
	}
	if got := mm.ExplainReach(seeds, v, 10); !reflect.DeepEqual(wantReach, got) {
		t.Errorf("mapped ExplainReach = %+v, want %+v", got, wantReach)
	}
	if got := mm.ProvStats(); got.Builds != 0 || got.Pairs != st.Pairs {
		t.Errorf("mapped prov stats = %+v, want 0 builds and %d pairs", got, st.Pairs)
	}

	// A model saved without touching the tier stays at its previous
	// snapshot version and reloads with an empty tier.
	plain := Learn(ds, Options{Lambda: 0.001})
	path2 := filepath.Join(t.TempDir(), "plain.bin")
	if err := plain.Save(path2); err != nil {
		t.Fatalf("Save plain: %v", err)
	}
	loaded2, err := LoadModel(ds, path2, Options{})
	if err != nil {
		t.Fatalf("LoadModel plain: %v", err)
	}
	if got := loaded2.ProvStats(); got.Pairs != 0 || got.Builds != 0 {
		t.Errorf("index-less reload carries prov stats %+v", got)
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
	wantReach := m.ExplainReach(seeds, v, 12)
	cands := []NodeID{2, 9, 33, 150, 299}
	for _, nparts := range []int{1, 4} {
		pp, err := m.NewPlanner().Partition(nparts)
		if err != nil {
			t.Fatalf("Partition(%d): %v", nparts, err)
		}
		for _, c := range cands {
			want := m.ExplainSeed(c, 7)
			got, err := m.ExplainSeedOn(pp, c, 7)
			if err != nil {
				t.Fatalf("nparts=%d: ExplainSeed(%d): %v", nparts, c, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("nparts=%d: ExplainSeed(%d) = %+v, single engine %+v", nparts, c, got, want)
			}
		}
		got, err := m.ExplainReachOn(pp, seeds, v, 12)
		if err != nil {
			t.Fatalf("nparts=%d: ExplainReach: %v", nparts, err)
		}
		if !reflect.DeepEqual(wantReach, got) {
			t.Errorf("nparts=%d: ExplainReach = %+v, single engine %+v", nparts, got, wantReach)
		}
		if _, err := m.ExplainSeedOn(pp, NodeID(ds.NumUsers()), 3); err == nil {
			t.Errorf("nparts=%d: out-of-universe candidate accepted", nparts)
		}
		if _, err := m.ExplainReachOn(pp, []NodeID{0, NodeID(ds.NumUsers())}, v, 3); err == nil {
			t.Errorf("nparts=%d: out-of-universe seed accepted", nparts)
		}
	}
}

// TestExplainReachOnAfterIngestBuildsFromPlanner: on an ingest-grown
// preset model, the first reach explanation against the extended planner
// builds the index from that planner's engine — the model's own lazy
// base, a full rescan of the combined log, is never forced — and answers
// bit for bit like a model bound to the combined log with the same frozen
// parameters.
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
		return planner.parts[0]
	}

	params := filepath.Join(t.TempDir(), "params.txt")
	if err := model.SaveParams(params); err != nil {
		t.Fatal(err)
	}
	ref, err := LoadModel(&Dataset{Name: "combined", Graph: full.Graph, Log: grown.Dataset().Log}, params, Options{Lambda: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	// The first explanations race from several goroutines: exactly one
	// of them builds the index, and all answer from it.
	seeds := []NodeID{3, 17, 256, 1024, 2047}
	targets := []NodeID{5, 99, 512, 2999}
	got := make([][]ReachExplanation, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range targets {
				ex, err := grown.ExplainReachOn(planner, seeds, v, 10)
				if err != nil {
					t.Errorf("goroutine %d: ExplainReachOn(%d): %v", g, v, err)
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
		want := ref.ExplainReach(seeds, v, 10)
		for g := range got {
			if !reflect.DeepEqual(got[g][i], want) {
				t.Fatalf("goroutine %d: ExplainReachOn(%d) = %+v, combined-log model %+v", g, v, got[g][i], want)
			}
		}
	}
	if forced.Load() {
		t.Fatal("reach explanation forced a rescan of the combined log")
	}
	if st := grown.ProvStats(); st.Builds != 1 || st.Pairs != ref.ProvStats().Pairs {
		t.Fatalf("grown model prov stats %+v, want one build of %d pairs", st, ref.ProvStats().Pairs)
	}
}
