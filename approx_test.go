package credist

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// approxFields strips the timing from an ApproxResult so deterministic
// fields can be compared across runs and worker counts.
func approxFields(r ApproxResult) ApproxResult {
	r.Elapsed = 0
	return r
}

// TestApproxWithinEps is the accuracy wall for the approximate tier: on
// the flixster-small preset, the reported confidence interval must
// contain the exact evaluator's spread for several seed sets, and an
// eps-bound query must achieve its target.
func TestApproxWithinEps(t *testing.T) {
	ds, err := GeneratePreset("flixster-small")
	if err != nil {
		t.Fatal(err)
	}
	m := Learn(ds, Options{Lambda: 0.001})
	celfSeeds, _ := selectSeeds(m, 5)
	for _, seeds := range [][]NodeID{
		celfSeeds,
		{0, 1, 2, 3},
		{10, 50, 100, 200, 400},
	} {
		exact := m.Spread(seeds)
		res, err := m.ApproxSpread(seeds, ApproxOptions{Eps: 0.1})
		if err != nil {
			t.Fatalf("ApproxSpread(%v): %v", seeds, err)
		}
		if res.CILow > exact || exact > res.CIHigh {
			t.Fatalf("seeds %v: exact spread %g outside reported interval [%g, %g] (estimate %g, %d samples)",
				seeds, exact, res.CILow, res.CIHigh, res.Estimate, res.Samples)
		}
		if res.AchievedEps > 0.1 && res.Samples < DefaultMaxApproxSamples {
			t.Fatalf("seeds %v: achieved eps %g over target with budget left (%d samples)",
				seeds, res.AchievedEps, res.Samples)
		}
		if res.Estimate < res.CILow || res.Estimate > res.CIHigh || res.Samples <= 0 {
			t.Fatalf("seeds %v: malformed result %+v", seeds, res)
		}
	}
}

// TestApproxDeterministicAcrossWorkers pins the serving guarantee that
// approximate answers are bit-identical at any sampling worker count:
// sampling fans over GOMAXPROCS workers, so the test varies it.
func TestApproxDeterministicAcrossWorkers(t *testing.T) {
	ds := Generate(tinyConfig(11))
	seeds := []NodeID{1, 5, 9}
	type answer struct {
		spread ApproxResult
		seeds  []NodeID
		picked ApproxResult
	}
	var ref answer
	for i, procs := range []int{1, 4, 13} {
		prev := runtime.GOMAXPROCS(procs)
		m := Learn(ds, Options{Lambda: 0.001})
		res, err := m.ApproxSpread(seeds, ApproxOptions{Eps: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		// Seed selection over the tier is deterministic too.
		picked, pres, err := Learn(ds, Options{Lambda: 0.001}).ApproxSeeds(4, ApproxOptions{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		got := answer{approxFields(res), picked, approxFields(pres)}
		if i == 0 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("GOMAXPROCS=%d: answers %+v differ from GOMAXPROCS=1 %+v", procs, got, ref)
		}
	}
}

// TestApproxBudget pins the bounded-latency contract: a budgeted query
// returns promptly with a valid (possibly wide) interval instead of
// growing to the eps target.
func TestApproxBudget(t *testing.T) {
	ds := Generate(tinyConfig(12))
	m := Learn(ds, Options{Lambda: 0.001})
	res, err := m.ApproxSpread([]NodeID{2, 3}, ApproxOptions{Eps: 1e-9, Budget: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples <= 0 || res.CILow > res.Estimate || res.Estimate > res.CIHigh {
		t.Fatalf("budgeted result malformed: %+v", res)
	}
	if res.Samples > DefaultMaxApproxSamples {
		t.Fatalf("budgeted query grew past the cap: %d samples", res.Samples)
	}

	// A zero-hit seed set must not grow to the cap chasing +Inf eps.
	none, err := Learn(ds, Options{Lambda: 0.001}).ApproxSpread(nil, ApproxOptions{Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if none.Estimate != 0 || !math.IsInf(none.AchievedEps, 1) {
		t.Fatalf("empty-set result %+v", none)
	}
	if none.Samples > zeroHitStopSamples {
		t.Fatalf("zero-hit query grew to %d samples", none.Samples)
	}
}

// TestApproxSnapshotRestart pins the version-5 cold-start guarantee: a
// model restored from a sketch-carrying snapshot answers its first
// approximate query with zero sampling work and bit-identical results,
// through both the heap and the mapped loader.
func TestApproxSnapshotRestart(t *testing.T) {
	ds := Generate(tinyConfig(13))
	m := Learn(ds, Options{Lambda: 0.001})
	const pool = 4096
	if err := m.BuildApproxSketch(pool); err != nil {
		t.Fatal(err)
	}
	if st := m.ApproxStats(); st.Samples != pool || st.Sampled != pool {
		t.Fatalf("builder stats %+v", st)
	}
	seeds := []NodeID{3, 8, 21}
	// Cap at the persisted pool so the answer is a pure read on both sides.
	capOpts := ApproxOptions{Eps: 1e-9, MaxSamples: pool}
	want, err := m.ApproxSpread(seeds, capOpts)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "model.bin")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	load := func(name string, open func() (*Model, error)) {
		back, err := open()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer back.Close()
		if st := back.ApproxStats(); st.Samples != pool || st.Sampled != 0 {
			t.Fatalf("%s: restored stats %+v, want %d samples and zero sampling", name, st, pool)
		}
		got, err := back.ApproxSpread(seeds, capOpts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Grown != 0 {
			t.Fatalf("%s: first restored query drew %d samples, want 0", name, got.Grown)
		}
		if approxFields(got) != approxFields(want) {
			t.Fatalf("%s: restored answer %+v differs from pre-restart %+v", name, got, want)
		}
		if st := back.ApproxStats(); st.Sampled != 0 {
			t.Fatalf("%s: restored query sampled %d sets", name, st.Sampled)
		}
		// Growth past the restored pool continues the same streams: it
		// must match a continuously grown collection bit for bit.
		grown, err := back.ApproxSpread(seeds, ApproxOptions{Eps: 1e-9, MaxSamples: 2 * pool})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh := Learn(ds, Options{Lambda: 0.001})
		cont, err := fresh.ApproxSpread(seeds, ApproxOptions{Eps: 1e-9, MaxSamples: 2 * pool})
		if err != nil {
			t.Fatal(err)
		}
		if approxFields(grown) != approxFields(func() ApproxResult { cont.Grown = grown.Grown; return cont }()) {
			t.Fatalf("%s: growth after restore %+v diverges from continuous %+v", name, grown, cont)
		}
	}
	load("heap", func() (*Model, error) { return LoadModel(ds, path, Options{}) })
	load("mapped", func() (*Model, error) { return LoadModelMapped(ds, path, Options{}) })

	// A model that never touched the approximate tier still writes a
	// plain version-3 snapshot: loading it restores no sketch.
	plainPath := filepath.Join(t.TempDir(), "plain.bin")
	if err := Learn(ds, Options{Lambda: 0.001}).Save(plainPath); err != nil {
		t.Fatal(err)
	}
	plain, err := LoadModel(ds, plainPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := plain.ApproxStats(); st.Samples != 0 {
		t.Fatalf("sketchless snapshot restored %d samples", st.Samples)
	}
}

// TestApproxSketchDroppedOnTailAppend pins that a sketch (like a seed
// prefix) does not survive a snapshot load against a grown log: the walks
// sampled the old log's propagation DAGs.
func TestApproxSketchDroppedOnTailAppend(t *testing.T) {
	ds := Generate(tinyConfig(14))
	half := &Dataset{Name: ds.Name, Graph: ds.Graph, Log: ds.Log.Prefix(ds.Log.NumActions() / 2)}
	m := Learn(half, Options{Lambda: 0.001})
	if err := m.BuildApproxSketch(1024); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "half.bin")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(ds, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := back.ApproxStats(); st.Samples != 0 {
		t.Fatalf("stale sketch survived a tail append: %+v", st)
	}
}

// TestApproxStatsDuringRestoredGrowth polls ApproxStats from another
// goroutine while the first query on a sketch-restored model grows the
// pool past the sketch (run under -race). Every poll must see a
// consistent pool: the restored size or a grown one, with Bytes exactly
// what that pool reports, so approx_bytes never jumps between formulas.
func TestApproxStatsDuringRestoredGrowth(t *testing.T) {
	ds := Generate(tinyConfig(15))
	m := Learn(ds, Options{Lambda: 0.001})
	const pool = 1024
	if err := m.BuildApproxSketch(pool); err != nil {
		t.Fatal(err)
	}
	poolBytes := m.ApproxStats().Bytes
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	for _, open := range []func() (*Model, error){
		func() (*Model, error) { return LoadModel(ds, path, Options{}) },
		func() (*Model, error) { return LoadModelMapped(ds, path, Options{}) },
	} {
		back, err := open()
		if err != nil {
			t.Fatal(err)
		}
		if st := back.ApproxStats(); st.Samples != pool || st.Bytes != poolBytes {
			t.Fatalf("restored stats %+v, want %d samples in %d bytes", st, pool, poolBytes)
		}
		done := make(chan struct{})
		polled := make(chan error, 1)
		go func() {
			var bad error
			for {
				st := back.ApproxStats()
				if st.Samples < pool || (st.Samples == pool && st.Bytes != poolBytes) {
					bad = fmt.Errorf("poll saw %+v", st)
				}
				select {
				case <-done:
					polled <- bad
					return
				default:
				}
			}
		}()
		res, err := back.ApproxSpread([]NodeID{1, 2}, ApproxOptions{Eps: 1e-9, MaxSamples: 8 * pool})
		close(done)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-polled; err != nil {
			t.Fatal(err)
		}
		if st := back.ApproxStats(); st.Samples != res.Samples || st.Sampled != int64(res.Grown) {
			t.Fatalf("stats %+v after growth to %d samples (%d drawn)", st, res.Samples, res.Grown)
		}
		back.Close()
	}
}

// TestApproxFixedPoolBuildsNoSource pins that a query capped at the pool
// a partitioned model restored from the whole-model snapshot answers from
// that pool alone: it draws nothing and never builds the credit-walk
// source (nor the evaluator behind it), and its answers equal the
// one-engine model's over the same pool.
func TestApproxFixedPoolBuildsNoSource(t *testing.T) {
	ds := Generate(tinyConfig(16))
	m := Learn(ds, Options{Lambda: 0.001})
	const pool = 2048
	if err := m.BuildApproxSketch(pool); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	seeds := []NodeID{2, 7, 19}
	capOpts := ApproxOptions{Eps: 1e-9, MaxSamples: pool}
	wantSpread, err := m.ApproxSpread(seeds, capOpts)
	if err != nil {
		t.Fatal(err)
	}
	wantSeeds, wantPicked, err := m.ApproxSeeds(3, capOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		pm, pp, _, err := LoadModelPartitioned(ds, path, 3, mmap, Options{})
		if err != nil {
			t.Fatalf("mmap=%t: %v", mmap, err)
		}
		got, err := pm.ApproxSpread(seeds, capOpts)
		if err != nil {
			t.Fatal(err)
		}
		fixed, ok, err := pm.ApproxSpreadFixed(seeds)
		if err != nil || !ok {
			t.Fatalf("mmap=%t: ApproxSpreadFixed ok=%t err=%v", mmap, ok, err)
		}
		picked, pres, err := pm.ApproxSeeds(3, capOpts)
		if err != nil {
			t.Fatal(err)
		}
		if pm.approx.src != nil {
			t.Fatalf("mmap=%t: a pool-capped query built the credit-walk source", mmap)
		}
		if st := pm.ApproxStats(); st.Samples != pool || st.Sampled != 0 || got.Grown != 0 || pres.Grown != 0 {
			t.Fatalf("mmap=%t: capped queries drew samples: stats %+v, grown %d and %d", mmap, st, got.Grown, pres.Grown)
		}
		if approxFields(got) != approxFields(wantSpread) || approxFields(fixed) != approxFields(wantSpread) {
			t.Fatalf("mmap=%t: partitioned answers %+v, %+v differ from one engine's %+v", mmap, got, fixed, wantSpread)
		}
		if !reflect.DeepEqual(picked, wantSeeds) || approxFields(pres) != approxFields(wantPicked) {
			t.Fatalf("mmap=%t: partitioned seeds %v %+v differ from one engine's %v %+v", mmap, picked, pres, wantSeeds, wantPicked)
		}
		pp.Close()
	}
}

// TestApproxConcurrentFirstDraws races queries on a model with no pool,
// so the walk source's construction and the pool's growth are contended
// (run under -race): every query answers with a valid interval, and the
// pool's stats count each sample drawn exactly once.
func TestApproxConcurrentFirstDraws(t *testing.T) {
	m := Learn(Generate(tinyConfig(17)), Options{Lambda: 0.001})
	var wg sync.WaitGroup
	for i, eps := range []float64{0.3, 0.1, 0.05, 0.02} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res ApproxResult
			var err error
			if i%2 == 0 {
				res, err = m.ApproxSpread([]NodeID{NodeID(i), NodeID(i + 3)}, ApproxOptions{Eps: eps})
			} else {
				_, res, err = m.ApproxSeeds(3, ApproxOptions{Eps: eps})
			}
			if err != nil || res.Samples <= 0 || res.CILow > res.Estimate || res.Estimate > res.CIHigh {
				t.Errorf("eps=%g: %+v, %v", eps, res, err)
			}
		}()
	}
	wg.Wait()
	if st := m.ApproxStats(); st.Samples == 0 || st.Sampled != int64(st.Samples) {
		t.Fatalf("stats %+v: want every pooled sample counted as drawn once", st)
	}
}
