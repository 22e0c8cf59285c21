package credist

import (
	"fmt"
	"math"
	"math/rand/v2"
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
// the flixster-small preset, every reported confidence interval must
// contain the exact evaluator's spread and meet its eps target, whether
// the answer came from a warm pool, from the exact fallback, or from
// seed selection's eps-driven growth.
func TestApproxWithinEps(t *testing.T) {
	ds, err := GeneratePreset("flixster-small")
	if err != nil {
		t.Fatal(err)
	}
	m := Learn(ds, Options{Lambda: 0.001})
	if err := m.BuildApproxSketch(16384); err != nil {
		t.Fatal(err)
	}
	celfSeeds, _ := selectSeeds(m, 5)
	fromPool := 0
	check := func(what string, seeds []NodeID, res ApproxResult) {
		t.Helper()
		exact := m.Spread(seeds)
		if res.CILow > exact || exact > res.CIHigh {
			t.Fatalf("%s %v: exact spread %g outside reported interval [%g, %g] (estimate %g, %d samples)",
				what, seeds, exact, res.CILow, res.CIHigh, res.Estimate, res.Samples)
		}
		if res.AchievedEps > 0.1 && res.Samples < DefaultMaxApproxSamples {
			t.Fatalf("%s %v: achieved eps %g over target with budget left (%d samples)",
				what, seeds, res.AchievedEps, res.Samples)
		}
		if res.Estimate < res.CILow || res.Estimate > res.CIHigh {
			t.Fatalf("%s %v: malformed result %+v", what, seeds, res)
		}
	}
	for _, seeds := range [][]NodeID{
		celfSeeds,
		{0, 1, 2, 3},
		{10, 50, 100, 200, 400},
	} {
		res, err := m.ApproxSpread(seeds, ApproxOptions{Eps: 0.1})
		if err != nil {
			t.Fatalf("ApproxSpread(%v): %v", seeds, err)
		}
		check("spread", seeds, res)
		if res.Samples > 0 {
			fromPool++
		}
	}
	if fromPool == 0 || fromPool == 3 {
		t.Fatalf("%d of 3 spread queries answered from the pool; the sets must exercise both branches", fromPool)
	}
	picked, res, err := Learn(ds, Options{Lambda: 0.001}).ApproxSeeds(5, ApproxOptions{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples <= 0 || res.Grown != res.Samples {
		t.Fatalf("seed selection on an empty pool: %+v", res)
	}
	check("seeds", picked, res)
}

// TestApproxDeterministicAcrossWorkers pins the serving guarantee that
// approximate answers are bit-identical at any sampling worker count:
// sampling fans over GOMAXPROCS workers, so the test varies it. The
// spread answer reads a pool BuildApproxSketch drew; the seed selection
// grows its own.
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
		if err := m.BuildApproxSketch(3000); err != nil {
			t.Fatal(err)
		}
		res, err := m.ApproxSpread(seeds, ApproxOptions{Eps: 0.05, MaxSamples: 3000})
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

// TestApproxBudget pins the bounded-latency contract: a budgeted seed
// selection returns promptly with a valid (possibly wide) interval
// instead of growing to the eps target, and a query no sample can answer
// (an empty spread set, k < 1) never grows the pool chasing +Inf eps.
func TestApproxBudget(t *testing.T) {
	ds := Generate(tinyConfig(12))
	m := Learn(ds, Options{Lambda: 0.001})
	_, res, err := m.ApproxSeeds(2, ApproxOptions{Eps: 1e-9, Budget: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples <= 0 || res.CILow > res.Estimate || res.Estimate > res.CIHigh {
		t.Fatalf("budgeted result malformed: %+v", res)
	}
	if res.Samples > DefaultMaxApproxSamples {
		t.Fatalf("budgeted query grew past the cap: %d samples", res.Samples)
	}

	fresh := Learn(ds, Options{Lambda: 0.001})
	none, err := fresh.ApproxSpread(nil, ApproxOptions{Eps: 0.01, Budget: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if none != (ApproxResult{Elapsed: none.Elapsed}) {
		t.Fatalf("empty-set result %+v, want the exact zero", none)
	}
	if _, _, err := fresh.ApproxSeeds(0, ApproxOptions{Eps: 0.01}); err == nil {
		t.Fatal("ApproxSeeds(0) accepted")
	}
	if st := fresh.ApproxStats(); st.Samples != 0 || st.Sampled != 0 {
		t.Fatalf("zero-hit queries drew samples: %+v", st)
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
		fresh := Learn(ds, Options{Lambda: 0.001})
		for _, m := range []*Model{back, fresh} {
			if err := m.BuildApproxSketch(2 * pool); err != nil {
				t.Fatal(err)
			}
		}
		if st := back.ApproxStats(); st.Samples != 2*pool || st.Sampled != pool {
			t.Fatalf("%s: growth after restore: stats %+v", name, st)
		}
		wideOpts := ApproxOptions{Eps: 1e-9, MaxSamples: 2 * pool}
		grown, err := back.ApproxSpread(seeds, wideOpts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cont, err := fresh.ApproxSpread(seeds, wideOpts)
		if err != nil {
			t.Fatal(err)
		}
		if grown.Samples != 2*pool || approxFields(grown) != approxFields(cont) {
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
// pool past the sketch (run under -race); seed selection is the query
// that grows it. Every poll must see a
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
		_, res, err := back.ApproxSeeds(2, ApproxOptions{Eps: 1e-9, MaxSamples: 8 * pool})
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

// TestApproxConcurrentFirstDraws races the growing queries on a model
// with no pool, so the walk source's construction and the pool's growth
// are contended, while spread queries read whatever pool is published
// (run under -race): every query answers with a valid interval around
// the exact spread, and the pool's stats count each sample drawn exactly
// once.
func TestApproxConcurrentFirstDraws(t *testing.T) {
	m := Learn(Generate(tinyConfig(17)), Options{Lambda: 0.001})
	var wg sync.WaitGroup
	for i, eps := range []float64{0.3, 0.1, 0.05, 0.02} {
		wg.Add(2)
		go func() {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				err = m.BuildApproxSketch(1024 * (i + 1))
			} else {
				var res ApproxResult
				_, res, err = m.ApproxSeeds(3, ApproxOptions{Eps: eps})
				if res.Samples <= 0 || res.CILow > res.Estimate || res.Estimate > res.CIHigh {
					t.Errorf("eps=%g: %+v", eps, res)
				}
			}
			if err != nil {
				t.Errorf("eps=%g: %v", eps, err)
			}
		}()
		go func() {
			defer wg.Done()
			seeds := []NodeID{NodeID(i), NodeID(i + 3)}
			res, err := m.ApproxSpread(seeds, ApproxOptions{Eps: eps})
			if exact := m.Spread(seeds); err != nil || res.Grown != 0 || res.CILow > exact || exact > res.CIHigh {
				t.Errorf("spread eps=%g: %+v, %v", eps, res, err)
			}
		}()
	}
	wg.Wait()
	if st := m.ApproxStats(); st.Samples == 0 || st.Sampled != int64(st.Samples) {
		t.Fatalf("stats %+v: want every pooled sample counted as drawn once", st)
	}
}

// TestApproxSpreadExactFallback pins the spread query's exact branch: on
// a model with no pool, with a pool too small for eps, and on an ingest
// successor, the answer is m.Spread's value bit for bit as a zero-width
// interval with AchievedEps and Samples 0, and nothing is drawn: no
// sample, no credit-walk source.
func TestApproxSpreadExactFallback(t *testing.T) {
	ds := Generate(tinyConfig(18))
	head := &Dataset{Name: ds.Name, Graph: ds.Graph, Log: ds.Log.Prefix(ds.Log.NumActions() - 20)}
	bare := Learn(head, Options{Lambda: 0.001})
	small := Learn(head, Options{Lambda: 0.001})
	if err := small.BuildApproxSketch(256); err != nil {
		t.Fatal(err)
	}
	var tail []Tuple
	for a := head.Log.NumActions(); a < ds.Log.NumActions(); a++ {
		for _, p := range ds.Log.Action(ActionID(a)) {
			tail = append(tail, Tuple{User: p.User, Action: ActionID(a), Time: p.Time})
		}
	}
	ingested, err := small.Ingest(tail)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []NodeID{4, 9, 33}
	for name, m := range map[string]*Model{"no pool": bare, "small pool": small, "ingested": ingested} {
		before, hadSource := m.ApproxStats(), m.approx.src != nil
		res, err := m.ApproxSpread(seeds, ApproxOptions{Eps: 0.01})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exact := m.Spread(seeds)
		if math.Float64bits(res.Estimate) != math.Float64bits(exact) || res.CILow != exact || res.CIHigh != exact ||
			res.AchievedEps != 0 || res.Samples != 0 || res.Grown != 0 {
			t.Fatalf("%s: exact fallback %+v, want the zero-width interval at %v", name, res, exact)
		}
		if st := m.ApproxStats(); st != before || (m.approx.src != nil) != hadSource {
			t.Fatalf("%s: the exact fallback drew: stats %+v -> %+v, source built %t", name, before, st, m.approx.src != nil)
		}
	}
	if st := bare.ApproxStats(); st.Sampled != 0 {
		t.Fatalf("bare model sampled %d sets", st.Sampled)
	}
}

// TestApproxSpreadOrderIndependent guards the reference check that
// replays eps= answers in its own order: over a restored 8,192-sample
// pool, a fixed list of queries, some answered from the pool and some
// exactly, gives the same bits in any order on one model and across
// fresh loads, because no spread query changes the pool.
func TestApproxSpreadOrderIndependent(t *testing.T) {
	ds := Generate(tinyConfig(19))
	m := Learn(ds, Options{Lambda: 0.001})
	if err := m.BuildApproxSketch(8192); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	type query struct {
		seeds []NodeID
		eps   float64
	}
	var queries []query
	for i, eps := range []float64{0.5, 0.2, 0.1, 0.05, 0.02} {
		for j := 0; j < 4; j++ {
			queries = append(queries, query{[]NodeID{NodeID(7*i + j), NodeID(50 + 13*j), NodeID(200 - i)}, eps})
		}
	}
	render := func(r ApproxResult) string {
		return fmt.Sprintf("%x %x %x %x %d %d", r.Estimate, r.CILow, r.CIHigh, r.AchievedEps, r.Samples, r.Grown)
	}
	ask := func(m *Model, order []int) []string {
		out := make([]string, len(queries))
		for _, i := range order {
			res, err := m.ApproxSpread(queries[i].seeds, ApproxOptions{Eps: queries[i].eps})
			if err != nil {
				t.Fatal(err)
			}
			out[i] = render(res)
		}
		return out
	}
	back, err := LoadModel(ds, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(queries))
	for i := range order {
		order[i] = i
	}
	want := ask(back, order)
	exact := 0
	for i, q := range queries {
		if res, _ := back.ApproxSpread(q.seeds, ApproxOptions{Eps: q.eps}); res.Samples == 0 {
			exact++
		} else if want[i] != render(res) {
			t.Fatalf("query %d changed on a second ask", i)
		}
	}
	if exact == 0 || exact == len(queries) {
		t.Fatalf("%d of %d queries answered exactly; the list must exercise both branches", exact, len(queries))
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for round := 0; round < 4; round++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		target := back
		if round%2 == 1 {
			if target, err = LoadModelMapped(ds, path, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		if got := ask(target, order); !reflect.DeepEqual(got, want) {
			t.Fatalf("order %v: answers differ:\n got %v\nwant %v", order, got, want)
		}
		if st := target.ApproxStats(); st.Samples != 8192 || st.Sampled != 0 {
			t.Fatalf("order %v: the pool changed: %+v", order, st)
		}
		if target != back {
			target.Close()
		}
	}
}
