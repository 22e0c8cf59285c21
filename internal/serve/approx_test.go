package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"credist"
	"credist/internal/actionlog"
	"credist/internal/serve"
)

// TestApproxSpreadEndpoint pins the approximate /spread contract: a valid
// interval containing both the estimate and the exact engine's answer,
// the exact answer as a zero-width interval while no pool meets eps, and
// the /stats hit and exact-fallback counters.
func TestApproxSpreadEndpoint(t *testing.T) {
	h := newTestServer(t).Handler()
	code, exactBody := do(t, h, "GET", "/spread?seeds=1,2,3", "")
	if code != 200 {
		t.Fatalf("exact /spread: %d %v", code, exactBody)
	}
	exact := exactBody["spread"].(float64)

	for _, target := range []string{
		"/spread?seeds=1,2,3&eps=0.1",
		"/spread?seeds=1,2,3&budget=500ms",
		"/spread?seeds=1,2,3&eps=0.1&budget=2s",
	} {
		code, body := do(t, h, "GET", target, "")
		if code != 200 {
			t.Fatalf("%s: %d %v", target, code, body)
		}
		for _, key := range []string{"estimate", "ci_low", "ci_high", "achieved_eps", "samples", "elapsed"} {
			if _, ok := body[key]; !ok {
				t.Fatalf("%s: response missing %q: %v", target, key, body)
			}
		}
		lo, hi := body["ci_low"].(float64), body["ci_high"].(float64)
		est := body["estimate"].(float64)
		if lo > est || est > hi {
			t.Fatalf("%s: estimate %g outside interval [%g,%g]", target, est, lo, hi)
		}
		if lo > exact || exact > hi {
			t.Fatalf("%s: exact spread %g outside interval [%g,%g]", target, exact, lo, hi)
		}
		// The server holds no pool, so the exact evaluator answers.
		if body["samples"].(float64) != 0 || body["achieved_eps"] != 0.0 || lo != exact || hi != exact {
			t.Fatalf("%s: want the exact spread as a zero-width interval: %v", target, body)
		}
	}

	// The POST body carries the same parameters.
	code, body := do(t, h, "POST", "/spread", `{"seeds":[1,2,3],"eps":0.2,"budget":"1s"}`)
	if code != 200 {
		t.Fatalf("POST approx /spread: %d %v", code, body)
	}
	if _, ok := body["estimate"]; !ok {
		t.Fatalf("POST approx /spread: not an approximate reply: %v", body)
	}

	// Exact endpoints are untouched and the tier counters tick; no
	// /spread drew a sample.
	code, stats := do(t, h, "GET", "/stats", "")
	if code != 200 {
		t.Fatalf("/stats: %d", code)
	}
	if stats["approx_spread_requests"].(float64) != 4 || stats["approx_spread_exact"].(float64) != 4 {
		t.Fatalf("approx_spread_requests = %v, approx_spread_exact = %v, want 4 and 4",
			stats["approx_spread_requests"], stats["approx_spread_exact"])
	}
	if stats["approx_samples"].(float64) != 0 || stats["approx_sampled"].(float64) != 0 {
		t.Fatalf("an eps= /spread drew samples: %v", stats)
	}
	// /seeds?eps= grows a live pool, which a loose /spread then answers
	// from.
	if code, body := do(t, h, "GET", "/seeds?k=3&eps=0.1", ""); code != 200 {
		t.Fatalf("/seeds?eps: %d %v", code, body)
	}
	code, body = do(t, h, "GET", "/spread?seeds=1,2,3&eps=0.9", "")
	if code != 200 || body["samples"].(float64) <= 0 {
		t.Fatalf("eps=0.9 over the grown pool: %d %v", code, body)
	}
	if lo, hi := body["ci_low"].(float64), body["ci_high"].(float64); lo > exact || exact > hi {
		t.Fatalf("pool interval [%g,%g] misses the exact spread %g", lo, hi, exact)
	}
	_, stats = do(t, h, "GET", "/stats", "")
	if stats["approx_samples"].(float64) <= 0 || stats["approx_bytes"].(float64) <= 0 {
		t.Fatalf("stats missing sketch shape: %v", stats)
	}
	if stats["approx_sampled"].(float64) <= 0 {
		t.Fatalf("live-sampled pool reports zero sampling: %v", stats)
	}
	if stats["approx_spread_requests"].(float64) != 5 || stats["approx_spread_exact"].(float64) != 4 {
		t.Fatalf("approx_spread_requests = %v, approx_spread_exact = %v, want 5 and 4",
			stats["approx_spread_requests"], stats["approx_spread_exact"])
	}

	// Malformed parameters are 400s.
	for _, target := range []string{
		"/spread?seeds=1,2&eps=0",
		"/spread?seeds=1,2&eps=1.5",
		"/spread?seeds=1,2&eps=nope",
		"/spread?seeds=1,2&budget=-3ms",
		"/spread?seeds=1,2&budget=fast",
	} {
		if code, _ := do(t, h, "GET", target, ""); code != 400 {
			t.Fatalf("%s: code %d, want 400", target, code)
		}
	}
	// A batch cannot ride the approximate tier.
	if code, _ := do(t, h, "POST", "/spread", `{"sets":[[1],[2]],"eps":0.1}`); code != 400 {
		t.Fatal("batched approximate spread accepted")
	}
}

// TestApproxSeedsEndpoint pins /seeds?eps=: coverage-greedy seeds with an
// interval on the selected set, distinct from the exact CELF reply shape.
func TestApproxSeedsEndpoint(t *testing.T) {
	h := newTestServer(t).Handler()
	code, body := do(t, h, "GET", "/seeds?k=5&eps=0.1", "")
	if code != 200 {
		t.Fatalf("/seeds?eps: %d %v", code, body)
	}
	seeds, ok := body["seeds"].([]any)
	if !ok || len(seeds) != 5 {
		t.Fatalf("approximate seeds reply: %v", body)
	}
	for _, key := range []string{"estimate", "ci_low", "ci_high", "achieved_eps", "samples", "elapsed"} {
		if _, ok := body[key]; !ok {
			t.Fatalf("approximate /seeds missing %q: %v", key, body)
		}
	}
	if _, hasGains := body["gains"]; hasGains {
		t.Fatalf("approximate /seeds leaked the exact reply shape: %v", body)
	}
	// The exact path still answers the CELF shape.
	code, body = do(t, h, "GET", "/seeds?k=3", "")
	if code != 200 || body["gains"] == nil {
		t.Fatalf("exact /seeds regressed: %d %v", code, body)
	}
	code, stats := do(t, h, "GET", "/stats", "")
	if code != 200 || stats["approx_seeds_requests"].(float64) != 1 {
		t.Fatalf("approx_seeds_requests = %v, want 1", stats["approx_seeds_requests"])
	}
}

// TestApproxZeroSpreadEncodes pins the JSON edge: a zero pool estimate
// has no finite relative precision, which must encode as a null
// achieved_eps, not break the encoder. Only a pool at its cap answers a
// set it never hits (a partitioned server over a persisted sketch); with
// no such pool the exact zero answers, with achieved_eps 0.
func TestApproxZeroSpreadEncodes(t *testing.T) {
	src := saveSketchModel(t, t.TempDir(), 1024)
	src.Partitions = 2
	snap, err := serve.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		h       http.Handler
		wantEps any
	}{
		{"pool at its cap", serve.New(snap).Handler(), nil},
		{"exact", newTestServer(t).Handler(), 0.0},
	} {
		// An empty seed list hits nothing. The query parameter form cannot
		// express it, but the POST body can.
		code, body := do(t, tc.h, "POST", "/spread", `{"seeds":[],"eps":0.1}`)
		if code != 200 {
			t.Fatalf("%s: zero-spread approx: %d %v", tc.name, code, body)
		}
		if body["estimate"].(float64) != 0 {
			t.Fatalf("%s: empty set estimated %v", tc.name, body["estimate"])
		}
		if eps, present := body["achieved_eps"]; !present || eps != tc.wantEps {
			t.Fatalf("%s: achieved_eps = %v, want %v", tc.name, eps, tc.wantEps)
		}
	}
}

// TestApproxPartitionedUnavailable pins the 501 on partitioned
// deployments: the RR tier needs the whole universe in one engine.
func TestApproxPartitionedUnavailable(t *testing.T) {
	snap, err := serve.Build(serve.Source{Dataset: demoDataset(), Lambda: 0.001, Partitions: 2})
	if err != nil {
		t.Fatalf("partitioned Build: %v", err)
	}
	h := serve.New(snap).Handler()
	if code, body := do(t, h, "GET", "/spread?seeds=1,2&eps=0.1", ""); code != 501 {
		t.Fatalf("partitioned approx /spread: %d %v, want 501", code, body)
	}
	if code, body := do(t, h, "GET", "/seeds?k=3&eps=0.1", ""); code != 501 {
		t.Fatalf("partitioned approx /seeds: %d %v, want 501", code, body)
	}
	// Exact queries still answer.
	if code, _ := do(t, h, "GET", "/spread?seeds=1,2", ""); code != 200 {
		t.Fatal("partitioned exact /spread regressed")
	}
	code, stats := do(t, h, "GET", "/stats", "")
	if code != 200 {
		t.Fatal("/stats on partitioned deployment")
	}
	for _, key := range []string{"approx_samples", "approx_bytes", "approx_sampled"} {
		if v := stats[key].(float64); v != 0 {
			t.Fatalf("partitioned %s = %v, want 0", key, v)
		}
	}
}

// TestApproxPartitionedServedFromSketch pins the partitioned tier's one
// supported mode: a whole-model snapshot that carries a persisted RR
// sketch serves eps-queries from that fixed pool — no growth, honest
// achieved_eps — while a sketchless snapshot still answers 501 with the
// re-save hint.
func TestApproxPartitionedServedFromSketch(t *testing.T) {
	dir := t.TempDir()
	graphPath, logPath := saveDemoDataset(t, dir)
	model := credist.Learn(demoDataset(), credist.Options{Lambda: 0.001})
	if err := model.BuildApproxSketch(2000); err != nil {
		t.Fatalf("BuildApproxSketch: %v", err)
	}
	modelPath := filepath.Join(dir, "model.bin")
	if err := model.Save(modelPath); err != nil {
		t.Fatalf("Save: %v", err)
	}

	build := func() http.Handler {
		t.Helper()
		snap, err := serve.Build(serve.Source{
			GraphPath: graphPath, LogPath: logPath, ModelPath: modelPath, Partitions: 3,
		})
		if err != nil {
			t.Fatalf("partitioned Build from sketch-carrying snapshot: %v", err)
		}
		return serve.New(snap).Handler()
	}
	h := build()

	code, body := do(t, h, "GET", "/spread?seeds=1,2,3&eps=0.5", "")
	if code != 200 {
		t.Fatalf("partitioned approx /spread from sketch: %d %v", code, body)
	}
	lo, hi := body["ci_low"].(float64), body["ci_high"].(float64)
	if est := body["estimate"].(float64); lo > est || est > hi {
		t.Fatalf("estimate %g outside interval [%g,%g]", est, lo, hi)
	}
	if body["samples"].(float64) < 2000 {
		t.Fatalf("fixed pool served %v samples, want the persisted >= 2000", body["samples"])
	}

	code, seedsBody := do(t, h, "GET", "/seeds?k=3&eps=0.5", "")
	if code != 200 {
		t.Fatalf("partitioned approx /seeds from sketch: %d %v", code, seedsBody)
	}
	if seeds, ok := seedsBody["seeds"].([]any); !ok || len(seeds) != 3 {
		t.Fatalf("approximate seeds reply: %v", seedsBody)
	}

	// The pool is fixed: stats report the persisted pool and zero samples
	// drawn by this process.
	code, stats := do(t, h, "GET", "/stats", "")
	if code != 200 {
		t.Fatalf("/stats: %d", code)
	}
	if stats["approx_samples"].(float64) < 2000 {
		t.Fatalf("approx_samples = %v, want the persisted pool", stats["approx_samples"])
	}
	if stats["approx_sampled"].(float64) != 0 {
		t.Fatalf("partitioned tier sampled live: approx_sampled = %v, want 0", stats["approx_sampled"])
	}

	// Deterministic: a second server over the same snapshot answers the
	// same bits (the pool is the persisted one, not a fresh sample).
	h2 := build()
	_, body2 := do(t, h2, "GET", "/spread?seeds=1,2,3&eps=0.5", "")
	for _, key := range []string{"estimate", "ci_low", "ci_high", "samples"} {
		if fmt.Sprint(body2[key]) != fmt.Sprint(body[key]) {
			t.Fatalf("%s differs across servers over the same sketch: %v vs %v", key, body2[key], body[key])
		}
	}

	// Exact queries are untouched by the tier.
	if code, _ := do(t, h, "GET", "/spread?seeds=1,2,3", ""); code != 200 {
		t.Fatal("partitioned exact /spread regressed")
	}

	// A sketchless snapshot cannot serve the tier: 501 naming the fix.
	plain := credist.Learn(demoDataset(), credist.Options{Lambda: 0.001})
	plainPath := filepath.Join(dir, "plain.bin")
	if err := plain.Save(plainPath); err != nil {
		t.Fatalf("Save plain: %v", err)
	}
	snapPlain, err := serve.Build(serve.Source{
		GraphPath: graphPath, LogPath: logPath, ModelPath: plainPath, Partitions: 2,
	})
	if err != nil {
		t.Fatalf("partitioned Build from plain snapshot: %v", err)
	}
	hPlain := serve.New(snapPlain).Handler()
	code, errBody := do(t, hPlain, "GET", "/spread?seeds=1,2&eps=0.1", "")
	if code != 501 {
		t.Fatalf("sketchless partitioned approx: %d %v, want 501", code, errBody)
	}
	if msg, _ := errBody["error"].(string); !strings.Contains(msg, "ris-samples") {
		t.Fatalf("501 error %q does not tell the operator how to fix it", msg)
	}
}

// TestApproxDeterministicAcrossServers pins that two servers over the
// same dataset answer approximate queries identically (the serving-tier
// face of the striped-collection determinism wall).
func TestApproxDeterministicAcrossServers(t *testing.T) {
	query := "/spread?seeds=4,9,16&eps=0.05"
	var ref map[string]any
	for i := 0; i < 2; i++ {
		h := newTestServer(t).Handler()
		code, body := do(t, h, "GET", query, "")
		if code != 200 {
			t.Fatalf("server %d: %d %v", i, code, body)
		}
		if i == 0 {
			ref = body
			continue
		}
		for _, key := range []string{"estimate", "ci_low", "ci_high", "achieved_eps", "samples"} {
			if fmt.Sprint(body[key]) != fmt.Sprint(ref[key]) {
				t.Fatalf("%s differs across servers: %v vs %v", key, body[key], ref[key])
			}
		}
	}
}

// saveSketchModel saves the demo dataset and a model carrying a persisted
// RR sketch of pool samples into dir, returning a Source template that
// serves the model file.
func saveSketchModel(t *testing.T, dir string, pool int) serve.Source {
	t.Helper()
	graphPath, logPath := saveDemoDataset(t, dir)
	model := credist.Learn(demoDataset(), credist.Options{Lambda: 0.001})
	if err := model.BuildApproxSketch(pool); err != nil {
		t.Fatalf("BuildApproxSketch: %v", err)
	}
	modelPath := filepath.Join(dir, "model-ris.bin")
	if err := model.Save(modelPath); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return serve.Source{GraphPath: graphPath, LogPath: logPath, ModelPath: modelPath}
}

// TestApproxFromModelFileHTTP serves a model file saved with a persisted
// sketch: the eps=0.1 interval holds the exact answer at the target
// precision, the budgeted and seed-selection intervals are valid, the
// restored pool answers every query with zero sampling, and a restarted
// server answers the same bits.
func TestApproxFromModelFileHTTP(t *testing.T) {
	const pool = 50000
	src := saveSketchModel(t, t.TempDir(), pool)
	build := func() http.Handler {
		t.Helper()
		snap, err := serve.Build(src)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return serve.New(snap).Handler()
	}
	valid := func(name string, r serve.ApproxBody) {
		t.Helper()
		if r.CILow > r.Estimate || r.Estimate > r.CIHigh || r.Samples <= 0 || r.Elapsed < 0 {
			t.Fatalf("%s: malformed interval %+v", name, r)
		}
	}
	h := build()
	var exact serve.SpreadResponse
	getJSON(t, h, "GET", "/spread?seeds=1,2,3", "", &exact)
	var eps, budget serve.ApproxSpreadResponse
	getJSON(t, h, "GET", "/spread?seeds=1,2,3&eps=0.1", "", &eps)
	valid("eps=0.1", eps.ApproxBody)
	if eps.CILow > exact.Spread || exact.Spread > eps.CIHigh {
		t.Fatalf("exact spread %g outside the eps=0.1 interval %+v", exact.Spread, eps.ApproxBody)
	}
	if eps.AchievedEps == nil || *eps.AchievedEps > 0.1 {
		t.Fatalf("eps=0.1 achieved %v", eps.AchievedEps)
	}
	getJSON(t, h, "GET", "/spread?seeds=1,2,3&budget=10ms", "", &budget)
	valid("budget=10ms", budget.ApproxBody)
	var seeds serve.ApproxSeedsResponse
	getJSON(t, h, "GET", "/seeds?k=5&eps=0.1", "", &seeds)
	valid("/seeds?k=5&eps=0.1", seeds.ApproxBody)
	if len(seeds.Seeds) != 5 {
		t.Fatalf("/seeds?k=5&eps=0.1 returned %v", seeds.Seeds)
	}
	var stats serve.StatsResponse
	getJSON(t, h, "GET", "/stats", "", &stats)
	if stats.ApproxSamples < pool || stats.ApproxBytes <= 0 || stats.ApproxSampled != 0 {
		t.Fatalf("restored pool stats: samples %d, bytes %d, sampled %d; want >= %d samples and zero sampling",
			stats.ApproxSamples, stats.ApproxBytes, stats.ApproxSampled, pool)
	}
	if stats.ApproxSpreadRequests != 2 || stats.ApproxSeedsRequests != 1 {
		t.Fatalf("approx counters: spread %d, seeds %d; want 2 and 1", stats.ApproxSpreadRequests, stats.ApproxSeedsRequests)
	}

	// Restart: the sketch rides the snapshot, so a fresh server answers
	// the same query bit-identically, again with zero sampling.
	h2 := build()
	var again serve.ApproxSpreadResponse
	getJSON(t, h2, "GET", "/spread?seeds=1,2,3&eps=0.1", "", &again)
	again.Elapsed = eps.Elapsed
	if !reflect.DeepEqual(again.ApproxBody, eps.ApproxBody) {
		t.Fatalf("restarted server answered %+v, first server %+v", again.ApproxBody, eps.ApproxBody)
	}
	getJSON(t, h2, "GET", "/stats", "", &stats)
	if stats.ApproxSamples < pool || stats.ApproxSampled != 0 {
		t.Fatalf("restarted server stats: samples %d, sampled %d", stats.ApproxSamples, stats.ApproxSampled)
	}
}

// TestApproxPartitionedMatchesOneEngine pins that the partitioned tier is
// the one-engine tier capped at the restored pool: whenever a one-engine
// snapshot over the same model file answers from that pool, neither
// drawing a sample nor answering exactly, four partitions answer the
// same bits.
func TestApproxPartitionedMatchesOneEngine(t *testing.T) {
	src := saveSketchModel(t, t.TempDir(), 20000)
	partSrc := src
	partSrc.Partitions = 4
	parted, err := serve.Build(partSrc)
	if err != nil {
		t.Fatalf("partitioned Build: %v", err)
	}
	compared := 0
	for _, q := range []struct {
		seeds []credist.NodeID
		k     int
		eps   float64
	}{
		{seeds: []credist.NodeID{1, 2, 3}, eps: 0.5},
		{seeds: []credist.NodeID{1, 2, 3}, eps: 0.1},
		{seeds: []credist.NodeID{40, 80, 120, 160}, eps: 0.2},
		{seeds: []credist.NodeID{7}, eps: 0.01},
		{k: 3, eps: 0.5},
		{k: 5, eps: 0.05},
	} {
		// A fresh one-engine snapshot per query keeps its pool at the
		// restored size, as the partitioned one's stays.
		one, err := serve.Build(src)
		if err != nil {
			t.Fatal(err)
		}
		opts := credist.ApproxOptions{Eps: q.eps}
		var want, got credist.ApproxResult
		var wantSeeds, gotSeeds []credist.NodeID
		if q.k > 0 {
			wantSeeds, want, err = one.ApproxSeeds(q.k, opts)
			if err == nil {
				gotSeeds, got, err = parted.ApproxSeeds(q.k, opts)
			}
		} else {
			want, err = one.ApproxSpread(q.seeds, opts)
			if err == nil {
				got, err = parted.ApproxSpread(q.seeds, opts)
			}
		}
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		if got.Grown != 0 {
			t.Fatalf("%+v: partitioned query drew %d samples", q, got.Grown)
		}
		if want.Grown != 0 || want.Samples == 0 {
			t.Logf("%+v: one engine drew %d samples or answered exactly", q, want.Grown)
			continue
		}
		compared++
		want.Elapsed, got.Elapsed = 0, 0
		if want != got || !reflect.DeepEqual(wantSeeds, gotSeeds) {
			t.Fatalf("%+v: partitioned %v %+v, one engine %v %+v", q, gotSeeds, got, wantSeeds, want)
		}
	}
	if compared < 3 {
		t.Fatalf("only %d queries answered from the restored pool on one engine", compared)
	}
	if st := parted.ApproxStats(); st.Sampled != 0 {
		t.Fatalf("partitioned tier sampled %d sets", st.Sampled)
	}
}

// TestApproxPartitionedKeepsPoolAcrossIngest: a partitioned server over a
// 2,048-sample sketch model, heap-read or mapped, at partitions {1, 4},
// answers /spread?eps= before and after a one-action /ingest. Before, the
// restored pool answers; after, the successor has no pool and answers
// exactly instead of 501, until /seeds?eps= grows a fresh pool up to the
// persisted size. A checkpoint taken then carries the grown sketch, so a
// restart from it answers the same bytes.
func TestApproxPartitionedKeepsPoolAcrossIngest(t *testing.T) {
	const pool, target = 2048, "/spread?seeds=1,2,3&eps=0.2"
	dir := t.TempDir()
	src := saveSketchModel(t, dir, pool)
	batch := demoIngestBatch(t, credist.ActionID(demoDataset().Log.NumActions()))
	tailPath := filepath.Join(dir, "ingested.tail.log")
	f, err := os.Create(tailPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := actionlog.WriteTuples(f, demoDataset().NumUsers(), batch); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ingest, _ := json.Marshal(map[string]any{"tuples": batch})
	// answer is the /spread body without the snapshot id and the
	// wall-clock "elapsed"; samples is the pool it must come from (0:
	// the exact evaluator).
	answer := func(name string, h http.Handler, samples float64) string {
		t.Helper()
		code, decoded := do(t, h, "GET", target, "")
		if code != http.StatusOK {
			t.Fatalf("%s: %s: status %d: %v", name, target, code, decoded)
		}
		delete(decoded, "snapshot")
		delete(decoded, "elapsed")
		if s := decoded["samples"].(float64); s != samples {
			t.Fatalf("%s: answered from %v samples, want %v", name, s, samples)
		}
		if samples == 0 && (decoded["ci_low"] != decoded["estimate"] || decoded["ci_high"] != decoded["estimate"]) {
			t.Fatalf("%s: exact answer %v is not a zero-width interval", name, decoded)
		}
		out, err := json.Marshal(decoded)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	for _, mmap := range []bool{false, true} {
		for _, n := range []int{1, 4} {
			name := fmt.Sprintf("mmap=%t/parts=%d", mmap, n)
			src.Mmap, src.Partitions = mmap, n
			snap, err := serve.Build(src)
			if err != nil {
				t.Fatalf("%s: Build: %v", name, err)
			}
			h := serve.New(snap).Handler()
			answer(name+"/before ingest", h, pool)
			if code, body := do(t, h, "POST", "/ingest", string(ingest)); code != http.StatusOK {
				t.Fatalf("%s: /ingest: status %d: %v", name, code, body)
			}
			answer(name+"/after ingest", h, 0)
			// An eps no pool below the cap meets grows it to the cap.
			if code, body := do(t, h, "GET", "/seeds?k=3&eps=0.000001", ""); code != http.StatusOK || body["samples"] != float64(pool) {
				t.Fatalf("%s: /seeds?eps: status %d: %v", name, code, body)
			}
			want := answer(name+"/after regrowth", h, pool)

			ckpt := filepath.Join(t.TempDir(), "ckpt.bin")
			if code, body := do(t, h, "POST", "/snapshot", fmt.Sprintf(`{"path":%q}`, ckpt)); code != http.StatusOK {
				t.Fatalf("%s: /snapshot: status %d: %v", name, code, body)
			}
			restart := src
			restart.ModelPath, restart.TailPath = ckpt, tailPath
			snap, err = serve.Build(restart)
			if err != nil {
				t.Fatalf("%s: Build from the checkpoint: %v", name, err)
			}
			if s := snap.ApproxStats().Samples; s <= 0 {
				t.Fatalf("%s: the checkpoint carried no sketch", name)
			}
			if got := answer(name+"/restarted", serve.New(snap).Handler(), pool); got != want {
				t.Errorf("%s: restarted answer diverged:\n  before: %s\n  after:  %s", name, want, got)
			}
		}
	}
}
