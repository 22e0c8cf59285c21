package serve_test

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"credist"
	"credist/internal/serve"
)

// TestConcurrentQueriesAndReload hammers the read endpoints from many
// goroutines while another repeatedly swaps the snapshot through /reload.
// Under -race this proves the snapshot isolation story: queries only ever
// touch the immutable snapshot they pinned, reloads never mutate shared
// state, and no request is dropped or answered with a 5xx during a swap.
// Besides one fixed set, every reader asks its own distinct seed sets,
// plain and restricted to an audience, each checked against an answer
// computed sequentially beforehand — so scratch state leaking between
// concurrent evaluations (the evaluator pools it) would show as a wrong
// answer.
func TestConcurrentQueriesAndReload(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dir := t.TempDir()
	gp, lp := filepath.Join(dir, "d.graph"), filepath.Join(dir, "d.log")
	if err := credist.SaveDataset(demoDataset(), gp, lp); err != nil {
		t.Fatalf("SaveDataset: %v", err)
	}
	reloadBody, _ := json.Marshal(serve.Source{GraphPath: gp, LogPath: lp, Lambda: 0.001})

	const readers = 8
	const requestsPerReader = 40
	const reloads = 3

	// One distinct 3-seed set per reader and iteration, and its plain and
	// audience answers from the model, computed before any concurrency.
	model := demoModel()
	var audience []credist.NodeID
	var audienceIDs []string
	for u := 0; u < 200; u += 4 {
		audience = append(audience, credist.NodeID(u))
		audienceIDs = append(audienceIDs, strconv.Itoa(u))
	}
	audienceParam := strings.Join(audienceIDs, ",")
	type setQuery struct {
		seeds             string
		plain, restricted float64
	}
	queries := make([][]setQuery, readers)
	rng := rand.New(rand.NewPCG(17, 4))
	for w := range queries {
		queries[w] = make([]setQuery, requestsPerReader)
		for i := range queries[w] {
			perm := rng.Perm(200)[:3]
			seeds := []credist.NodeID{credist.NodeID(perm[0]), credist.NodeID(perm[1]), credist.NodeID(perm[2])}
			restricted, err := model.SpreadObj(seeds, &credist.Objective{Audience: audience})
			if err != nil {
				t.Fatalf("SpreadObj(%v): %v", seeds, err)
			}
			queries[w][i] = setQuery{fmt.Sprintf("%d,%d,%d", perm[0], perm[1], perm[2]), model.Spread(seeds), restricted}
		}
	}

	var failures atomic.Int64
	var wg sync.WaitGroup
	get := func(path string, out any) error {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}

	wantSpread := demoModel().Spread([]credist.NodeID{1, 2, 3})
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < requestsPerReader; i++ {
				switch i % 4 {
				case 0:
					var out serve.SpreadResponse
					if err := get("/spread?seeds=1,2,3", &out); err != nil {
						t.Log(err)
						failures.Add(1)
						return
					}
					// Every snapshot is learned from the same dataset, so the
					// answer is the same bits no matter which one served it.
					if out.Spread != wantSpread {
						t.Logf("spread diverged: %b vs %b", out.Spread, wantSpread)
						failures.Add(1)
						return
					}
				case 1:
					var out serve.GainResponse
					if err := get(fmt.Sprintf("/gain?candidates=%d,%d", w, 10+i%5), &out); err != nil {
						t.Log(err)
						failures.Add(1)
						return
					}
				case 2:
					var out serve.SeedsResponse
					if err := get("/seeds?k=2", &out); err != nil {
						t.Log(err)
						failures.Add(1)
						return
					}
				case 3:
					q := queries[w][i]
					var plain, restricted serve.SpreadResponse
					if err := get("/spread?seeds="+q.seeds, &plain); err != nil {
						t.Log(err)
						failures.Add(1)
						return
					}
					if err := get("/spread?seeds="+q.seeds+"&audience="+audienceParam, &restricted); err != nil {
						t.Log(err)
						failures.Add(1)
						return
					}
					if plain.Spread != q.plain || restricted.Spread != q.restricted {
						t.Logf("seeds %s: spread %b, audience %b; want %b, %b",
							q.seeds, plain.Spread, restricted.Spread, q.plain, q.restricted)
						failures.Add(1)
						return
					}
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			resp, err := http.Post(ts.URL+"/reload", "application/json", strings.NewReader(string(reloadBody)))
			if err != nil {
				t.Log(err)
				failures.Add(1)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Logf("/reload: status %d", resp.StatusCode)
				failures.Add(1)
				return
			}
		}
	}()

	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d concurrent requests failed", n)
	}

	// The final snapshot id reflects every install: 1 initial + reloads.
	var st serve.StatsResponse
	if err := get("/stats", &st); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	if st.Snapshot != int64(1+reloads) {
		t.Errorf("final snapshot id = %d, want %d", st.Snapshot, 1+reloads)
	}
}

// TestConcurrentSeedsSingleFlight hammers a cold snapshot with concurrent
// /seeds requests for the same k: the growth lock must run CELF exactly
// once (not N times), every caller must get the identical result, a
// smaller k afterwards must be answered from the computed prefix with
// zero additional runs, and only a k beyond the prefix adds exactly one
// more (marginal) growth run. Run under -race this also proves the
// publish/read handshake itself is sound.
func TestConcurrentSeedsSingleFlight(t *testing.T) {
	srv := newTestServer(t)
	snap := srv.Current()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 16
	results := make([]serve.SeedsResponse, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start.Wait()
			resp, err := http.Get(ts.URL + "/seeds?k=4")
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[c] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[c] = json.NewDecoder(resp.Body).Decode(&results[c])
		}(c)
	}
	start.Done()
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	if n := snap.Selections(); n != 1 {
		t.Fatalf("CELF ran %d times for %d concurrent requests, want exactly 1", n, clients)
	}
	for c := 1; c < clients; c++ {
		if len(results[c].Seeds) != len(results[0].Seeds) {
			t.Fatalf("client %d got %d seeds, client 0 got %d", c, len(results[c].Seeds), len(results[0].Seeds))
		}
		for i := range results[0].Seeds {
			if results[c].Seeds[i] != results[0].Seeds[i] || results[c].Gains[i] != results[0].Gains[i] {
				t.Fatalf("client %d diverged at seed %d", c, i)
			}
		}
	}

	// A smaller k is a prefix of the computed selection — zero CELF work —
	// and the same k again is too.
	var smaller, again serve.SeedsResponse
	getJSON(t, srv.Handler(), "GET", "/seeds?k=2", "", &smaller)
	getJSON(t, srv.Handler(), "GET", "/seeds?k=4", "", &again)
	if n := snap.Selections(); n != 1 {
		t.Fatalf("selections = %d after a smaller k and a repeat k, want still 1", n)
	}
	if !smaller.Cached || !again.Cached {
		t.Errorf("prefix requests not served from the computed selection: k=2 cached=%v, k=4 cached=%v",
			smaller.Cached, again.Cached)
	}
	for i := range smaller.Seeds {
		if smaller.Seeds[i] != results[0].Seeds[i] || smaller.Gains[i] != results[0].Gains[i] {
			t.Fatalf("k=2 prefix diverges from the k=4 selection at seed %d", i)
		}
	}

	// Only a k beyond the computed prefix grows the selection — one more
	// run, and it reuses the committed prefix rather than restarting.
	var grown serve.SeedsResponse
	getJSON(t, srv.Handler(), "GET", "/seeds?k=6", "", &grown)
	if n := snap.Selections(); n != 2 {
		t.Fatalf("selections = %d after growing to k=6, want 2", n)
	}
	if grown.Cached {
		t.Error("growth to k=6 reported cached")
	}
	for i := range results[0].Seeds {
		if grown.Seeds[i] != results[0].Seeds[i] || grown.Gains[i] != results[0].Gains[i] {
			t.Fatalf("grown selection rewrote the committed prefix at seed %d", i)
		}
	}
}

// TestPrefixReuseZeroExtraCELF pins the prefix-incremental contract under
// concurrent load: after one cold /seeds?k=50, sixteen goroutines
// requesting every k in {1..50} trigger zero additional CELF runs, and
// every answer is exactly the first k seeds of the one computed
// selection. Run under -race this also proves the lock-free prefix reads
// are sound against concurrent /stats.
func TestPrefixReuseZeroExtraCELF(t *testing.T) {
	srv := newTestServer(t)
	snap := srv.Current()
	h := srv.Handler()

	const maxK = 50
	var cold serve.SeedsResponse
	getJSON(t, h, "GET", fmt.Sprintf("/seeds?k=%d", maxK), "", &cold)
	if cold.Cached || len(cold.Seeds) != maxK {
		t.Fatalf("cold k=%d: cached=%v, %d seeds", maxK, cold.Cached, len(cold.Seeds))
	}
	if n := snap.Selections(); n != 1 {
		t.Fatalf("cold run executed %d selections, want 1", n)
	}

	const clients = 16
	var wg sync.WaitGroup
	var failures atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 1; k <= maxK; k++ {
				var resp serve.SeedsResponse
				status, _ := doRaw(t, h, "GET", fmt.Sprintf("/seeds?k=%d", k), "", &resp)
				if status != http.StatusOK || !resp.Cached || len(resp.Seeds) != k {
					t.Logf("client %d k=%d: status %d cached=%v seeds=%d", c, k, status, resp.Cached, len(resp.Seeds))
					failures.Add(1)
					return
				}
				for i := 0; i < k; i++ {
					if resp.Seeds[i] != cold.Seeds[i] || resp.Gains[i] != cold.Gains[i] {
						t.Logf("client %d k=%d: diverged at seed %d", c, k, i)
						failures.Add(1)
						return
					}
				}
				// The prefix spread is the cumulative gain sum, bit-for-bit.
				want := 0.0
				for _, g := range resp.Gains {
					want += g
				}
				if resp.Spread != want {
					t.Logf("client %d k=%d: spread %b != cumulative %b", c, k, resp.Spread, want)
					failures.Add(1)
					return
				}
				if k%10 == 0 {
					// Interleave /stats reads with the prefix slicing.
					var st serve.StatsResponse
					if status, _ := doRaw(t, h, "GET", "/stats", "", &st); status != http.StatusOK {
						failures.Add(1)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d concurrent prefix reads failed", n)
	}
	if n := snap.Selections(); n != 1 {
		t.Fatalf("prefix reuse ran %d extra CELF selections for %d clients x %d ks, want 0 extra (1 total)",
			n-1, clients, maxK)
	}
	var st serve.StatsResponse
	getJSON(t, h, "GET", "/stats", "", &st)
	if st.SeedPrefixK != maxK || st.Selections != 1 {
		t.Fatalf("stats report prefix k=%d selections=%d, want %d and 1", st.SeedPrefixK, st.Selections, maxK)
	}
}

// TestConcurrentGainsShareBasePlanner drives the batched gain path from
// many goroutines at once, with an empty and a non-empty base seed set, on
// a heap-resident and a memory-mapped snapshot. Both paths read the shared
// scanned planner — the base seeds are committed to a read-only probe,
// not to a clone — so -race verifies the reads really are read-only, every
// answer must match clone-and-commit on a fresh planner bit for bit, and
// afterwards the shared planner's heap and mapped footprint and its seed
// set must be exactly as before: nothing committed, nothing promoted.
func TestConcurrentGainsShareBasePlanner(t *testing.T) {
	dir := t.TempDir()
	gp, lp, mp := filepath.Join(dir, "d.graph"), filepath.Join(dir, "d.log"), filepath.Join(dir, "model.bin")
	if err := credist.SaveDataset(demoDataset(), gp, lp); err != nil {
		t.Fatalf("SaveDataset: %v", err)
	}
	if err := demoModel().Save(mp); err != nil {
		t.Fatalf("Save: %v", err)
	}
	mapped, err := serve.Build(serve.Source{GraphPath: gp, LogPath: lp, ModelPath: mp, Mmap: true})
	if err != nil {
		t.Fatalf("Build mmap: %v", err)
	}
	if serve.BasePlanner(mapped).MappedBytes() == 0 {
		t.Fatal("mmap snapshot's planner maps nothing")
	}
	cands := []credist.NodeID{0, 1, 2, 3, 4, 5}
	for _, backend := range []struct {
		name string
		snap *serve.Snapshot
	}{{"heap", newTestServer(t).Current()}, {"mmap", mapped}} {
		for _, base := range [][]credist.NodeID{nil, {5, 6, 5, 2}} {
			ref := demoModel().NewPlanner()
			for _, s := range base {
				ref.Add(s)
			}
			want := make([]float64, len(cands))
			for i, x := range cands {
				want[i] = ref.Gain(x)
			}
			shared := serve.BasePlanner(backend.snap)
			heap, mappedBytes, seeds := shared.HeapBytes(), shared.MappedBytes(), shared.Seeds()
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						got, err := backend.snap.Gains(base, cands)
						if err != nil {
							t.Errorf("%s base=%v: Gains: %v", backend.name, base, err)
							return
						}
						for j := range want {
							if got[j] != want[j] {
								t.Errorf("%s base=%v: gain %d: %b vs %b", backend.name, base, j, got[j], want[j])
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			if h, m, s := shared.HeapBytes(), shared.MappedBytes(), shared.Seeds(); h != heap || m != mappedBytes || !slices.Equal(s, seeds) {
				t.Errorf("%s base=%v: shared planner changed: heap %d -> %d, mapped %d -> %d, seeds %v -> %v",
					backend.name, base, heap, h, mappedBytes, m, seeds, s)
			}
		}
	}
}
