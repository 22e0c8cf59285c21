package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"credist"
	"credist/internal/serve"
)

// demoIngestBatch builds a small new propagation over an edge the trained
// model actually assigns credit on, so the delta is non-empty. Action ids
// start at nextAction.
func demoIngestBatch(t *testing.T, nextAction credist.ActionID) []credist.Tuple {
	t.Helper()
	ds := demoDataset()
	m := demoModel()
	for _, e := range ds.Graph.Edges() {
		if m.PairCredit(e.From, e.To) > 0 {
			return []credist.Tuple{
				{User: e.From, Action: nextAction, Time: 10},
				{User: e.To, Action: nextAction, Time: 12},
			}
		}
	}
	t.Fatal("demo dataset has no credited edge")
	return nil
}

// TestIngestEndpoint drives the streaming path end to end: the successor
// snapshot is built incrementally, swapped atomically, answers queries
// bit-identically to an offline Model.Ingest over the same tuples, resets
// the computed seed prefix, and reports its base/delta split until a
// compacting ingest folds the delta away.
func TestIngestEndpoint(t *testing.T) {
	srv := newTestServer(t)
	h := srv.Handler()
	nextAction := credist.ActionID(demoDataset().Log.NumActions())
	batch := demoIngestBatch(t, nextAction)

	// Grow the seed prefix on the pre-ingest snapshot.
	var warm serve.SeedsResponse
	getJSON(t, h, "GET", "/seeds?k=3", "", &warm)

	body, _ := json.Marshal(map[string]any{"tuples": batch})
	var ir serve.IngestResponse
	getJSON(t, h, "POST", "/ingest", string(body), &ir)
	if ir.Snapshot != warm.Snapshot+1 {
		t.Errorf("snapshot id = %d, want %d", ir.Snapshot, warm.Snapshot+1)
	}
	if ir.AppendedTuples != len(batch) || ir.DeltaActions != 1 {
		t.Errorf("appended %d tuples / %d delta actions, want %d / 1", ir.AppendedTuples, ir.DeltaActions, len(batch))
	}
	if ir.DeltaEntries <= 0 {
		t.Errorf("delta entries = %d, want > 0 (batch rides a credited edge)", ir.DeltaEntries)
	}
	if ir.Entries != ir.BaseEntries+ir.DeltaEntries {
		t.Errorf("entries %d != base %d + delta %d", ir.Entries, ir.BaseEntries, ir.DeltaEntries)
	}

	// Every query now answers bit-identically to an offline Model.Ingest.
	offline, err := demoModel().Ingest(batch)
	if err != nil {
		t.Fatalf("offline Ingest: %v", err)
	}
	var sr serve.SpreadResponse
	getJSON(t, h, "GET", "/spread?seeds=1,2,3", "", &sr)
	if want := offline.Spread([]credist.NodeID{1, 2, 3}); sr.Spread != want {
		t.Errorf("post-ingest /spread = %b, offline = %b", sr.Spread, want)
	}
	var gr serve.GainResponse
	getJSON(t, h, "GET", "/gain?candidates=4,5,6", "", &gr)
	if want := offlineGains(t, offline, nil, []credist.NodeID{4, 5, 6}); !equalFloats(gr.Gains, want) {
		t.Errorf("post-ingest /gain = %v, offline = %v", gr.Gains, want)
	}

	// The computed seed prefix was invalidated and recomputes on the new model.
	var after serve.SeedsResponse
	getJSON(t, h, "GET", "/seeds?k=3", "", &after)
	if after.Cached {
		t.Error("seed prefix leaked across ingest")
	}
	if after.Snapshot != ir.Snapshot {
		t.Errorf("/seeds answered from snapshot %d, want %d", after.Snapshot, ir.Snapshot)
	}
	wantSeeds, wantGains := offlineSeeds(offline, 3)
	for i := range wantSeeds {
		if after.Seeds[i] != wantSeeds[i] || after.Gains[i] != wantGains[i] {
			t.Errorf("post-ingest seed %d: served (%d, %b), offline (%d, %b)",
				i, after.Seeds[i], after.Gains[i], wantSeeds[i], wantGains[i])
		}
	}

	// /stats reports the lineage.
	var st serve.StatsResponse
	getJSON(t, h, "GET", "/stats", "", &st)
	if st.DeltaEntries != ir.DeltaEntries || st.DeltaActions != 1 || st.Ingests != 1 {
		t.Errorf("stats delta = %d entries / %d actions / %d ingests", st.DeltaEntries, st.DeltaActions, st.Ingests)
	}
	if st.LastIngest == nil {
		t.Error("stats missing last_ingest after ingest")
	}

	// A compacting ingest folds the delta into the base.
	batch2 := []credist.Tuple{
		{User: batch[0].User, Action: nextAction + 1, Time: 20},
		{User: batch[1].User, Action: nextAction + 1, Time: 23},
	}
	body2, _ := json.Marshal(map[string]any{"tuples": batch2, "compact": true})
	var ir2 serve.IngestResponse
	getJSON(t, h, "POST", "/ingest", string(body2), &ir2)
	if ir2.DeltaEntries != 0 || ir2.DeltaActions != 0 {
		t.Errorf("compacting ingest left delta %d entries / %d actions", ir2.DeltaEntries, ir2.DeltaActions)
	}
	offline2, err := offline.Ingest(batch2)
	if err != nil {
		t.Fatalf("offline Ingest 2: %v", err)
	}
	getJSON(t, h, "GET", "/spread?seeds=1,2,3", "", &sr)
	if want := offline2.Spread([]credist.NodeID{1, 2, 3}); sr.Spread != want {
		t.Errorf("post-compact /spread = %b, offline = %b", sr.Spread, want)
	}
}

// TestIngestFromServerSideLog feeds the tail through a file path, the
// shape `credist ingest` and the CI smoke test use.
func TestIngestFromServerSideLog(t *testing.T) {
	srv := newTestServer(t)
	h := srv.Handler()
	nextAction := credist.ActionID(demoDataset().Log.NumActions())
	batch := demoIngestBatch(t, nextAction)

	var lines strings.Builder
	fmt.Fprintf(&lines, "%d\n", demoDataset().NumUsers())
	for _, tp := range batch {
		fmt.Fprintf(&lines, "%d %d %g\n", tp.User, tp.Action, tp.Time)
	}
	path := filepath.Join(t.TempDir(), "tail.log")
	if err := os.WriteFile(path, []byte(lines.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(map[string]any{"log": path})
	var ir serve.IngestResponse
	getJSON(t, h, "POST", "/ingest", string(body), &ir)
	if ir.AppendedTuples != len(batch) {
		t.Fatalf("appended %d tuples, want %d", ir.AppendedTuples, len(batch))
	}
	offline, err := demoModel().Ingest(batch)
	if err != nil {
		t.Fatal(err)
	}
	var sr serve.SpreadResponse
	getJSON(t, h, "GET", "/spread?seeds=1,2,3", "", &sr)
	if want := offline.Spread([]credist.NodeID{1, 2, 3}); sr.Spread != want {
		t.Errorf("/spread = %b, offline = %b", sr.Spread, want)
	}
}

// TestIngestHugeUserAllocatesNothing: a tuple whose user id is far past
// the graph is rejected before the log sizes anything by it — a 400 that
// names the user, with well under 1 MiB allocated for the whole request.
func TestIngestHugeUserAllocatesNothing(t *testing.T) {
	h := newTestServer(t).Handler()
	next := demoDataset().Log.NumActions()
	body := fmt.Sprintf(`{"tuples":[{"user":2147483647,"action":%d,"time":1}]}`, next)
	// Warm the handler and wait out the background evaluator build, so
	// the measured request is the only thing allocating.
	do(t, h, "GET", "/spread?seeds=1", "")
	do(t, h, "POST", "/ingest", body)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	status, resp := do(t, h, "POST", "/ingest", body)
	runtime.ReadMemStats(&after)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %v)", status, resp)
	}
	if msg, _ := resp["error"].(string); !strings.Contains(msg, "2147483647") {
		t.Errorf("error = %q, want it to name user 2147483647", msg)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("rejected ingest allocated %d bytes, want < 1 MiB", grew)
	}
}

// TestIngestErrors pins the endpoint's validation surface.
func TestIngestErrors(t *testing.T) {
	h := newTestServer(t).Handler()
	next := demoDataset().Log.NumActions()
	cases := []struct {
		name    string
		body    string
		wantSub string
	}{
		{"empty", `{}`, "no tuples"},
		{"bad json", `{`, "bad JSON"},
		{"unknown field", `{"bogus":1}`, "bad JSON"},
		{"existing action", `{"tuples":[{"user":0,"action":0,"time":1}]}`, "existing action"},
		{"out of order", fmt.Sprintf(`{"tuples":[{"user":0,"action":%d,"time":5},{"user":1,"action":%d,"time":4}]}`, next, next), "out of order"},
		{"user beyond graph", fmt.Sprintf(`{"tuples":[{"user":100000,"action":%d,"time":1}]}`, next), "exceeds the graph"},
		{"missing log file", `{"log":"/nonexistent/tail.log"}`, "no such file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(t, h, "POST", "/ingest", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %v)", status, body)
			}
			msg, _ := body["error"].(string)
			if !strings.Contains(msg, tc.wantSub) {
				t.Errorf("error = %q, want substring %q", msg, tc.wantSub)
			}
		})
	}
	if status, _ := do(t, h, "GET", "/ingest", ""); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest status = %d, want 405", status)
	}

	// A server-side path pointing at a non-tail file must fail without
	// echoing the file's contents — otherwise /ingest doubles as a remote
	// file reader.
	secret := "hunter2-very-secret-token"
	path := filepath.Join(t.TempDir(), "secrets.txt")
	if err := os.WriteFile(path, []byte(secret+":more\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"log": path})
	status, resp := do(t, h, "POST", "/ingest", string(body))
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
	msg, _ := resp["error"].(string)
	if strings.Contains(msg, secret) {
		t.Fatalf("error leaks file contents: %q", msg)
	}
	if !strings.Contains(msg, "not a parseable action-log tail") {
		t.Errorf("error = %q, want parse-failure message", msg)
	}
}

// TestConcurrentQueriesDuringIngest hammers the read endpoints while a
// writer streams successive ingests. Under -race this proves the
// frozen-base sharing story: successors share shards with the snapshot
// still serving traffic, and copy-on-write keeps seed selection on clones
// from ever touching them.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const readers = 8
	const requestsPerReader = 30
	const ingests = 3

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

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < requestsPerReader; i++ {
				switch i % 3 {
				case 0:
					var out serve.SpreadResponse
					if err := get("/spread?seeds=1,2,3", &out); err != nil {
						t.Log(err)
						failures.Add(1)
						return
					}
				case 1:
					var out serve.GainResponse
					if err := get(fmt.Sprintf("/gain?seeds=1&candidates=%d,%d", w, 10+i%5), &out); err != nil {
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
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		next := credist.ActionID(demoDataset().Log.NumActions())
		batch := demoIngestBatch(t, next)
		for i := 0; i < ingests; i++ {
			tuples := []map[string]any{
				{"user": batch[0].User, "action": int(next), "time": 10 + i},
				{"user": batch[1].User, "action": int(next), "time": 12 + i},
			}
			body, _ := json.Marshal(map[string]any{"tuples": tuples})
			resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Log(err)
				failures.Add(1)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Logf("/ingest: status %d", resp.StatusCode)
				failures.Add(1)
				return
			}
			next++
		}
	}()

	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d concurrent requests failed", n)
	}
	var st serve.StatsResponse
	if err := get("/stats", &st); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	if st.Snapshot != int64(1+ingests) || st.Ingests != ingests {
		t.Errorf("final snapshot %d / ingests %d, want %d / %d", st.Snapshot, st.Ingests, 1+ingests, ingests)
	}
}
