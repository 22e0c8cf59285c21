package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"credist"
	"credist/internal/actionlog"
	"credist/internal/datagen"
	"credist/internal/serve"
)

// demoDataset is a small deterministic dataset shared by the serve tests;
// learning and scanning it takes milliseconds.
var demoDataset = sync.OnceValue(func() *credist.Dataset {
	return credist.Generate(datagen.Config{
		Name: "demo", NumUsers: 200, OutDegree: 4, Reciprocity: 0.6,
		NumActions: 120, MeanInfluence: 0.1, MeanDelay: 8,
		SpontaneousPerAction: 1, Seed: 99,
	})
})

var demoModel = sync.OnceValue(func() *credist.Model {
	return credist.Learn(demoDataset(), credist.Options{Lambda: 0.001})
})

func newTestServer(t *testing.T) *serve.Server {
	t.Helper()
	snap, err := serve.Build(serve.Source{Dataset: demoDataset(), Lambda: 0.001})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return serve.New(snap)
}

// do performs one request against the handler and decodes the JSON body.
func do(t *testing.T, h http.Handler, method, target, body string) (int, map[string]any) {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var decoded map[string]any
	if ct := w.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
			t.Fatalf("%s %s: bad JSON body %q: %v", method, target, w.Body.String(), err)
		}
	}
	return w.Code, decoded
}

// TestHandlerTable pins the JSON shape and status code of every endpoint,
// including the error paths.
func TestHandlerTable(t *testing.T) {
	h := newTestServer(t).Handler()
	cases := []struct {
		name       string
		method     string
		target     string
		body       string
		wantStatus int
		wantKeys   []string // required top-level JSON keys
		wantErrSub string   // substring the "error" value must contain
	}{
		{name: "healthz", method: "GET", target: "/healthz",
			wantStatus: 200, wantKeys: []string{"status", "snapshot", "dataset"}},
		{name: "spread GET", method: "GET", target: "/spread?seeds=1,2,3",
			wantStatus: 200, wantKeys: []string{"snapshot", "seeds", "spread"}},
		{name: "spread POST", method: "POST", target: "/spread", body: `{"seeds":[1,2,3]}`,
			wantStatus: 200, wantKeys: []string{"snapshot", "seeds", "spread"}},
		{name: "spread batch", method: "POST", target: "/spread", body: `{"sets":[[1],[2,3]]}`,
			wantStatus: 200, wantKeys: []string{"snapshot", "spreads"}},
		{name: "spread missing seeds", method: "GET", target: "/spread",
			wantStatus: 400, wantErrSub: "missing seeds"},
		{name: "spread bad id", method: "GET", target: "/spread?seeds=1,x",
			wantStatus: 400, wantErrSub: `seeds: bad user id "x"`},
		{name: "spread out of range", method: "GET", target: "/spread?seeds=100000",
			wantStatus: 400, wantErrSub: "seeds: user id 100000 out of range"},
		{name: "spread seeds and sets", method: "POST", target: "/spread", body: `{"seeds":[1],"sets":[[2]]}`,
			wantStatus: 400, wantErrSub: "not both"},
		{name: "spread duplicate seeds", method: "GET", target: "/spread?seeds=3,3,3",
			wantStatus: 400, wantErrSub: "seeds: duplicate user id 3"},
		{name: "spread batch duplicate in set", method: "POST", target: "/spread", body: `{"sets":[[1],[2,2]]}`,
			wantStatus: 400, wantErrSub: "sets[1]: duplicate user id 2"},
		{name: "gain duplicate base seeds", method: "GET", target: "/gain?seeds=5,5&candidates=1",
			wantStatus: 400, wantErrSub: "seeds: duplicate user id 5"},
		{name: "gain duplicate candidates", method: "POST", target: "/gain", body: `{"candidates":[4,4]}`,
			wantStatus: 400, wantErrSub: "candidates: duplicate user id 4"},
		{name: "spread bad json", method: "POST", target: "/spread", body: `{"seeds":`,
			wantStatus: 400, wantErrSub: "bad JSON"},
		{name: "gain GET", method: "GET", target: "/gain?candidates=4,5",
			wantStatus: 200, wantKeys: []string{"snapshot", "candidates", "gains"}},
		{name: "gain with base", method: "POST", target: "/gain", body: `{"seeds":[1],"candidates":[4,5]}`,
			wantStatus: 200, wantKeys: []string{"snapshot", "seeds", "candidates", "gains"}},
		{name: "gain missing candidates", method: "GET", target: "/gain",
			wantStatus: 400, wantErrSub: "missing candidates"},
		{name: "seeds", method: "GET", target: "/seeds?k=3",
			wantStatus: 200, wantKeys: []string{"snapshot", "k", "seeds", "gains", "spread", "lookups", "cached"}},
		{name: "seeds missing k", method: "GET", target: "/seeds",
			wantStatus: 400, wantErrSub: "missing k"},
		{name: "seeds bad k", method: "GET", target: "/seeds?k=0",
			wantStatus: 400, wantErrSub: "positive integer"},
		{name: "seeds k too large", method: "GET", target: "/seeds?k=100000",
			wantStatus: 400, wantErrSub: "exceeds user count"},
		{name: "spread targeted", method: "GET", target: "/spread?seeds=1,2&audience=4,5,6",
			wantStatus: 200, wantKeys: []string{"snapshot", "seeds", "spread"}},
		{name: "spread windowed", method: "GET", target: "/spread?seeds=1,2&window=25",
			wantStatus: 200, wantKeys: []string{"snapshot", "seeds", "spread"}},
		{name: "spread bad window", method: "GET", target: "/spread?seeds=1&window=soon",
			wantStatus: 400, wantErrSub: "window must be a number"},
		{name: "spread unknown audience id", method: "GET", target: "/spread?seeds=1&audience=100000",
			wantStatus: 400, wantErrSub: "audience user 100000 outside the universe"},
		{name: "spread costs rejected", method: "GET", target: "/spread?seeds=1&costs=1:2",
			wantStatus: 400, wantErrSub: "not spread evaluation"},
		{name: "spread objective on batch", method: "POST", target: "/spread", body: `{"sets":[[1],[2]],"audience":[3]}`,
			wantStatus: 400, wantErrSub: "not a batch"},
		{name: "gain blocked", method: "GET", target: "/gain?candidates=4,5&blocked=7",
			wantStatus: 200, wantKeys: []string{"snapshot", "candidates", "gains"}},
		{name: "gain unknown blocked id", method: "GET", target: "/gain?candidates=4&blocked=100000",
			wantStatus: 400, wantErrSub: "blocked user 100000 outside the universe"},
		{name: "gain budget rejected", method: "GET", target: "/gain?candidates=4&budget=3",
			wantStatus: 400, wantErrSub: "not gain evaluation"},
		{name: "gain costs rejected", method: "GET", target: "/gain?candidates=4&costs=1:2",
			wantStatus: 400, wantErrSub: "not gain evaluation"},
		{name: "seeds budgeted", method: "GET", target: "/seeds?k=3&costs=1:5,2:5&budget=4",
			wantStatus: 200, wantKeys: []string{"snapshot", "k", "seeds", "gains", "spread", "lookups", "cached"}},
		{name: "seeds negative budget", method: "GET", target: "/seeds?k=3&budget=-4",
			wantStatus: 400, wantErrSub: "neither value space"},
		{name: "seeds budget NaN", method: "GET", target: "/seeds?k=3&budget=NaN",
			wantStatus: 400, wantErrSub: "neither value space"},
		{name: "seeds budget -5", method: "GET", target: "/seeds?k=3&budget=-5",
			wantStatus: 400, wantErrSub: "neither value space"},
		{name: "seeds budget Inf", method: "GET", target: "/seeds?k=3&budget=Inf",
			wantStatus: 400, wantErrSub: "neither value space"},
		{name: "seeds duration budget with costs", method: "GET", target: "/seeds?k=3&budget=10ms&costs=1:2",
			wantStatus: 400, wantErrSub: "only the default objective"},
		{name: "seeds malformed costs", method: "GET", target: "/seeds?k=3&costs=1-2",
			wantStatus: 400, wantErrSub: "costs must be id:cost pairs"},
		{name: "seeds costs bad user", method: "GET", target: "/seeds?k=3&costs=100000:2",
			wantStatus: 400, wantErrSub: "out of range"},
		{name: "seeds objective with eps", method: "GET", target: "/seeds?k=3&eps=0.1&audience=1,2",
			wantStatus: 400, wantErrSub: "only the default objective"},
		{name: "topk highdeg", method: "GET", target: "/topk?method=highdeg&k=3",
			wantStatus: 200, wantKeys: []string{"snapshot", "method", "k", "seeds", "spread"}},
		{name: "topk pagerank", method: "GET", target: "/topk?method=pagerank&k=3",
			wantStatus: 200, wantKeys: []string{"snapshot", "method", "k", "seeds", "spread"}},
		{name: "topk unknown method", method: "GET", target: "/topk?method=bogus&k=3",
			wantStatus: 400, wantErrSub: "unknown method"},
		{name: "explain seed", method: "GET", target: "/explain?seed=4",
			wantStatus: 200, wantKeys: []string{"snapshot", "seed", "gain", "paths", "total_paths"}},
		{name: "explain reach", method: "GET", target: "/explain?set=1,2&reach=5",
			wantStatus: 200, wantKeys: []string{"snapshot", "target", "seeds", "total", "per_seed", "paths", "total_paths"}},
		{name: "explain missing query", method: "GET", target: "/explain",
			wantStatus: 400, wantErrSub: "missing query"},
		{name: "explain both shapes", method: "GET", target: "/explain?seed=1&set=2&reach=3",
			wantStatus: 400, wantErrSub: "mutually exclusive"},
		{name: "explain set without reach", method: "GET", target: "/explain?set=1,2",
			wantStatus: 400, wantErrSub: "both set= and reach="},
		{name: "explain reach without set", method: "GET", target: "/explain?reach=5",
			wantStatus: 400, wantErrSub: "both set= and reach="},
		{name: "explain bad top", method: "GET", target: "/explain?seed=1&top=0",
			wantStatus: 400, wantErrSub: "positive integer"},
		{name: "explain seed out of range", method: "GET", target: "/explain?seed=100000",
			wantStatus: 400, wantErrSub: "seed: user id 100000 out of range"},
		{name: "explain multi seed", method: "GET", target: "/explain?seed=1,2",
			wantStatus: 400, wantErrSub: "single user id"},
		{name: "explain multi reach", method: "GET", target: "/explain?set=1&reach=5,6",
			wantStatus: 400, wantErrSub: "single user id"},
		{name: "explain duplicate set", method: "GET", target: "/explain?set=2,2&reach=5",
			wantStatus: 400, wantErrSub: "set: duplicate user id 2"},
		{name: "explain empty set", method: "GET", target: "/explain?set=,&reach=5",
			wantStatus: 400, wantErrSub: "at least one seed"},
		{name: "explain wrong method", method: "POST", target: "/explain",
			wantStatus: 405},
		{name: "stats", method: "GET", target: "/stats",
			wantStatus: 200, wantKeys: []string{"snapshot", "dataset", "users", "entries", "resident_bytes",
				"heap_bytes", "mapped_bytes", "row_store", "requests", "qps_1m", "explain_requests"}},
		{name: "reload wrong method", method: "GET", target: "/reload",
			wantStatus: 405},
		{name: "reload bad json", method: "POST", target: "/reload", body: `{`,
			wantStatus: 400, wantErrSub: "bad JSON"},
		{name: "reload unknown preset", method: "POST", target: "/reload", body: `{"preset":"nope"}`,
			wantStatus: 400, wantErrSub: "valid presets"},
		{name: "reload unknown field", method: "POST", target: "/reload", body: `{"bogus":1}`,
			wantStatus: 400, wantErrSub: "bad JSON"},
		{name: "reload slice paths", method: "POST", target: "/reload", body: `{"slices":["model.bin.slice-0-of-1"]}`,
			wantStatus: 400, wantErrSub: `unknown field "slices"`},
		{name: "reload params field", method: "POST", target: "/reload", body: `{"preset":"flixster-small","params":"params.txt"}`,
			wantStatus: 400, wantErrSub: `unknown field "params"`},
		{name: "reload empty source", method: "POST", target: "/reload", body: `{}`,
			wantStatus: 400, wantErrSub: "needs a preset"},
		{name: "reload mmap without model", method: "POST", target: "/reload", body: `{"preset":"flixster-small","mmap":true}`,
			wantStatus: 400, wantErrSub: "mmap requires a model path"},
		{name: "snapshot wrong method", method: "GET", target: "/snapshot",
			wantStatus: 405},
		{name: "snapshot missing path", method: "POST", target: "/snapshot", body: `{}`,
			wantStatus: 400, wantErrSub: "missing \"path\""},
		{name: "snapshot bad json", method: "POST", target: "/snapshot", body: `{`,
			wantStatus: 400, wantErrSub: "bad JSON"},
		{name: "snapshot unwritable path", method: "POST", target: "/snapshot", body: `{"path":"/nonexistent-dir/model.bin"}`,
			wantStatus: 400, wantErrSub: "snapshot"},
		{name: "unknown path", method: "GET", target: "/nope",
			wantStatus: 404, wantErrSub: "no such endpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(t, h, tc.method, tc.target, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %v)", status, tc.wantStatus, body)
			}
			for _, key := range tc.wantKeys {
				if _, ok := body[key]; !ok {
					t.Errorf("response missing key %q: %v", key, body)
				}
			}
			if tc.wantErrSub != "" {
				msg, _ := body["error"].(string)
				if !strings.Contains(msg, tc.wantErrSub) {
					t.Errorf("error = %q, want substring %q", msg, tc.wantErrSub)
				}
			}
		})
	}
}

// TestBitIdenticalToOfflineModel is the serving layer's core guarantee:
// every query answer equals — exactly, not approximately — the value the
// offline Model produces. JSON carries float64 through Go's shortest
// round-trip encoding, so even the HTTP boundary preserves the bits.
func TestBitIdenticalToOfflineModel(t *testing.T) {
	h := newTestServer(t).Handler()
	model := demoModel()

	seeds := []credist.NodeID{1, 2, 3}
	var sr serve.SpreadResponse
	getJSON(t, h, "GET", "/spread?seeds=1,2,3", "", &sr)
	if want := model.Spread(seeds); sr.Spread != want {
		t.Errorf("/spread = %b, offline Spread = %b", sr.Spread, want)
	}

	var gr serve.GainResponse
	getJSON(t, h, "GET", "/gain?candidates=4,5,6", "", &gr)
	if want := offlineGains(t, model, nil, []credist.NodeID{4, 5, 6}); !equalFloats(gr.Gains, want) {
		t.Errorf("/gain = %v, offline Gains = %v", gr.Gains, want)
	}

	getJSON(t, h, "POST", "/gain", `{"seeds":[1,2],"candidates":[4,5,6]}`, &gr)
	if want := offlineGains(t, model, []credist.NodeID{1, 2}, []credist.NodeID{4, 5, 6}); !equalFloats(gr.Gains, want) {
		t.Errorf("/gain with base = %v, offline Gains = %v", gr.Gains, want)
	}

	// A candidate already committed in the base set gains exactly 0.
	getJSON(t, h, "GET", "/gain?seeds=5&candidates=5,6", "", &gr)
	if gr.Gains[0] != 0 {
		t.Errorf("/gain for committed seed = %g, want 0", gr.Gains[0])
	}
	if want := offlineGains(t, model, []credist.NodeID{5}, []credist.NodeID{5, 6}); !equalFloats(gr.Gains, want) {
		t.Errorf("/gain committed-seed case = %v, offline Gains = %v", gr.Gains, want)
	}

	var seedsResp serve.SeedsResponse
	getJSON(t, h, "GET", "/seeds?k=4", "", &seedsResp)
	wantSeeds, wantGains := offlineSeeds(model, 4)
	if len(seedsResp.Seeds) != len(wantSeeds) {
		t.Fatalf("/seeds returned %d seeds, offline %d", len(seedsResp.Seeds), len(wantSeeds))
	}
	for i := range wantSeeds {
		if seedsResp.Seeds[i] != wantSeeds[i] || seedsResp.Gains[i] != wantGains[i] {
			t.Errorf("seed %d: served (%d, %b), offline (%d, %b)",
				i, seedsResp.Seeds[i], seedsResp.Gains[i], wantSeeds[i], wantGains[i])
		}
	}

	var batch serve.SpreadBatchResponse
	getJSON(t, h, "POST", "/spread", `{"sets":[[1],[2,3],[4,5,6]]}`, &batch)
	wantBatch := []float64{
		model.Spread([]credist.NodeID{1}),
		model.Spread([]credist.NodeID{2, 3}),
		model.Spread([]credist.NodeID{4, 5, 6}),
	}
	if !equalFloats(batch.Spreads, wantBatch) {
		t.Errorf("/spread batch = %v, offline = %v", batch.Spreads, wantBatch)
	}
}

// TestExplainEndpoints pins /explain's bit-consistency contract over the
// HTTP boundary: an explained gain equals the /gain answer for the same
// candidate bit for bit, a reach decomposition's per-seed shares fold to
// exactly its total, and both match the offline facade. JSON's shortest
// round-trip float encoding preserves the bits.
func TestExplainEndpoints(t *testing.T) {
	h := newTestServer(t).Handler()
	model := demoModel()

	var er serve.ExplainSeedResponse
	getJSON(t, h, "GET", "/explain?seed=4&top=5", "", &er)
	var gr serve.GainResponse
	getJSON(t, h, "GET", "/gain?candidates=4", "", &gr)
	if er.Gain != gr.Gains[0] {
		t.Errorf("/explain gain = %b, /gain = %b", er.Gain, gr.Gains[0])
	}
	if want := mustExplainSeed(t, model.NewPlanner(), 4, 5); er.Gain != want.Gain || len(er.Paths) != len(want.Paths) || er.TotalPaths != want.TotalPaths {
		t.Errorf("served explanation (%b, %d paths of %d) diverges from offline (%b, %d of %d)",
			er.Gain, len(er.Paths), er.TotalPaths, want.Gain, len(want.Paths), want.TotalPaths)
	}
	if len(er.Paths) > 5 {
		t.Errorf("top=5 returned %d paths", len(er.Paths))
	}
	for i := 1; i < len(er.Paths); i++ {
		if er.Paths[i].Credit > er.Paths[i-1].Credit {
			t.Errorf("paths not sorted by credit at %d", i)
		}
	}

	seeds := []credist.NodeID{1, 2, 3}
	var rr serve.ExplainReachResponse
	getJSON(t, h, "GET", "/explain?set=1,2,3&reach=7", "", &rr)
	sum := 0.0
	for _, s := range rr.PerSeed {
		sum += s.Share
	}
	if sum != rr.Total {
		t.Errorf("per-seed shares fold to %b, total = %b", sum, rr.Total)
	}
	want := mustExplainReach(t, model.NewPlanner(), seeds, 7, 10)
	if rr.Total != want.Total || len(rr.PerSeed) != len(want.PerSeed) {
		t.Errorf("served reach (%b, %d shares) diverges from offline (%b, %d)",
			rr.Total, len(rr.PerSeed), want.Total, len(want.PerSeed))
	}
	for i := range want.PerSeed {
		if rr.PerSeed[i].Seed != want.PerSeed[i].Seed || rr.PerSeed[i].Share != want.PerSeed[i].Share {
			t.Errorf("share %d: served (%d, %b), offline (%d, %b)",
				i, rr.PerSeed[i].Seed, rr.PerSeed[i].Share, want.PerSeed[i].Seed, want.PerSeed[i].Share)
		}
	}

	var st serve.StatsResponse
	getJSON(t, h, "GET", "/stats", "", &st)
	if st.ExplainRequests < 2 {
		t.Errorf("explain_requests = %d, want >= 2", st.ExplainRequests)
	}
}

// TestExplainFromModelFileHTTP serves /explain from a server cold-started
// off a binary model file, as `credist serve -model` does: the explained
// gain is /gain's answer, at most top paths come back sorted by credit,
// the per-seed shares fold in request order to exactly the total, /stats
// counts the two explanations, and malformed shapes are 400s.
func TestExplainFromModelFileHTTP(t *testing.T) {
	dir := t.TempDir()
	gp, lp, mp := filepath.Join(dir, "d.graph"), filepath.Join(dir, "d.log"), filepath.Join(dir, "model.bin")
	if err := credist.SaveDataset(demoDataset(), gp, lp); err != nil {
		t.Fatal(err)
	}
	if err := demoModel().Save(mp); err != nil {
		t.Fatal(err)
	}
	snap, err := serve.Build(serve.Source{GraphPath: gp, LogPath: lp, ModelPath: mp})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	h := serve.New(snap).Handler()

	var gr serve.GainResponse
	getJSON(t, h, "GET", "/gain?candidates=4", "", &gr)
	var er serve.ExplainSeedResponse
	getJSON(t, h, "GET", "/explain?seed=4&top=5", "", &er)
	if er.Seed != 4 || er.Gain != gr.Gains[0] {
		t.Errorf("/explain seed %d gain %b, /gain %b", er.Seed, er.Gain, gr.Gains[0])
	}
	if len(er.Paths) == 0 || len(er.Paths) > 5 || er.TotalPaths < 5 {
		t.Errorf("/explain returned %d paths of %d with top=5", len(er.Paths), er.TotalPaths)
	}
	for i := 1; i < len(er.Paths); i++ {
		if er.Paths[i].Credit > er.Paths[i-1].Credit {
			t.Errorf("paths not sorted by credit at %d", i)
		}
	}

	var rr serve.ExplainReachResponse
	getJSON(t, h, "GET", "/explain?set=1,2,3&reach=7", "", &rr)
	total := 0.0
	for i, ps := range rr.PerSeed {
		if ps.Seed != credist.NodeID(i+1) {
			t.Errorf("share %d names seed %d, want %d", i, ps.Seed, i+1)
		}
		total += ps.Share
	}
	if len(rr.PerSeed) != 3 || total != rr.Total {
		t.Errorf("%d per-seed shares fold to %b, total = %b", len(rr.PerSeed), total, rr.Total)
	}

	var st serve.StatsResponse
	getJSON(t, h, "GET", "/stats", "", &st)
	if st.ExplainRequests != 2 {
		t.Errorf("explain_requests = %d, want 2", st.ExplainRequests)
	}
	for _, target := range []string{"/explain", "/explain?seed=4&set=1&reach=2", "/explain?set=1,2"} {
		if status, body := doRaw(t, h, "GET", target, "", nil); status != http.StatusBadRequest {
			t.Errorf("GET %s: status %d (%s), want 400", target, status, body)
		}
	}
}

// TestObjectiveEndpoints pins the HTTP objective layer to the offline
// facade: every audience/window/blocked/costs combination answers with
// exactly the value the Model's *Obj methods produce, and objective
// selections never touch the default-objective seed-prefix memo.
func TestObjectiveEndpoints(t *testing.T) {
	h := newTestServer(t).Handler()
	model := demoModel()

	aud := []credist.NodeID{4, 5, 6, 7}
	var sr serve.SpreadResponse
	getJSON(t, h, "GET", "/spread?seeds=1,2&audience=4,5,6,7", "", &sr)
	want, err := model.SpreadObj([]credist.NodeID{1, 2}, &credist.Objective{Audience: aud})
	if err != nil {
		t.Fatalf("offline SpreadObj: %v", err)
	}
	if sr.Spread != want {
		t.Errorf("targeted /spread = %b, offline = %b", sr.Spread, want)
	}

	getJSON(t, h, "POST", "/spread", `{"seeds":[1,2],"window":30}`, &sr)
	want, err = model.SpreadObj([]credist.NodeID{1, 2}, &credist.Objective{Windowed: true, Window: 30})
	if err != nil {
		t.Fatalf("offline windowed SpreadObj: %v", err)
	}
	if sr.Spread != want {
		t.Errorf("windowed /spread = %b, offline = %b", sr.Spread, want)
	}

	var gr serve.GainResponse
	getJSON(t, h, "GET", "/gain?seeds=1&candidates=4,5&blocked=2,3", "", &gr)
	wantG, err := model.NewPlanner().GainsObj([]credist.NodeID{1}, []credist.NodeID{4, 5},
		&credist.Objective{Blocked: []credist.NodeID{2, 3}})
	if err != nil {
		t.Fatalf("offline GainsObj: %v", err)
	}
	if !equalFloats(gr.Gains, wantG) {
		t.Errorf("blocked /gain = %v, offline = %v", gr.Gains, wantG)
	}

	// Budgeted selection: unit costs with overrides, budget in cost units.
	var seedsResp serve.SeedsResponse
	getJSON(t, h, "GET", "/seeds?k=4&costs=1:3,2:3&budget=2.5", "", &seedsResp)
	costs := make([]float64, demoDataset().NumUsers())
	for i := range costs {
		costs[i] = 1
	}
	costs[1], costs[2] = 3, 3
	wantRes, err := model.NewPlanner().Select(4, &credist.Objective{Costs: costs, Budget: 2.5})
	if err != nil {
		t.Fatalf("offline Select: %v", err)
	}
	if len(seedsResp.Seeds) != len(wantRes.Seeds) {
		t.Fatalf("budgeted /seeds returned %d seeds, offline %d", len(seedsResp.Seeds), len(wantRes.Seeds))
	}
	for i := range wantRes.Seeds {
		if seedsResp.Seeds[i] != wantRes.Seeds[i] || seedsResp.Gains[i] != wantRes.Gains[i] {
			t.Errorf("budgeted seed %d: served (%d, %b), offline (%d, %b)",
				i, seedsResp.Seeds[i], seedsResp.Gains[i], wantRes.Seeds[i], wantRes.Gains[i])
		}
	}
	if seedsResp.Cached {
		t.Error("budgeted /seeds claimed to come from the default-objective memo")
	}

	// Objective selections bypass the memo in both directions: a prior
	// default selection is not reused, and the objective result is not
	// cached into it.
	var warm serve.SeedsResponse
	getJSON(t, h, "GET", "/seeds?k=3", "", &warm)
	var targeted serve.SeedsResponse
	getJSON(t, h, "GET", "/seeds?k=3&audience=4,5,6,7", "", &targeted)
	if targeted.Cached {
		t.Error("targeted /seeds served from the default memo")
	}
	wantRes, err = model.NewPlanner().Select(3, &credist.Objective{Audience: aud})
	if err != nil {
		t.Fatalf("offline targeted Select: %v", err)
	}
	for i := range wantRes.Seeds {
		if targeted.Seeds[i] != wantRes.Seeds[i] || targeted.Gains[i] != wantRes.Gains[i] {
			t.Errorf("targeted seed %d: served (%d, %b), offline (%d, %b)",
				i, targeted.Seeds[i], targeted.Gains[i], wantRes.Seeds[i], wantRes.Gains[i])
		}
	}
	var again serve.SeedsResponse
	getJSON(t, h, "GET", "/seeds?k=3", "", &again)
	if !again.Cached {
		t.Error("default /seeds memo lost after an objective selection")
	}
	requireSameSelection(t, "default selection after objective query", warm, again)
}

func TestSeedsMemoizedPerSnapshot(t *testing.T) {
	h := newTestServer(t).Handler()
	var first, second serve.SeedsResponse
	getJSON(t, h, "GET", "/seeds?k=3", "", &first)
	getJSON(t, h, "GET", "/seeds?k=3", "", &second)
	if first.Cached {
		t.Error("first /seeds call reported cached")
	}
	if !second.Cached {
		t.Error("second /seeds call not served from cache")
	}
	for i := range first.Seeds {
		if first.Seeds[i] != second.Seeds[i] || first.Gains[i] != second.Gains[i] {
			t.Fatalf("cached result diverges at %d", i)
		}
	}
}

// TestReloadSwapsSnapshot reloads from files and checks the snapshot id
// advances, the seed cache resets, and queries answer from the new model.
func TestReloadSwapsSnapshot(t *testing.T) {
	srv := newTestServer(t)
	h := srv.Handler()
	dir := t.TempDir()
	gp, lp := filepath.Join(dir, "d.graph"), filepath.Join(dir, "d.log")
	if err := credist.SaveDataset(demoDataset(), gp, lp); err != nil {
		t.Fatalf("SaveDataset: %v", err)
	}

	var before serve.SeedsResponse
	getJSON(t, h, "GET", "/seeds?k=3", "", &before)

	var rr serve.ReloadResponse
	body, _ := json.Marshal(serve.Source{GraphPath: gp, LogPath: lp, Lambda: 0.001})
	getJSON(t, h, "POST", "/reload", string(body), &rr)
	if rr.Snapshot != before.Snapshot+1 {
		t.Errorf("snapshot id = %d, want %d", rr.Snapshot, before.Snapshot+1)
	}
	if rr.Entries <= 0 {
		t.Errorf("reloaded snapshot has %d entries", rr.Entries)
	}

	// The new snapshot serves the same universe (same dataset round-tripped
	// through disk), so the CELF selection must be bit-identical — but
	// recomputed, not cached.
	var after serve.SeedsResponse
	getJSON(t, h, "GET", "/seeds?k=3", "", &after)
	if after.Snapshot != rr.Snapshot {
		t.Errorf("/seeds answered from snapshot %d, want %d", after.Snapshot, rr.Snapshot)
	}
	if after.Cached {
		t.Error("seed cache leaked across snapshots")
	}
	for i := range before.Seeds {
		if before.Seeds[i] != after.Seeds[i] || before.Gains[i] != after.Gains[i] {
			t.Fatalf("selection changed across save/load reload at %d: (%d, %b) vs (%d, %b)",
				i, before.Seeds[i], before.Gains[i], after.Seeds[i], after.Gains[i])
		}
	}
}

// TestBuildRefusesTextParamsModel: a text parameter file named as the
// model is refused by both opens, with an error that names the file and
// says to rebuild it with `credist learn -o`.
func TestBuildRefusesTextParamsModel(t *testing.T) {
	demo := demoDataset()
	dir := t.TempDir()
	gp, lp, pp := filepath.Join(dir, "d.graph"), filepath.Join(dir, "d.log"), filepath.Join(dir, "params.txt")
	if err := credist.SaveDataset(demo, gp, lp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pp, []byte("numUsers 3\ninfl 0 0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		_, err := serve.Build(serve.Source{GraphPath: gp, LogPath: lp, ModelPath: pp, Mmap: mmap})
		if err == nil || !strings.Contains(err.Error(), pp) || !strings.Contains(err.Error(), "credist learn -o") {
			t.Errorf("mmap=%t: Build of a text parameter file: err = %v", mmap, err)
		}
	}
}

// TestSnapshotCheckpointRestartCycle walks the full durable-snapshot ops
// story: serve from files, checkpoint to a binary snapshot, cold-start a
// second server from it (bit-identical answers, no rescan of scanned
// actions), ingest a tail, checkpoint again, and cold-start a third server
// from the new snapshot plus the on-disk tail — still bit-identical.
func TestSnapshotCheckpointRestartCycle(t *testing.T) {
	demo := demoDataset()
	n := demo.Log.NumActions()
	headN := n - 10
	headDS := &credist.Dataset{Name: "demo-head", Graph: demo.Graph, Log: demo.Log.Prefix(headN)}
	var tailTuples []credist.Tuple
	for a := headN; a < n; a++ {
		tailTuples = append(tailTuples, demo.Log.Action(credist.ActionID(a))...)
	}

	dir := t.TempDir()
	gp, lp := filepath.Join(dir, "d.graph"), filepath.Join(dir, "d.log")
	if err := credist.SaveDataset(headDS, gp, lp); err != nil {
		t.Fatalf("SaveDataset: %v", err)
	}
	tailPath := filepath.Join(dir, "d.tail.log")
	tf, err := os.Create(tailPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := actionlog.WriteTuples(tf, demo.NumUsers(), tailTuples); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}

	// Server A: learned from files, then checkpointed.
	snA, err := serve.Build(serve.Source{GraphPath: gp, LogPath: lp, Lambda: 0.001})
	if err != nil {
		t.Fatalf("Build A: %v", err)
	}
	hA := serve.New(snA).Handler()
	var seedsA serve.SeedsResponse
	getJSON(t, hA, "GET", "/seeds?k=3", "", &seedsA)
	model1 := filepath.Join(dir, "model1.bin")
	var cp serve.SnapshotResponse
	getJSON(t, hA, "POST", "/snapshot", `{"path":"`+model1+`"}`, &cp)
	if cp.Actions != headN || cp.Bytes <= 0 {
		t.Fatalf("checkpoint = %+v, want %d actions and nonzero bytes", cp, headN)
	}
	var stA serve.StatsResponse
	getJSON(t, hA, "GET", "/stats", "", &stA)
	if stA.LastSnapshot == nil || stA.LastSnapshot.Path != model1 {
		t.Fatalf("stats.last_snapshot = %+v, want path %s", stA.LastSnapshot, model1)
	}

	// A checkpoint may replace a prior snapshot but never an arbitrary
	// existing file (here: the graph the server itself was loaded from).
	if code, body := do(t, hA, "POST", "/snapshot", `{"path":"`+gp+`"}`); code != 400 {
		t.Fatalf("overwriting a non-snapshot file: status %d, body %v", code, body)
	} else if msg, _ := body["error"].(string); !strings.Contains(msg, "refusing to replace") {
		t.Fatalf("overwrite error = %q", msg)
	}
	getJSON(t, hA, "POST", "/snapshot", `{"path":"`+model1+`"}`, &cp) // re-checkpoint over a snapshot is fine

	// Server B: cold-started from the checkpoint — same answers, and the
	// stats record the snapshot provenance.
	snB, err := serve.Build(serve.Source{GraphPath: gp, LogPath: lp, ModelPath: model1})
	if err != nil {
		t.Fatalf("Build B: %v", err)
	}
	hB := serve.New(snB).Handler()
	var seedsB serve.SeedsResponse
	getJSON(t, hB, "GET", "/seeds?k=3", "", &seedsB)
	requireSameSelection(t, "restart from snapshot", seedsA, seedsB)
	// The checkpoint carried server A's computed seed prefix, so the
	// restarted server answered without running CELF at all.
	if n := snB.Selections(); n != 0 {
		t.Fatalf("restarted server ran %d CELF selections for a prefix-covered k, want 0", n)
	}
	if !seedsB.Cached {
		t.Error("restart /seeds not served from the restored prefix")
	}
	var stB serve.StatsResponse
	getJSON(t, hB, "GET", "/stats", "", &stB)
	if stB.ModelFile != model1 || stB.ModelActions != headN || stB.ModelTailActions != 0 {
		t.Fatalf("stats provenance = %s/%d/%d, want %s/%d/0",
			stB.ModelFile, stB.ModelActions, stB.ModelTailActions, model1, headN)
	}

	// A snapshot refuses to load under different options.
	if _, err := serve.Build(serve.Source{GraphPath: gp, LogPath: lp, ModelPath: model1, Lambda: 0.5}); err == nil {
		t.Fatal("snapshot load with mismatched lambda accepted")
	}

	// Ingest the tail into B and checkpoint the grown model.
	reqTuples := make([]serve.IngestTuple, len(tailTuples))
	for i, tp := range tailTuples {
		reqTuples[i] = serve.IngestTuple{User: tp.User, Action: tp.Action, Time: tp.Time}
	}
	body, _ := json.Marshal(map[string]any{"tuples": reqTuples})
	var ir serve.IngestResponse
	getJSON(t, hB, "POST", "/ingest", string(body), &ir)
	if ir.Actions != n {
		t.Fatalf("ingest grew to %d actions, want %d", ir.Actions, n)
	}
	var seedsB2 serve.SeedsResponse
	getJSON(t, hB, "GET", "/seeds?k=3", "", &seedsB2)
	model2 := filepath.Join(dir, "model2.bin")
	getJSON(t, hB, "POST", "/snapshot", `{"path":"`+model2+`"}`, &cp)
	if cp.Actions != n {
		t.Fatalf("post-ingest checkpoint covers %d actions, want %d", cp.Actions, n)
	}

	// The new snapshot is newer than the on-disk log alone...
	if _, err := serve.Build(serve.Source{GraphPath: gp, LogPath: lp, ModelPath: model2}); err == nil {
		t.Fatal("snapshot newer than the log accepted without the tail")
	}
	// ...but log + tail covers it: server C restarts bit-identical to the
	// post-ingest state.
	snC, err := serve.Build(serve.Source{GraphPath: gp, LogPath: lp, TailPath: tailPath, ModelPath: model2})
	if err != nil {
		t.Fatalf("Build C: %v", err)
	}
	hC := serve.New(snC).Handler()
	var seedsC serve.SeedsResponse
	getJSON(t, hC, "GET", "/seeds?k=3", "", &seedsC)
	requireSameSelection(t, "restart from post-ingest snapshot", seedsB2, seedsC)
	if n := snC.Selections(); n != 0 {
		t.Fatalf("post-ingest restart ran %d CELF selections for a prefix-covered k, want 0", n)
	}
	// Growing past the restored prefix resumes it instead of restarting:
	// the prefix seeds stay bit-identical and exactly one run is paid.
	var grownC serve.SeedsResponse
	getJSON(t, hC, "GET", "/seeds?k=5", "", &grownC)
	if n := snC.Selections(); n != 1 {
		t.Fatalf("growth past the restored prefix ran %d selections, want 1", n)
	}
	for i := range seedsC.Seeds {
		if grownC.Seeds[i] != seedsC.Seeds[i] || grownC.Gains[i] != seedsC.Gains[i] {
			t.Fatalf("growth past the restored prefix rewrote seed %d", i)
		}
	}
	// The continuation matches a from-scratch selection on the same model
	// bit for bit (restored-prefix resume is exact, not approximate).
	wantSeeds, wantGains := offlineSeeds(snC.Model(), 5)
	for i := range wantSeeds {
		if grownC.Seeds[i] != wantSeeds[i] || grownC.Gains[i] != wantGains[i] {
			t.Fatalf("resumed growth diverges from offline selection at seed %d: (%d, %b) vs (%d, %b)",
				i, grownC.Seeds[i], grownC.Gains[i], wantSeeds[i], wantGains[i])
		}
	}
	var stC serve.StatsResponse
	getJSON(t, hC, "GET", "/stats", "", &stC)
	if stC.Actions != n || stC.ModelActions != n || stC.ModelTailActions != 0 {
		t.Fatalf("restarted stats = actions %d, model %d+%d; want %d, %d+0",
			stC.Actions, stC.ModelActions, stC.ModelTailActions, n, n)
	}
}

func requireSameSelection(t *testing.T, what string, a, b serve.SeedsResponse) {
	t.Helper()
	if len(a.Seeds) != len(b.Seeds) {
		t.Fatalf("%s: %d vs %d seeds", what, len(b.Seeds), len(a.Seeds))
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] || a.Gains[i] != b.Gains[i] {
			t.Fatalf("%s: selection diverged at %d: (%d, %b) vs (%d, %b)",
				what, i, b.Seeds[i], b.Gains[i], a.Seeds[i], a.Gains[i])
		}
	}
	if a.Spread != b.Spread {
		t.Fatalf("%s: spread %b vs %b", what, b.Spread, a.Spread)
	}
}

// TestWarm pins the startup warm-up path: valid ks prime the cache, and
// the error cases the CLI must fail fast on actually error.
func TestWarm(t *testing.T) {
	srv := newTestServer(t)
	res, err := srv.Warm(3)
	if err != nil || len(res.Seeds) != 3 {
		t.Fatalf("Warm(3) = %v, %v", res, err)
	}
	var sr serve.SeedsResponse
	getJSON(t, srv.Handler(), "GET", "/seeds?k=3", "", &sr)
	if !sr.Cached {
		t.Error("warm-up did not prime the seed cache")
	}
	if _, err := srv.Warm(0); err == nil {
		t.Error("Warm(0) accepted")
	}
	if _, err := srv.Warm(-2); err == nil {
		t.Error("Warm(-2) accepted")
	}
	if _, err := srv.Warm(srv.Current().NumUsers() + 1); err == nil {
		t.Error("Warm beyond the universe accepted")
	}
}

func getJSON(t *testing.T, h http.Handler, method, target, body string, out any) {
	t.Helper()
	status, _ := doRaw(t, h, method, target, body, out)
	if status != http.StatusOK {
		t.Fatalf("%s %s: status %d", method, target, status)
	}
}

func doRaw(t *testing.T, h http.Handler, method, target, body string, out any) (int, string) {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	raw := w.Body.String()
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, target, raw, err)
		}
	}
	return w.Code, raw
}

// offlineGains is the offline planner answer a served gain must match.
func offlineGains(t *testing.T, m *credist.Model, base, candidates []credist.NodeID) []float64 {
	t.Helper()
	g, err := m.NewPlanner().Gains(base, candidates)
	if err != nil {
		t.Fatalf("offline Gains: %v", err)
	}
	return g
}

// offlineSeeds is the offline default-objective selection a served one
// must match.
func offlineSeeds(m *credist.Model, k int) ([]credist.NodeID, []float64) {
	res := m.Selection(k)
	return res.Seeds, res.Gains
}

// mustExplainSeed is p.ExplainSeed, failing t on an error.
func mustExplainSeed(t *testing.T, p *credist.Planner, x credist.NodeID, top int) credist.SeedExplanation {
	t.Helper()
	ex, err := p.ExplainSeed(x, top)
	if err != nil {
		t.Fatalf("offline ExplainSeed(%d): %v", x, err)
	}
	return ex
}

// mustExplainReach is p.ExplainReach, failing t on an error.
func mustExplainReach(t *testing.T, p *credist.Planner, seeds []credist.NodeID, v credist.NodeID, top int) credist.ReachExplanation {
	t.Helper()
	ex, err := p.ExplainReach(seeds, v, top)
	if err != nil {
		t.Fatalf("offline ExplainReach(%v, %d): %v", seeds, v, err)
	}
	return ex
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
