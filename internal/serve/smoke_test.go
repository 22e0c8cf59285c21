package serve_test

import (
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"credist"
	"credist/internal/serve"
)

// smokeModel learns a model over the head files the way `credist learn
// -seed-k 5 -o` does — with a 5-seed CELF prefix riding in the snapshot —
// and saves it to dir, returning its path.
func smokeModel(t *testing.T, dir, graphPath, logPath string) string {
	t.Helper()
	ds, err := credist.LoadDataset("custom", graphPath, logPath)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	model := credist.Learn(ds, credist.Options{Lambda: 0.001})
	model.RecordSeedPrefix(model.Selection(5))
	path := filepath.Join(dir, "model.bin")
	if err := model.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return path
}

// buildHandler builds a snapshot from src and serves it.
func buildHandler(t *testing.T, src serve.Source) http.Handler {
	t.Helper()
	snap, err := serve.Build(src)
	if err != nil {
		t.Fatalf("Build(%+v): %v", src, err)
	}
	return serve.New(snap).Handler()
}

// TestServeLifecycleHTTP walks the serving life cycle over files, as an
// operator runs it: a log's head is learned with a 5-seed prefix and
// saved; the server cold-starts from that file; the held-out tail is
// ingested; the grown model is checkpointed; and the server restarts from
// the checkpoint over the head log plus the tail, heap-read and mapped.
// Along the way the restored prefix answers /seeds?k=3 with zero
// selections, duplicate seeds are a 400, /stats reports the ingest's
// delta and the model file's provenance and records the checkpoint, and
// both restarts answer the post-ingest /spread bit for bit.
func TestServeLifecycleHTTP(t *testing.T) {
	const held = 6 // the 5% tail `datagen -stream 0.05` holds out
	dir := t.TempDir()
	head, gp, lp, tailPath := writeHeadAndTail(t, dir, held)
	headN := head.Log.NumActions()
	n := headN + held
	modelPath := smokeModel(t, dir, gp, lp)

	h := buildHandler(t, serve.Source{GraphPath: gp, LogPath: lp, ModelPath: modelPath})
	var seeds serve.SeedsResponse
	getJSON(t, h, "GET", "/seeds?k=3", "", &seeds)
	if !seeds.Cached || len(seeds.Seeds) != 3 {
		t.Errorf("/seeds?k=3 from the restored prefix: cached %t with %d seeds, want cached with 3", seeds.Cached, len(seeds.Seeds))
	}
	var st serve.StatsResponse
	getJSON(t, h, "GET", "/stats", "", &st)
	if st.SeedPrefixK != 5 || st.Selections != 0 {
		t.Errorf("/stats: seed_prefix_k %d, selections %d; want 5 and 0", st.SeedPrefixK, st.Selections)
	}
	if code, body := do(t, h, "GET", "/spread?seeds=3,3,3", ""); code != http.StatusBadRequest {
		t.Errorf("/spread with duplicate seeds: status %d, want 400: %v", code, body)
	}

	// Streaming round trip: the held-out tail, from a server-side file.
	var ir serve.IngestResponse
	getJSON(t, h, "POST", "/ingest", fmt.Sprintf(`{"log":%q}`, tailPath), &ir)
	getJSON(t, h, "GET", "/stats", "", &st)
	if st.Ingests != 1 || st.DeltaActions != held || st.DeltaEntries <= 0 || st.Actions != n ||
		st.Tuples != demoDataset().Stats().NumTuples || st.ModelFile != modelPath ||
		st.ModelActions != headN || st.ModelTailActions != 0 {
		t.Errorf("/stats after ingesting the tail = %+v; want 1 ingest, %d delta actions with entries, "+
			"%d actions, model %s covering %d with no load tail", st, held, n, modelPath, headN)
	}
	if ir.DeltaActions != st.DeltaActions || ir.DeltaEntries != st.DeltaEntries || ir.BaseEntries != st.BaseEntries {
		t.Errorf("/ingest delta %d/%d over base %d, /stats %d/%d over %d",
			ir.DeltaActions, ir.DeltaEntries, ir.BaseEntries, st.DeltaActions, st.DeltaEntries, st.BaseEntries)
	}
	var ingested serve.SpreadResponse
	getJSON(t, h, "GET", "/spread?seeds=1,2,3", "", &ingested)

	// Checkpoint the ingested model; /stats records it.
	model2 := filepath.Join(dir, "model2.bin")
	getJSON(t, h, "POST", "/snapshot", fmt.Sprintf(`{"path":%q}`, model2), &struct{}{})
	getJSON(t, h, "GET", "/stats", "", &st)
	if cp := st.LastSnapshot; cp == nil || cp.Path != model2 || cp.Actions != n || cp.Bytes <= 0 {
		t.Errorf("/stats last_snapshot = %+v, want %s over %d actions with bytes", cp, model2, n)
	}
	getJSON(t, h, "POST", "/reload", fmt.Sprintf(`{"graph":%q,"log":%q,"lambda":0.001}`, gp, lp), &struct{}{})
	getJSON(t, h, "GET", "/stats", "", &st)
	if st.Ingests != 0 || st.Actions != headN {
		t.Errorf("/stats after /reload: %d ingests over %d actions, want 0 over %d", st.Ingests, st.Actions, headN)
	}

	// Restart from the checkpoint: the head log plus the tail covers it,
	// nothing is scanned, and the spread is the pre-restart one.
	restart := serve.Source{GraphPath: gp, LogPath: lp, TailPath: tailPath, ModelPath: model2}
	hr := buildHandler(t, restart)
	var restarted serve.SpreadResponse
	getJSON(t, hr, "GET", "/spread?seeds=1,2,3", "", &restarted)
	if restarted.Spread != ingested.Spread {
		t.Errorf("restarted /spread = %b, before the restart %b", restarted.Spread, ingested.Spread)
	}
	getJSON(t, hr, "GET", "/stats", "", &st)
	if st.Actions != n || st.ModelActions != n || st.ModelTailActions != 0 {
		t.Errorf("restarted /stats: %d actions, model %d+%d; want %d, %d+0", st.Actions, st.ModelActions, st.ModelTailActions, n, n)
	}

	// Once more, mapped: the base is served off the file, answers stay
	// bit-identical, and the restored state costs zero selections.
	restart.Mmap = true
	hm := buildHandler(t, restart)
	var mapped serve.SpreadResponse
	getJSON(t, hm, "GET", "/spread?seeds=1,2,3", "", &mapped)
	if mapped.Spread != ingested.Spread {
		t.Errorf("mapped restart /spread = %b, before the restart %b", mapped.Spread, ingested.Spread)
	}
	getJSON(t, hm, "GET", "/stats", "", &st)
	// Hosts that cannot alias the mapped file decode it into heap shards.
	wantHeap := st.ResidentBytes
	if serve.MapsInPlace() {
		wantHeap = 0
	}
	if st.RowStore != serve.WantRowStore() || st.ResidentBytes <= 0 || st.HeapBytes != wantHeap || st.Selections != 0 ||
		st.HeapBytes+st.MappedBytes != st.ResidentBytes || !strings.Contains(st.Source, "(mmap)") {
		t.Errorf("mapped restart /stats: row_store %q, heap %d + mapped %d of %d, %d selections, source %q",
			st.RowStore, st.HeapBytes, st.MappedBytes, st.ResidentBytes, st.Selections, st.Source)
	}
}

// TestObjectiveServeHTTP serves one model file twice. Default-objective
// /spread and /seeds answers must be byte-identical between the two
// servers, modulo the snapshot id. An audience can only shrink the
// spread. A budgeted /seeds is answered fresh and leaves the default
// prefix memo untouched. Objective parameters with eps are a 400.
func TestObjectiveServeHTTP(t *testing.T) {
	dir := t.TempDir()
	_, gp, lp, _ := writeHeadAndTail(t, dir, 6)
	src := serve.Source{GraphPath: gp, LogPath: lp, ModelPath: smokeModel(t, dir, gp, lp)}
	first, h := buildHandler(t, src), buildHandler(t, src)
	for _, target := range []string{"/spread?seeds=1,2,3", "/seeds?k=3"} {
		if a, b := bodyModuloSnapshot(t, first, "GET", target, ""), bodyModuloSnapshot(t, h, "GET", target, ""); a != b {
			t.Errorf("%s differs between two servers of one model file:\n  %s\n  %s", target, a, b)
		}
	}

	var plain, targeted serve.SpreadResponse
	getJSON(t, h, "GET", "/spread?seeds=1,2,3", "", &plain)
	getJSON(t, h, "GET", "/spread?seeds=1,2,3&audience=4,5,6,7", "", &targeted)
	if targeted.Spread < 0 || targeted.Spread > plain.Spread {
		t.Errorf("audience spread %g outside [0, %g]", targeted.Spread, plain.Spread)
	}
	var budgeted serve.SeedsResponse
	getJSON(t, h, "GET", "/seeds?k=5&costs=1:3,2:3&budget=2.5", "", &budgeted)
	if budgeted.Cached || len(budgeted.Seeds) < 1 || len(budgeted.Seeds) > 5 {
		t.Errorf("budgeted /seeds: cached %t with %d seeds, want fresh with 1 to 5", budgeted.Cached, len(budgeted.Seeds))
	}
	var st serve.StatsResponse
	getJSON(t, h, "GET", "/stats", "", &st)
	if st.SeedPrefixK != 5 || st.Selections != 0 {
		t.Errorf("objective /seeds touched the default memo: seed_prefix_k %d, selections %d", st.SeedPrefixK, st.Selections)
	}
	if code, body := do(t, h, "GET", "/spread?seeds=1,2,3&audience=4,5&eps=0.1", ""); code != http.StatusBadRequest {
		t.Errorf("/spread with audience and eps: status %d, want 400: %v", code, body)
	}
}
