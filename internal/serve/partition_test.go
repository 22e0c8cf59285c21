package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"credist"
	"credist/internal/actionlog"
	"credist/internal/serve"
)

// newPartitionedServer builds a serve.Server over the shared demo dataset
// split n ways into row-range partitions.
func newPartitionedServer(t *testing.T, n int) *serve.Server {
	t.Helper()
	snap, err := serve.Build(serve.Source{Dataset: demoDataset(), Lambda: 0.001, Partitions: n})
	if err != nil {
		t.Fatalf("Build(partitions=%d): %v", n, err)
	}
	if err := snap.PartitionErr(); err != nil {
		t.Fatalf("Build(partitions=%d) degraded: %v", n, err)
	}
	return serve.New(snap)
}

// bodyModuloSnapshot canonicalizes a JSON response body with the snapshot
// id (a per-process counter, never comparable across servers) removed, so
// two servers' answers can be compared byte for byte.
func bodyModuloSnapshot(t *testing.T, h http.Handler, method, target, body string) string {
	t.Helper()
	code, decoded := do(t, h, method, target, body)
	if code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %v", method, target, code, decoded)
	}
	delete(decoded, "snapshot")
	out, err := json.Marshal(decoded)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	return string(out)
}

// parityRequests are the queries whose full HTTP responses must not
// depend on the partition count.
var parityRequests = []struct {
	method, target, body string
}{
	{"GET", "/spread?seeds=1,2,3", ""},
	{"GET", "/spread?seeds=17", ""},
	{"POST", "/spread", `{"sets":[[0,1],[5,6,7],[42]]}`},
	{"GET", "/gain?candidates=4,5,6&seeds=1,2", ""},
	{"GET", "/gain?candidates=0,10,20,30", ""},
	{"GET", "/seeds?k=5", ""},
	{"GET", "/seeds?k=3", ""}, // prefix slice of the k=5 selection
	{"GET", "/topk?method=highdeg&k=4", ""},
	// Campaign objectives ride the same wall: targeted, windowed,
	// blocked, and budgeted answers may not depend on the partition
	// count either.
	{"GET", "/spread?seeds=1,2&audience=4,5,6,7", ""},
	{"GET", "/spread?seeds=1,2&window=25", ""},
	{"GET", "/gain?candidates=4,5&seeds=1&blocked=2,3", ""},
	{"GET", "/seeds?k=3&audience=4,5,6,7", ""},
	{"GET", "/seeds?k=3&costs=1:3,2:3&budget=2.5", ""},
	{"GET", "/explain?seed=5&top=4", ""},
	{"GET", "/explain?set=1,2,3&reach=10&top=4", ""},
}

// sameResponses requires every parity request to answer identically —
// modulo the snapshot id — on handlers a and b.
func sameResponses(t *testing.T, what string, a, b http.Handler) {
	t.Helper()
	for _, req := range parityRequests {
		ra := bodyModuloSnapshot(t, a, req.method, req.target, req.body)
		rb := bodyModuloSnapshot(t, b, req.method, req.target, req.body)
		if ra != rb {
			t.Errorf("%s: %s %s diverged:\n  %s\n  %s", what, req.method, req.target, ra, rb)
		}
	}
}

// TestPartitionCountParityHTTP is the serve-layer face of the partition
// determinism wall: the full HTTP responses of /spread (single and
// batched), /gain, /seeds and /explain must be identical — modulo the
// snapshot id — whether the model is served by one partition or four.
// Float formatting goes through the same encoder on both sides, so equal
// JSON here means bit-identical float64s underneath. Two shapes are
// pinned: an in-memory split of a freshly learned model, and a model file
// checkpointed after an ingest and served from the on-disk log plus its
// tail, whose first start writes the slice files that a restart reopens —
// four mmap'd slices against one heap-loaded slice. There /stats must
// report the four mapped partitions whose rows sum to its top-level
// accounting.
func TestPartitionCountParityHTTP(t *testing.T) {
	sameResponses(t, "in-memory split, 1 vs 4 partitions",
		newPartitionedServer(t, 1).Handler(), newPartitionedServer(t, 4).Handler())

	// The model file: checkpointed after the tail's actions were ingested,
	// so the on-disk head log plus the tail covers it exactly.
	demo := demoDataset()
	n := demo.Log.NumActions()
	headN := n - 10
	headDS := &credist.Dataset{Name: demo.Name, Graph: demo.Graph, Log: demo.Log.Prefix(headN)}
	var tail []credist.Tuple
	for a := headN; a < n; a++ {
		tail = append(tail, demo.Log.Action(credist.ActionID(a))...)
	}
	dir := t.TempDir()
	tailPath := filepath.Join(dir, "demo.tail.log")
	tf, err := os.Create(tailPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := actionlog.WriteTuples(tf, demo.NumUsers(), tail); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	head, err := serve.Build(serve.Source{Dataset: headDS, Lambda: 0.001})
	if err != nil {
		t.Fatalf("Build(head): %v", err)
	}
	grown, err := head.Ingest(tail, false)
	if err != nil {
		t.Fatalf("Ingest(tail): %v", err)
	}
	modelPath := filepath.Join(dir, "model.bin")
	if code, resp := do(t, serve.New(grown).Handler(), "POST", "/snapshot", fmt.Sprintf(`{"path":%q}`, modelPath)); code != http.StatusOK {
		t.Fatalf("/snapshot: status %d: %v", code, resp)
	}

	build := func(parts int, mmap bool) http.Handler {
		t.Helper()
		snap, err := serve.Build(serve.Source{Dataset: headDS, TailPath: tailPath, ModelPath: modelPath, Partitions: parts, Mmap: mmap})
		if err != nil {
			t.Fatalf("Build(partitions=%d, mmap=%t): %v", parts, mmap, err)
		}
		if err := snap.PartitionErr(); err != nil {
			t.Fatalf("Build(partitions=%d, mmap=%t) degraded: %v", parts, mmap, err)
		}
		return serve.New(snap).Handler()
	}
	build(4, true) // first start: splits the model file into slice files
	slices := credist.SlicePaths(modelPath, 4)
	written := make([]os.FileInfo, len(slices))
	for i, p := range slices {
		if written[i], err = os.Stat(p); err != nil {
			t.Fatalf("first partitioned start wrote no slice: %v", err)
		}
	}
	four := build(4, true) // restart: reopens the slices
	for i, p := range slices {
		if fi, err := os.Stat(p); err != nil || !fi.ModTime().Equal(written[i].ModTime()) || fi.Size() != written[i].Size() {
			t.Errorf("restart rewrote slice %s", p)
		}
	}
	sameResponses(t, "model file, 4 mmap'd vs 1 heap partition", build(1, false), four)

	var st serve.StatsResponse
	getJSON(t, four, "GET", "/stats", "", &st)
	if st.NumPartitions != 4 || len(st.Partitions) != 4 {
		t.Fatalf("/stats: num_partitions %d with %d rows, want 4", st.NumPartitions, len(st.Partitions))
	}
	if st.RowStore != "mmap" || st.MappedBytes <= 0 {
		t.Errorf("/stats: row_store %q with %d mapped bytes, want mmap and > 0", st.RowStore, st.MappedBytes)
	}
	var entries, heap, mapped int64
	for _, row := range st.Partitions {
		entries += row.Entries
		heap += row.HeapBytes
		mapped += row.MappedBytes
	}
	if entries != st.Entries || heap != st.HeapBytes || mapped != st.MappedBytes {
		t.Errorf("/stats: rows sum to entries %d, heap %d, mapped %d; top level has %d, %d, %d",
			entries, heap, mapped, st.Entries, st.HeapBytes, st.MappedBytes)
	}
	if lo, hi := st.Partitions[0].RowLo, st.Partitions[3].RowHi; lo != 0 || hi != st.Users {
		t.Errorf("/stats: partitions cover [%d,%d), want [0,%d)", lo, hi, st.Users)
	}
}

// TestSingleEngineVsPartitionedHTTP pins the two serving shapes against
// each other: /gain, /seeds and /explain must answer identically — modulo
// the snapshot id — from one engine and from four partitions, objectives
// included. /spread is left out: the single engine answers from the exact
// evaluator, partitions from the telescoped lambda-truncated spread.
func TestSingleEngineVsPartitionedHTTP(t *testing.T) {
	single := newTestServer(t).Handler()
	four := newPartitionedServer(t, 4).Handler()
	compared := 0
	for _, req := range parityRequests {
		if strings.HasPrefix(req.target, "/spread") || strings.HasPrefix(req.target, "/topk") {
			continue
		}
		compared++
		a := bodyModuloSnapshot(t, single, req.method, req.target, req.body)
		b := bodyModuloSnapshot(t, four, req.method, req.target, req.body)
		if a != b {
			t.Errorf("%s %s diverged between one engine and 4 partitions:\n  1: %s\n  4: %s",
				req.method, req.target, a, b)
		}
	}
	if compared < 9 {
		t.Fatalf("compared only %d requests", compared)
	}
}

// TestStatsPartitionRows pins the /stats partition accounting: one row per
// partition with its row range, and top-level entries/heap/mapped equal to
// the row sums.
func TestStatsPartitionRows(t *testing.T) {
	const n = 4
	h := newPartitionedServer(t, n).Handler()
	code, st := do(t, h, "GET", "/stats", "")
	if code != http.StatusOK {
		t.Fatalf("/stats: status %d: %v", code, st)
	}
	if got := int(st["num_partitions"].(float64)); got != n {
		t.Fatalf("num_partitions = %d, want %d", got, n)
	}
	rows, ok := st["partitions"].([]any)
	if !ok || len(rows) != n {
		t.Fatalf("partitions = %v, want %d rows", st["partitions"], n)
	}
	var entries, heap, mapped float64
	prevHi := 0.0
	for i, raw := range rows {
		row := raw.(map[string]any)
		if lo := row["row_lo"].(float64); lo != prevHi {
			t.Errorf("partition %d: row_lo = %v, want %v (contiguous tiling)", i, lo, prevHi)
		}
		prevHi = row["row_hi"].(float64)
		entries += row["entries"].(float64)
		heap += row["heap_bytes"].(float64)
		mapped += row["mapped_bytes"].(float64)
		if row["row_store"].(string) == "" {
			t.Errorf("partition %d: empty row_store", i)
		}
	}
	if users := st["users"].(float64); prevHi != users {
		t.Errorf("last row_hi = %v, want the universe size %v", prevHi, users)
	}
	if st["entries"].(float64) != entries {
		t.Errorf("top-level entries %v != row sum %v", st["entries"], entries)
	}
	if st["heap_bytes"].(float64) != heap {
		t.Errorf("top-level heap_bytes %v != row sum %v", st["heap_bytes"], heap)
	}
	if st["mapped_bytes"].(float64) != mapped {
		t.Errorf("top-level mapped_bytes %v != row sum %v", st["mapped_bytes"], mapped)
	}
}

// writeDemoSlices checkpoints the demo model split n ways into dir and
// returns the slice paths.
func writeDemoSlices(t *testing.T, dir string, n int) []string {
	t.Helper()
	model := credist.Learn(demoDataset(), credist.Options{Lambda: 0.001})
	base := model.NewPlanner()
	base.Compact()
	pp, err := base.Partition(n)
	if err != nil {
		t.Fatalf("Partition(%d): %v", n, err)
	}
	paths := credist.SlicePaths(filepath.Join(dir, "model.bin"), n)
	if err := pp.SaveSlices(model, nil, paths); err != nil {
		t.Fatalf("SaveSlices: %v", err)
	}
	return paths
}

// TestDegradedPartitionServing injects a corrupt slice and pins the whole
// degraded fault path: Build records the failure instead of returning an
// error, /healthz answers 503, every model query answers 502 naming the
// failed partition, /ingest refuses with 502, and /reload refuses to
// install another degraded snapshot.
func TestDegradedPartitionServing(t *testing.T) {
	dir := t.TempDir()
	paths := writeDemoSlices(t, dir, 3)

	// Flip a byte mid-file: the slice still opens but fails its CRC.
	raw, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(paths[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	snap, err := serve.Build(serve.Source{Dataset: demoDataset(), SlicePaths: paths})
	if err != nil {
		t.Fatalf("Build returned a hard error, want a degraded snapshot: %v", err)
	}
	perr := snap.PartitionErr()
	if perr == nil {
		t.Fatal("corrupt slice produced a healthy snapshot")
	}
	if !strings.Contains(perr.Error(), "partition 1") || !strings.Contains(perr.Error(), paths[1]) {
		t.Fatalf("partition error does not name the failed partition and path: %v", perr)
	}
	h := serve.New(snap).Handler()

	if code, body := do(t, h, "GET", "/healthz", ""); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz: status %d, want 503: %v", code, body)
	}
	for _, target := range []string{
		"/spread?seeds=1,2", "/gain?candidates=3,4", "/seeds?k=3", "/topk?k=3",
	} {
		code, body := do(t, h, "GET", target, "")
		if code != http.StatusBadGateway {
			t.Errorf("%s: status %d, want 502: %v", target, code, body)
			continue
		}
		msg, _ := body["error"].(string)
		if !strings.Contains(msg, "partition 1") {
			t.Errorf("%s: error %q does not name the failed partition", target, msg)
		}
	}
	if code, body := do(t, h, "POST", "/ingest",
		`{"tuples":[{"user":0,"action":120,"time":1}]}`); code != http.StatusBadGateway {
		t.Errorf("/ingest: status %d, want 502: %v", code, body)
	}
	if code, body := do(t, h, "POST", "/snapshot",
		fmt.Sprintf(`{"path":%q}`, filepath.Join(dir, "out.bin"))); code != http.StatusBadGateway {
		t.Errorf("/snapshot: status %d, want 502: %v", code, body)
	}
	// /stats still answers (operators need it to diagnose) and carries the
	// recorded failure.
	code, st := do(t, h, "GET", "/stats", "")
	if code != http.StatusOK {
		t.Fatalf("/stats: status %d: %v", code, st)
	}
	if msg, _ := st["partition_error"].(string); !strings.Contains(msg, "partition 1") {
		t.Errorf("/stats partition_error = %q, want the recorded failure", msg)
	}
	// A reload pointing at the same broken slices must not install.
	graphPath, logPath := saveDemoDataset(t, dir)
	body, _ := json.Marshal(serve.Source{GraphPath: graphPath, LogPath: logPath, SlicePaths: paths})
	code, resp := do(t, h, "POST", "/reload", string(body))
	if code != http.StatusBadRequest {
		t.Errorf("/reload of degraded source: status %d, want 400: %v", code, resp)
	}
	if msg, _ := resp["error"].(string); !strings.Contains(msg, "degraded") {
		t.Errorf("/reload error %q does not say why it refused", msg)
	}
}

// saveDemoDataset writes the demo graph and log to dir so /reload bodies
// (which name server-side files, not in-process datasets) can rebuild it.
func saveDemoDataset(t *testing.T, dir string) (graphPath, logPath string) {
	t.Helper()
	graphPath = filepath.Join(dir, "demo.graph")
	logPath = filepath.Join(dir, "demo.log")
	if err := credist.SaveDataset(demoDataset(), graphPath, logPath); err != nil {
		t.Fatalf("SaveDataset: %v", err)
	}
	return graphPath, logPath
}

// TestReloadRefusesDegradedOverHealthy starts healthy, reloads into broken
// slices, and verifies the working snapshot keeps serving.
func TestReloadRefusesDegradedOverHealthy(t *testing.T) {
	dir := t.TempDir()
	paths := writeDemoSlices(t, dir, 2)
	if err := os.Truncate(paths[0], 16); err != nil {
		t.Fatal(err)
	}
	h := newPartitionedServer(t, 2).Handler()
	graphPath, logPath := saveDemoDataset(t, dir)
	body, _ := json.Marshal(serve.Source{GraphPath: graphPath, LogPath: logPath, SlicePaths: paths})
	code, resp := do(t, h, "POST", "/reload", string(body))
	if code != http.StatusBadRequest {
		t.Fatalf("/reload: status %d, want 400: %v", code, resp)
	}
	if msg, _ := resp["error"].(string); !strings.Contains(msg, "degraded") {
		t.Errorf("/reload error %q does not say why it refused", msg)
	}
	if code, _ := do(t, h, "GET", "/spread?seeds=1,2", ""); code != http.StatusOK {
		t.Errorf("healthy snapshot stopped serving after the refused reload: status %d", code)
	}
}

// TestPartitionedCheckpointRestart round-trips POST /snapshot in
// partitioned mode: the checkpoint writes one slice per partition under
// the canonical names, and a server restarted from those slices answers
// /seeds identically.
func TestPartitionedCheckpointRestart(t *testing.T) {
	const n = 2
	dir := t.TempDir()
	srv := newPartitionedServer(t, n)
	h := srv.Handler()
	// Ask twice so the captured body has cached:true, like the restarted
	// server's prefix-served answer.
	bodyModuloSnapshot(t, h, "GET", "/seeds?k=4", "")
	want := bodyModuloSnapshot(t, h, "GET", "/seeds?k=4", "")

	target := filepath.Join(dir, "ckpt.bin")
	code, resp := do(t, h, "POST", "/snapshot", fmt.Sprintf(`{"path":%q}`, target))
	if code != http.StatusOK {
		t.Fatalf("/snapshot: status %d: %v", code, resp)
	}
	paths := credist.SlicePaths(target, n)
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("checkpoint slice missing: %v", err)
		}
	}
	snap, err := serve.Build(serve.Source{Dataset: demoDataset(), SlicePaths: paths})
	if err != nil {
		t.Fatalf("Build from checkpoint slices: %v", err)
	}
	if err := snap.PartitionErr(); err != nil {
		t.Fatalf("checkpoint slices loaded degraded: %v", err)
	}
	restarted := serve.New(snap).Handler()
	// The checkpoint carries the computed seed prefix, so the restarted
	// server must answer k=4 from it — cached, no selection work.
	code, res := do(t, restarted, "GET", "/seeds?k=4", "")
	if code != http.StatusOK {
		t.Fatalf("restarted /seeds: status %d: %v", code, res)
	}
	if cached, _ := res["cached"].(bool); !cached {
		t.Error("restarted /seeds?k=4 was not served from the checkpointed prefix")
	}
	got := bodyModuloSnapshot(t, restarted, "GET", "/seeds?k=4", "")
	if got != want {
		t.Errorf("restarted /seeds diverged:\n  before: %s\n  after:  %s", want, got)
	}
}

// TestConcurrentQueriesDuringPartitionedIngest hammers the partitioned
// read path while ingests swap in successors; -race makes this a proof
// that partitioned queries never observe a partition mid-extension.
func TestConcurrentQueriesDuringPartitionedIngest(t *testing.T) {
	srv := newPartitionedServer(t, 3)
	h := srv.Handler()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, target := range []string{"/spread?seeds=1,2,3", "/gain?candidates=4,5&seeds=1"} {
					if code, body := do(t, h, "GET", target, ""); code != http.StatusOK {
						t.Errorf("%s during ingest: status %d: %v", target, code, body)
						return
					}
				}
			}
		}()
	}
	actions := demoDataset().Log.NumActions()
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"tuples":[{"user":%d,"action":%d,"time":1},{"user":%d,"action":%d,"time":2}]}`,
			i, actions+i, i+100, actions+i)
		if code, resp := do(t, h, "POST", "/ingest", body); code != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %v", i, code, resp)
		}
	}
	close(stop)
	wg.Wait()
	sn := srv.Current()
	if got := sn.DeltaActions(); got != 5 {
		t.Errorf("after 5 partitioned ingests: %d delta actions, want 5", got)
	}
	if !sn.Partitioned() || sn.NumPartitions() != 3 {
		t.Errorf("ingest successor lost the partitioned shape: partitions=%d", sn.NumPartitions())
	}
}
