package serve_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"credist"
	"credist/internal/actionlog"
	"credist/internal/serve"
)

// writeHeadAndTail splits the demo dataset into a head of all but its last
// held actions, written to dir as graph and log files, and a tail file of
// the held-out actions in the format `datagen -stream` writes. It returns
// the head dataset and the three paths.
func writeHeadAndTail(t *testing.T, dir string, held int) (head *credist.Dataset, graphPath, logPath, tailPath string) {
	t.Helper()
	demo := demoDataset()
	n := demo.Log.NumActions()
	head = &credist.Dataset{Name: demo.Name, Graph: demo.Graph, Log: demo.Log.Prefix(n - held)}
	var tail []credist.Tuple
	for a := n - held; a < n; a++ {
		tail = append(tail, demo.Log.Action(credist.ActionID(a))...)
	}
	graphPath, logPath = filepath.Join(dir, "demo.graph"), filepath.Join(dir, "demo.log")
	if err := credist.SaveDataset(head, graphPath, logPath); err != nil {
		t.Fatalf("SaveDataset: %v", err)
	}
	tailPath = filepath.Join(dir, "demo.tail.log")
	f, err := os.Create(tailPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := actionlog.WriteTuples(f, demo.NumUsers(), tail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return head, graphPath, logPath, tailPath
}

// TestDeltaFiguresAgreeAcrossShapesHTTP pins the server's delta counts on
// both serving shapes. A model file is checkpointed over all but the last
// 10 actions, restarted with those 10 as a load tail, and sent one
// 1-action /ingest. The load tail is part of the base, not the delta, so
// one engine and one or four partitions, heap-read or mapped, answer
// /ingest and /stats with the same figures: one delta action, and the
// load tail reported as model_tail_actions. A compacting ingest zeroes the
// delta on every shape.
func TestDeltaFiguresAgreeAcrossShapesHTTP(t *testing.T) {
	const held = 10
	dir := t.TempDir()
	head, _, _, tailPath := writeHeadAndTail(t, dir, held)
	headN := head.Log.NumActions()
	modelPath := filepath.Join(dir, "model.bin")
	if err := credist.Learn(head, credist.Options{Lambda: 0.001}).Save(modelPath); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// A first partitioned start splits the head model into slice files,
	// which every restart below reopens and extends by the load tail.
	for _, parts := range []int{1, 4} {
		if _, err := serve.Build(serve.Source{Dataset: head, ModelPath: modelPath, Partitions: parts}); err != nil {
			t.Fatalf("first start, partitions=%d: %v", parts, err)
		}
	}
	batch := demoIngestBatch(t, credist.ActionID(headN+held))

	for _, compact := range []bool{false, true} {
		body, _ := json.Marshal(map[string]any{"tuples": batch, "compact": compact})
		want := ""
		for _, parts := range []int{0, 1, 4} {
			for _, mmap := range []bool{false, true} {
				shape := fmt.Sprintf("partitions=%d mmap=%t compact=%t", parts, mmap, compact)
				snap, err := serve.Build(serve.Source{Dataset: head, TailPath: tailPath, ModelPath: modelPath, Partitions: parts, Mmap: mmap})
				if err != nil {
					t.Fatalf("%s: Build: %v", shape, err)
				}
				h := serve.New(snap).Handler()
				var ir serve.IngestResponse
				getJSON(t, h, "POST", "/ingest", string(body), &ir)
				var st serve.StatsResponse
				getJSON(t, h, "GET", "/stats", "", &st)

				wantDelta := 1
				if compact {
					wantDelta = 0
				}
				if ir.DeltaActions != wantDelta || st.DeltaActions != wantDelta {
					t.Errorf("%s: delta_actions /ingest %d, /stats %d, want %d", shape, ir.DeltaActions, st.DeltaActions, wantDelta)
				}
				if compact && (ir.DeltaEntries != 0 || ir.BaseEntries != ir.Entries) {
					t.Errorf("%s: compacting ingest left delta_entries %d, base_entries %d of %d", shape, ir.DeltaEntries, ir.BaseEntries, ir.Entries)
				}
				if ir.Entries != ir.BaseEntries+ir.DeltaEntries || st.Entries != st.BaseEntries+st.DeltaEntries {
					t.Errorf("%s: entries are not base + delta: /ingest %+v, /stats %d = %d + %d", shape, ir, st.Entries, st.BaseEntries, st.DeltaEntries)
				}
				if st.ModelActions != headN || st.ModelTailActions != held || st.Actions != headN+held+1 || st.Ingests != 1 {
					t.Errorf("%s: /stats model %d+%d over %d actions after %d ingests, want %d+%d over %d after 1",
						shape, st.ModelActions, st.ModelTailActions, st.Actions, st.Ingests, headN, held, headN+held+1)
				}

				got := fmt.Sprintf("/ingest actions=%d users=%d entries=%d base=%d delta=%d/%d; "+
					"/stats actions=%d tuples=%d users=%d entries=%d base=%d delta=%d/%d ingests=%d model=%d+%d",
					ir.Actions, ir.Users, ir.Entries, ir.BaseEntries, ir.DeltaEntries, ir.DeltaActions,
					st.Actions, st.Tuples, st.Users, st.Entries, st.BaseEntries, st.DeltaEntries, st.DeltaActions,
					st.Ingests, st.ModelActions, st.ModelTailActions)
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("%s diverged from one heap engine:\n  got  %s\n  want %s", shape, got, want)
				}
			}
		}
	}
}
