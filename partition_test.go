package credist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"credist/internal/actionlog"
	"credist/internal/partition"
)

// TestPartitionedPlannerRefusedUnderOtherCreditRule: extending and
// checkpointing a partitioned planner go through the same planner-vs-model
// check as a single engine, so a model learned with the other credit rule
// — same lambda, universe and log — can neither extend nor save it, and a
// refused checkpoint writes nothing. The planner's own model does both,
// also after a load from slice paths given out of order.
func TestPartitionedPlannerRefusedUnderOtherCreditRule(t *testing.T) {
	ds := Generate(tinyConfig(31))
	timeAware := Learn(ds, Options{Lambda: 0.001})
	simple := Learn(ds, Options{Lambda: 0.001, SimpleCredit: true})
	for _, pair := range []struct {
		name         string
		owner, other *Model
	}{
		{"time-aware planner, simple model", timeAware, simple},
		{"simple planner, time-aware model", simple, timeAware},
	} {
		pp, err := pair.owner.NewPlanner().Partition(4)
		if err != nil {
			t.Fatalf("%s: Partition(4): %v", pair.name, err)
		}
		if _, err := pp.Extend(pair.other); err == nil || !strings.Contains(err.Error(), "credit parameters") {
			t.Errorf("%s: Extend = %v, want a credit-parameter refusal", pair.name, err)
		}
		paths := SlicePaths(filepath.Join(t.TempDir(), "model.bin"), pp.NumPartitions())
		if err := pp.SaveSlices(pair.other, nil, paths); err == nil || !strings.Contains(err.Error(), "credit parameters") {
			t.Errorf("%s: SaveSlices = %v, want a credit-parameter refusal", pair.name, err)
		}
		for _, p := range paths {
			if _, err := os.Stat(p); err == nil {
				t.Errorf("%s: refused SaveSlices wrote %s", pair.name, p)
			}
		}
		if _, err := pp.Extend(pair.owner); err != nil {
			t.Errorf("%s: Extend under the planner's own model: %v", pair.name, err)
		}
		if err := pp.SaveSlices(pair.owner, nil, paths); err != nil {
			t.Errorf("%s: SaveSlices under the planner's own model: %v", pair.name, err)
		}

		// Slices named out of order load sorted by row range, and the
		// loaded model still owns its planner.
		reversed := []string{paths[3], paths[2], paths[1], paths[0]}
		lm, lp, err := LoadPartitions(ds, reversed, false, Options{})
		if err != nil {
			t.Fatalf("%s: LoadPartitions(reversed): %v", pair.name, err)
		}
		if _, err := lp.Extend(lm); err != nil {
			t.Errorf("%s: Extend of reversed slices under their own model: %v", pair.name, err)
		}
		if err := lp.SaveSlices(lm, nil, SlicePaths(filepath.Join(t.TempDir(), "again.bin"), 4)); err != nil {
			t.Errorf("%s: SaveSlices of reversed slices under their own model: %v", pair.name, err)
		}
	}
}

// TestPartitionedCheckpointIsOneModelFile: a partitioned planner
// checkpoints as one whole-model file, byte-identical to the one-engine
// checkpoint of the same model — prefix and RR sketch included — at
// partitions {1, 2, 4, 7}, over a heap-read and a mapped open, fresh and
// again after an ingest that registers new users (the trailing
// partition's range widens). A partitioned planner splits again like the
// planner it came from.
func TestPartitionedCheckpointIsOneModelFile(t *testing.T) {
	full := Generate(tinyConfig(32))
	// The head log leaves the graph's last users unseen, so the ingested
	// action below grows the log universe.
	nUsers := full.Graph.NumNodes()
	headUsers, headActions := nUsers-4, full.Log.NumActions()-20
	var kept []Tuple
	for _, tp := range full.Log.Prefix(headActions).Tuples() {
		if int(tp.User) < headUsers {
			kept = append(kept, tp)
		}
	}
	headLog, err := actionlog.FromTuples(headUsers, kept)
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{Name: full.Name, Graph: full.Graph, Log: headLog}
	// Time-aware learning needs the whole graph's universe in the log;
	// the simple rule has no parameters to cover it.
	m := Learn(ds, Options{Lambda: 0.001, SimpleCredit: true})
	m.RecordSeedPrefix(m.Selection(3))
	if err := m.BuildApproxSketch(512); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next := ActionID(headLog.NumActions())
	batch := []Tuple{{User: 0, Action: next, Time: 1}, {User: NodeID(nUsers - 2), Action: next, Time: 2}, {User: NodeID(nUsers - 1), Action: next, Time: 3}}

	for _, mmap := range []bool{false, true} {
		loaded, err := loadSnapshotModel(ds, path, mmap, Options{})
		if err != nil {
			t.Fatalf("mmap=%t: %v", mmap, err)
		}
		grown, err := loaded.Ingest(batch)
		if err != nil {
			t.Fatal(err)
		}
		if grown.Dataset().NumUsers() != nUsers {
			t.Fatalf("ingest grew the universe to %d users, want %d", grown.Dataset().NumUsers(), nUsers)
		}
		one, err := grown.ExtendPlanner(loaded.NewPlanner())
		if err != nil {
			t.Fatal(err)
		}
		var wantGrown bytes.Buffer
		if err := grown.WriteSnapshot(&wantGrown, one, nil); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4, 7} {
			name := fmt.Sprintf("mmap=%t/parts=%d", mmap, n)
			pp, err := loaded.NewPlanner().Partition(n)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ckpt := filepath.Join(dir, fmt.Sprintf("ckpt-%t-%d.bin", mmap, n))
			if err := loaded.SaveOn(ckpt, pp, loaded.SeedPrefix()); err != nil {
				t.Fatalf("%s: SaveOn: %v", name, err)
			}
			if got, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: partitioned checkpoint differs from the one-engine file (%d vs %d bytes, %v)", name, len(got), len(want), err)
			}
			gp, err := grown.ExtendPlanner(pp)
			if err != nil {
				t.Fatalf("%s: ExtendPlanner: %v", name, err)
			}
			if r := gp.Ranges(); r[len(r)-1].Hi != nUsers {
				t.Fatalf("%s: trailing partition %v does not reach the grown universe", name, r[len(r)-1])
			}
			var got bytes.Buffer
			if err := grown.WriteSnapshot(&got, gp, nil); err != nil {
				t.Fatalf("%s: WriteSnapshot after ingest: %v", name, err)
			}
			if !bytes.Equal(got.Bytes(), wantGrown.Bytes()) {
				t.Fatalf("%s: post-ingest partitioned checkpoint differs from one engine's", name)
			}
			// A partition is a row range of the one engine, so a
			// partitioned planner re-splits like the one it came from.
			if again, err := pp.Partition(2); err != nil || !reflect.DeepEqual(again.Ranges(), partition.SplitRanges(pp.NumUsers(), 2)) {
				t.Errorf("%s: Partition(2) of a partitioned planner: %v", name, err)
			}
		}
		loaded.Close()
	}
}

// TestSliceCheckpointMergesIntoOneFile is the migration path for a
// slice-only checkpoint: LoadPartitions over the version-4 slices, then
// Model.SaveOn with that planner, writes the bytes the whole-model Save
// writes, heap-read or mapped.
func TestSliceCheckpointMergesIntoOneFile(t *testing.T) {
	ds := Generate(tinyConfig(33))
	m := Learn(ds, Options{Lambda: 0.001})
	m.RecordSeedPrefix(m.Selection(3))
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := m.NewPlanner().Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	slices := SlicePaths(path, 3)
	if err := pp.SaveSlices(m, m.SeedPrefix(), slices); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		lm, lp, err := LoadPartitions(ds, slices, mmap, Options{})
		if err != nil {
			t.Fatalf("mmap=%t: LoadPartitions: %v", mmap, err)
		}
		merged := filepath.Join(dir, fmt.Sprintf("merged-%t.bin", mmap))
		if err := lm.SaveOn(merged, lp, lm.SeedPrefix()); err != nil {
			t.Fatalf("mmap=%t: SaveOn: %v", mmap, err)
		}
		if got, err := os.ReadFile(merged); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("mmap=%t: merged slices differ from the whole-model file (%d vs %d bytes, %v)", mmap, len(got), len(want), err)
		}
		lp.Close()
	}
}

// TestLoadPartitionsRejectsMixedModels: slices checkpointed from two
// models that agree on lambda, the credit rule, the action count and the
// lineage but learned different time-aware parameters — one learned on
// the head 80% of the log and ingested to the full log, one learned on
// the full log — are refused, naming the offending slice, heap or mapped.
func TestLoadPartitionsRejectsMixedModels(t *testing.T) {
	ds := Generate(tinyConfig(31))
	n := ds.Log.NumActions()
	headN := n - n/5
	var tail []Tuple
	for a := headN; a < n; a++ {
		tail = append(tail, ds.Log.Action(ActionID(a))...)
	}
	head := Learn(&Dataset{Name: ds.Name, Graph: ds.Graph, Log: ds.Log.Prefix(headN)}, Options{Lambda: 0.001})
	grown, err := head.Ingest(tail)
	if err != nil {
		t.Fatal(err)
	}
	extended, err := grown.ExtendPlanner(head.NewPlanner())
	if err != nil {
		t.Fatal(err)
	}
	relearned := Learn(ds, Options{Lambda: 0.001})
	dir := t.TempDir()
	save := func(m *Model, p *Planner, name string) []string {
		pp, err := p.Partition(2)
		if err != nil {
			t.Fatal(err)
		}
		paths := SlicePaths(filepath.Join(dir, name), 2)
		if err := pp.SaveSlices(m, nil, paths); err != nil {
			t.Fatal(err)
		}
		return paths
	}
	ingested, learned := save(grown, extended, "ingested.bin"), save(relearned, relearned.NewPlanner(), "learned.bin")

	for _, mmap := range []bool{false, true} {
		for _, paths := range [][]string{ingested, learned} {
			_, p, err := LoadPartitions(ds, paths, mmap, Options{})
			if err != nil {
				t.Fatalf("mmap=%t: slices of one model: %v", mmap, err)
			}
			p.Close()
		}
		_, p, err := LoadPartitions(ds, []string{ingested[0], learned[1]}, mmap, Options{})
		if err == nil {
			p.Close()
			t.Fatalf("mmap=%t: slices of two models loaded as one", mmap)
		}
		if !strings.Contains(err.Error(), learned[1]) || !strings.Contains(err.Error(), "credit parameters") {
			t.Errorf("mmap=%t: err = %v, want a credit-parameter refusal naming %s", mmap, err, learned[1])
		}
	}
}
