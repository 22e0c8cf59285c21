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
// also after its checkpoint is reopened by LoadPartitions.
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
		dir := t.TempDir()
		path := filepath.Join(dir, "model.bin")
		if err := pair.other.SaveOn(path, pp, nil); err == nil || !strings.Contains(err.Error(), "credit parameters") {
			t.Errorf("%s: SaveOn = %v, want a credit-parameter refusal", pair.name, err)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Errorf("%s: refused SaveOn left %d files (%v)", pair.name, len(entries), err)
		}
		if _, err := pp.Extend(pair.owner); err != nil {
			t.Errorf("%s: Extend under the planner's own model: %v", pair.name, err)
		}
		if err := pair.owner.SaveOn(path, pp, nil); err != nil {
			t.Fatalf("%s: SaveOn under the planner's own model: %v", pair.name, err)
		}

		// The reopened model still owns its planner.
		lm, lp, err := LoadPartitions(ds, SlicePaths(path, 4), false, Options{})
		if err != nil {
			t.Fatalf("%s: LoadPartitions: %v", pair.name, err)
		}
		if _, err := lp.Extend(lm); err != nil {
			t.Errorf("%s: Extend of the reopened planner under its own model: %v", pair.name, err)
		}
		if err := lm.SaveOn(filepath.Join(dir, "again.bin"), lp, nil); err != nil {
			t.Errorf("%s: SaveOn of the reopened planner under its own model: %v", pair.name, err)
		}
		if _, err := lp.Extend(pair.other); err == nil || !strings.Contains(err.Error(), "credit parameters") {
			t.Errorf("%s: Extend of the reopened planner under the other model = %v", pair.name, err)
		}
	}
}

// TestPartitionedOpensReadOneFile: LoadModelPartitioned opens the one
// model file and writes nothing beside it, heap-read or mapped, and
// LoadPartitions is the same open: it refuses an empty path list and one
// naming two files, and over SlicePaths its model carries the opened
// engine (mapped when the open is) rather than a lazy rescan.
func TestPartitionedOpensReadOneFile(t *testing.T) {
	ds := Generate(tinyConfig(34))
	m := Learn(ds, Options{Lambda: 0.001})
	dir := t.TempDir()
	path, other := filepath.Join(dir, "model.bin"), filepath.Join(dir, "other.bin")
	for _, p := range []string{path, other} {
		if err := m.Save(p); err != nil {
			t.Fatal(err)
		}
	}
	listing := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	before := listing()
	want := m.NewPlanner().Entries()
	for _, mmap := range []bool{false, true} {
		// The row store the one open serves from: "mmap" for a mapped
		// open, except on hosts that decode the mapping onto the heap.
		ref, err := loadSnapshotModel(ds, path, mmap, Options{})
		if err != nil {
			t.Fatal(err)
		}
		store := ref.NewPlanner().RowStoreBackend()
		ref.Close()
		_, pp, paths, err := LoadModelPartitioned(ds, path, 3, mmap, Options{})
		if err != nil {
			t.Fatalf("mmap=%t: LoadModelPartitioned: %v", mmap, err)
		}
		if pp.NumPartitions() != 3 || !reflect.DeepEqual(paths, SlicePaths(path, 3)) {
			t.Errorf("mmap=%t: %d partitions, paths %v", mmap, pp.NumPartitions(), paths)
		}
		pp.Close()
		if got := listing(); !reflect.DeepEqual(got, before) {
			t.Errorf("mmap=%t: LoadModelPartitioned changed the directory from %v to %v", mmap, before, got)
		}

		for _, bad := range []struct {
			paths []string
			want  string
		}{{nil, "no model paths"}, {[]string{path, other}, "one model file"}} {
			if _, p, err := LoadPartitions(ds, bad.paths, mmap, Options{}); err == nil || !strings.Contains(err.Error(), bad.want) {
				t.Errorf("mmap=%t: LoadPartitions(%v) = %v, want an error containing %q", mmap, bad.paths, err, bad.want)
				if err == nil {
					p.Close()
				}
			}
		}

		lm, lp, err := LoadPartitions(ds, SlicePaths(path, 2), mmap, Options{})
		if err != nil {
			t.Fatalf("mmap=%t: LoadPartitions: %v", mmap, err)
		}
		if lp.NumPartitions() != 2 || lp.RowStoreBackend() != store {
			t.Errorf("mmap=%t: %d partitions on the %s row store", mmap, lp.NumPartitions(), lp.RowStoreBackend())
		}
		if p := lm.NewPlanner(); p.RowStoreBackend() != store || p.Entries() != want {
			t.Errorf("mmap=%t: the model's planner holds %d entries on the %s row store, want %d on %s",
				mmap, p.Entries(), p.RowStoreBackend(), want, store)
		}
		lp.Close()
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
