package credist

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestPartitionedPlannerWritesSlicesOnly: a partitioned planner holds no
// full engine, so whole-model snapshots of it are refused with a pointer
// to SaveSlices instead of writing one partition's rows as the model, and
// it cannot be split again into slices of its partitions.
func TestPartitionedPlannerWritesSlicesOnly(t *testing.T) {
	m := Learn(Generate(tinyConfig(32)), Options{Lambda: 0.001})
	pp, err := m.NewPlanner().Partition(2)
	if err != nil {
		t.Fatalf("Partition(2): %v", err)
	}
	if err := m.WriteSnapshot(io.Discard, pp, nil); err == nil || !strings.Contains(err.Error(), "slices") {
		t.Errorf("WriteSnapshot of a partitioned planner = %v, want a refusal naming slices", err)
	}
	if _, err := pp.Partition(2); err == nil || !strings.Contains(err.Error(), "partition engine") {
		t.Errorf("Partition of a partitioned planner = %v, want a refusal", err)
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
