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
// to SaveSlices instead of writing one partition's rows as the model.
func TestPartitionedPlannerWritesSlicesOnly(t *testing.T) {
	m := Learn(Generate(tinyConfig(32)), Options{Lambda: 0.001})
	pp, err := m.NewPlanner().Partition(2)
	if err != nil {
		t.Fatalf("Partition(2): %v", err)
	}
	if err := m.WriteSnapshot(io.Discard, pp, nil); err == nil || !strings.Contains(err.Error(), "slices") {
		t.Errorf("WriteSnapshot of a partitioned planner = %v, want a refusal naming slices", err)
	}
	if err := m.WriteSnapshotSlice(io.Discard, pp, nil, 0, 10); err == nil {
		t.Error("WriteSnapshotSlice of a partitioned planner accepted")
	}
}
