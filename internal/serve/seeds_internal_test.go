package serve

import (
	"path/filepath"
	"testing"

	"credist"
	"credist/internal/datagen"
)

// TestIngestSeedsGrowFromExtendedBase is a white-box pin on where the
// post-ingest /seeds selection gets its planner: it must clone the
// snapshot's incrementally extended base (frozen shards shared, the
// mapped model file's shards still mapped) — NOT the grown model's
// self-contained lazy base, which would silently pay a full from-scratch
// rescan of the combined log onto the heap on the first cold /seeds after
// every ingest and retain a second copy of the UC store for the
// snapshot's lifetime.
func TestIngestSeedsGrowFromExtendedBase(t *testing.T) {
	ds := credist.Generate(datagen.Config{
		Name: "grow-base", NumUsers: 120, OutDegree: 4, Reciprocity: 0.6,
		NumActions: 60, MeanInfluence: 0.1, MeanDelay: 8,
		SpontaneousPerAction: 1, Seed: 5,
	})
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := credist.Learn(ds, credist.Options{Lambda: 0.001}).Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	sn, err := Build(Source{Dataset: ds, ModelPath: path, Mmap: true})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	next := credist.ActionID(ds.Log.NumActions())
	grown, err := sn.Ingest([]credist.Tuple{
		{User: 0, Action: next, Time: 1},
		{User: 1, Action: next, Time: 2},
	}, false)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	mapped := grown.be.planner.MappedBytes()
	if (mapped > 0) != MapsInPlace() {
		t.Fatalf("the extended base serves %d mapped bytes on a host that maps in place: %t", mapped, MapsInPlace())
	}
	if _, cached, err := grown.SelectSeeds(2); err != nil {
		t.Fatalf("SelectSeeds: %v", err)
	} else if cached {
		t.Fatal("cold post-ingest /seeds reported cached")
	}
	// The selection's planner is a clone of the extended base, so it
	// still reads the mapped shards; the model's lazy base would be a
	// fresh full scan onto the heap.
	grown.seedMu.Lock()
	sel := grown.seedSel
	grown.seedMu.Unlock()
	if sel == nil {
		t.Fatal("no selection after a cold /seeds")
	}
	if got := sel.Planner().MappedBytes(); got != mapped {
		t.Fatalf("selection planner maps %d bytes, the extended base %d (did /seeds rescan through the model's base?)", got, mapped)
	}
}
