package credist

import (
	"path/filepath"
	"testing"
)

// TestSeedPrefixSaveLoadCycle pins the facade half of the
// prefix-incremental story: a selection recorded on a model survives
// Save/LoadModel bit-exact, a selection resumed from the restored prefix
// continues bit-identically to a from-scratch run, and a load that
// appends a log tail drops the now-stale prefix instead of serving seeds
// the grown model never chose.
func TestSeedPrefixSaveLoadCycle(t *testing.T) {
	ds := Generate(tinyConfig(29))
	model := Learn(ds, Options{Lambda: 0.001})
	res := model.Selection(6)
	model.RecordSeedPrefix(res)
	if p := model.SeedPrefix(); p == nil || len(p.Seeds) != 6 {
		t.Fatalf("RecordSeedPrefix did not attach: %+v", model.SeedPrefix())
	}

	path := filepath.Join(t.TempDir(), "model.bin")
	if err := model.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadModel(ds, path, Options{})
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	p := loaded.SeedPrefix()
	if p == nil {
		t.Fatal("prefix did not survive Save/LoadModel")
	}
	for i := range res.Seeds {
		if p.Seeds[i] != res.Seeds[i] || p.Gains[i] != res.Gains[i] || p.LookupsAt[i] != res.LookupsAt[i] {
			t.Fatalf("restored prefix diverged at %d: (%d, %b, %d) vs (%d, %b, %d)", i,
				p.Seeds[i], p.Gains[i], p.LookupsAt[i], res.Seeds[i], res.Gains[i], res.LookupsAt[i])
		}
	}

	// Resuming the restored prefix and growing continues the selection
	// exactly where a from-scratch run would be.
	sel, err := loaded.NewPlanner().ResumeSelection(p)
	if err != nil {
		t.Fatalf("ResumeSelection: %v", err)
	}
	grown := sel.Grow(10)
	want := model.Selection(10)
	if len(grown.Seeds) != len(want.Seeds) {
		t.Fatalf("resumed growth selected %d seeds, want %d", len(grown.Seeds), len(want.Seeds))
	}
	for i := range want.Seeds {
		if grown.Seeds[i] != want.Seeds[i] || grown.Gains[i] != want.Gains[i] {
			t.Fatalf("resumed growth diverged at %d: (%d, %b) vs (%d, %b)", i,
				grown.Seeds[i], grown.Gains[i], want.Seeds[i], want.Gains[i])
		}
	}

	// Resuming a prefix on a planner with committed seeds is rejected: the
	// prefix describes a selection from an empty seed set, and replaying
	// it on top of foreign seeds would silently double-commit overlaps.
	dirty := loaded.NewPlanner()
	dirty.Add(p.Seeds[0])
	if _, err := dirty.ResumeSelection(p); err == nil {
		t.Fatal("ResumeSelection on a planner with committed seeds accepted")
	}

	// A load against a grown log (snapshot + appended tail) must drop the
	// prefix: the appended actions change every marginal gain.
	headN := ds.Log.NumActions() - 5
	headDS := &Dataset{Name: ds.Name, Graph: ds.Graph, Log: ds.Log.Prefix(headN)}
	headModel := Learn(headDS, Options{Lambda: 0.001})
	headModel.RecordSeedPrefix(headModel.Selection(4))
	headPath := filepath.Join(t.TempDir(), "head.bin")
	if err := headModel.Save(headPath); err != nil {
		t.Fatalf("Save head: %v", err)
	}
	grownModel, err := LoadModel(ds, headPath, Options{})
	if err != nil {
		t.Fatalf("LoadModel with tail: %v", err)
	}
	if grownModel.SeedPrefix() != nil {
		t.Fatal("stale prefix survived a tail-appending load")
	}
}
