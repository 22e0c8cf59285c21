package credist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"credist/internal/datagen"
)

func tinyConfig(seed uint64) datagen.Config {
	return datagen.Config{
		Name: "facade-test", NumUsers: 300, OutDegree: 4, Reciprocity: 0.6,
		NumActions: 200, MeanInfluence: 0.08, MeanDelay: 8,
		SpontaneousPerAction: 2, ThresholdFraction: 0.4, Seed: seed,
	}
}

// selectSeeds is the default-objective selection from an empty seed set,
// as a seeds/gains pair.
func selectSeeds(m *Model, k int) ([]NodeID, []float64) {
	res := m.Selection(k)
	return res.Seeds, res.Gains
}

// mustGains is p.Gains, failing t on an error.
func mustGains(t testing.TB, p *Planner, base, candidates []NodeID) []float64 {
	t.Helper()
	g, err := p.Gains(base, candidates)
	if err != nil {
		t.Fatalf("Gains: %v", err)
	}
	return g
}

// mustExplainSeed is p.ExplainSeed, failing t on an error.
func mustExplainSeed(t testing.TB, p *Planner, x NodeID, top int) SeedExplanation {
	t.Helper()
	ex, err := p.ExplainSeed(x, top)
	if err != nil {
		t.Fatalf("ExplainSeed(%d): %v", x, err)
	}
	return ex
}

// mustExplainReach is p.ExplainReach, failing t on an error.
func mustExplainReach(t testing.TB, p *Planner, seeds []NodeID, v NodeID, top int) ReachExplanation {
	t.Helper()
	ex, err := p.ExplainReach(seeds, v, top)
	if err != nil {
		t.Fatalf("ExplainReach(%v, %d): %v", seeds, v, err)
	}
	return ex
}

func TestGeneratePreset(t *testing.T) {
	ds, err := GeneratePreset("flixster-small")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumUsers() == 0 || ds.Stats().NumTuples == 0 {
		t.Fatal("empty preset dataset")
	}
	if _, err := GeneratePreset("no-such-preset"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestSplitRatio(t *testing.T) {
	ds := Generate(tinyConfig(1))
	train, test := ds.Split()
	tr, te := train.Stats().NumActions, test.Stats().NumActions
	if tr+te != ds.Stats().NumActions {
		t.Fatal("split lost actions")
	}
	if te == 0 || tr < 3*te {
		t.Fatalf("split = %d/%d, want ~80/20", tr, te)
	}
}

func TestLearnSelectPredict(t *testing.T) {
	ds := Generate(tinyConfig(2))
	model := Learn(ds, Options{Lambda: 0.001})
	seeds, gains := selectSeeds(model, 5)
	if len(seeds) != 5 || len(gains) != 5 {
		t.Fatalf("seeds/gains = %d/%d", len(seeds), len(gains))
	}
	for i := 1; i < len(gains); i++ {
		if gains[i] > gains[i-1]+1e-9 {
			t.Fatalf("gains not non-increasing: %v", gains)
		}
	}
	spread := model.Spread(seeds)
	sum := 0.0
	for _, g := range gains {
		sum += g
	}
	// Exact evaluator spread is at least the truncated engine's estimate,
	// and close to it.
	if spread < sum-1e-6 || spread > sum*1.25+1 {
		t.Fatalf("spread %g far from gain sum %g", spread, sum)
	}
	// More seeds never hurt.
	more, _ := selectSeeds(model, 10)
	if model.Spread(more) < spread-1e-9 {
		t.Fatal("spread decreased with more seeds")
	}
}

func TestSimpleVsTimeAwareOptions(t *testing.T) {
	ds := Generate(tinyConfig(3))
	ta := Learn(ds, Options{})
	simple := Learn(ds, Options{SimpleCredit: true})
	seeds, _ := selectSeeds(ta, 3)
	// The simple rule gives more credit per hop, so it predicts at least
	// as much spread for any fixed set.
	if simple.Spread(seeds) < ta.Spread(seeds)-1e-9 {
		t.Fatalf("simple %g < time-aware %g", simple.Spread(seeds), ta.Spread(seeds))
	}
	if infl := ta.Influenceability(seeds[0]); infl < 0 || infl > 1 {
		t.Fatalf("influenceability %g", infl)
	}
	if got := simple.Influenceability(seeds[0]); got != 1 {
		t.Fatalf("simple-credit influenceability = %g, want 1", got)
	}
}

func TestPairCreditAndInitiators(t *testing.T) {
	ds := Generate(tinyConfig(4))
	model := Learn(ds, Options{})
	inits := Initiators(ds, 0)
	if len(inits) == 0 {
		t.Fatal("no initiators")
	}
	// Self-credit: kappa_{v,v} = 1 for any user who acted.
	v := inits[0]
	if got := model.PairCredit(v, v); math.Abs(got-1) > 1e-9 {
		t.Fatalf("kappa_vv = %g", got)
	}
}

func TestBaselineSeeds(t *testing.T) {
	ds := Generate(tinyConfig(5))
	hd := HighDegreeSeeds(ds, 7)
	pr := PageRankSeeds(ds, 7)
	if len(hd) != 7 || len(pr) != 7 {
		t.Fatalf("baseline sizes %d/%d", len(hd), len(pr))
	}
	seen := map[NodeID]bool{}
	for _, u := range hd {
		if seen[u] {
			t.Fatal("duplicate high-degree seed")
		}
		seen[u] = true
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := Generate(tinyConfig(6))
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.graph")
	lp := filepath.Join(dir, "l.log")
	if err := SaveDataset(ds, gp, lp); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset("back", gp, lp)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumUsers() != ds.NumUsers() {
		t.Fatalf("users %d != %d", back.NumUsers(), ds.NumUsers())
	}
	if back.Stats().NumTuples != ds.Stats().NumTuples {
		t.Fatalf("tuples %d != %d", back.Stats().NumTuples, ds.Stats().NumTuples)
	}
	// Models learned from the round-tripped dataset agree.
	s1, _ := selectSeeds(Learn(ds, Options{}), 3)
	s2, _ := selectSeeds(Learn(back, Options{}), 3)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("seeds diverged after round trip: %v vs %v", s1, s2)
		}
	}
}

func TestLoadDatasetErrors(t *testing.T) {
	if _, err := LoadDataset("x", "/nonexistent/g", "/nonexistent/l"); err == nil {
		t.Fatal("missing files accepted")
	}
}

func TestSelectionResultExtras(t *testing.T) {
	ds := Generate(tinyConfig(7))
	model := Learn(ds, Options{})
	res := model.Selection(4)
	if len(res.Seeds) != 4 || res.Lookups < 4 {
		t.Fatalf("selection = %+v", res)
	}
	if len(res.Elapsed) != 4 {
		t.Fatalf("elapsed per seed missing: %d", len(res.Elapsed))
	}
}

// TestModelIngestMatchesRelearnFreeReference: ingesting a held-out action
// tail yields, bit for bit, the model one gets by binding the same frozen
// parameters (ReferenceModel) to the combined dataset — and the
// incrementally extended planner matches a freshly scanned one.
func TestModelIngestMatchesRelearnFreeReference(t *testing.T) {
	full := Generate(tinyConfig(9))
	n := full.Log.NumActions()
	headN := n - n/20
	headDS := &Dataset{Name: "head", Graph: full.Graph, Log: full.Log.Prefix(headN)}
	var tail []Tuple
	for a := headN; a < n; a++ {
		tail = append(tail, full.Log.Action(ActionID(a))...)
	}

	model := Learn(headDS, Options{Lambda: 0.001})
	base := model.NewPlanner()

	grown, err := model.Ingest(tail)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if grown.Dataset().Log.NumActions() != n {
		t.Fatalf("ingested model has %d actions, want %d", grown.Dataset().Log.NumActions(), n)
	}
	// The receiver still answers from the head log.
	if model.Dataset().Log.NumActions() != headN {
		t.Fatalf("receiver mutated: %d actions", model.Dataset().Log.NumActions())
	}

	ref := ReferenceModel(&Dataset{Name: "combined", Graph: full.Graph, Log: grown.Dataset().Log}, model)

	seeds, _ := selectSeeds(ref, 4)
	if a, b := grown.Spread(seeds), ref.Spread(seeds); a != b {
		t.Fatalf("ingested Spread %b != reference %b", a, b)
	}
	gs, ggains := selectSeeds(grown, 4)
	for i := range seeds {
		if gs[i] != seeds[i] {
			t.Fatalf("ingested model selects %v, reference %v", gs, seeds)
		}
	}

	planner, err := grown.ExtendPlanner(base)
	if err != nil {
		t.Fatalf("ExtendPlanner: %v", err)
	}
	if planner.NumActions() != n {
		t.Fatalf("planner covers %d actions, want %d", planner.NumActions(), n)
	}
	fresh := grown.NewPlanner()
	for _, s := range seeds {
		if a, b := planner.Gain(s), fresh.Gain(s); a != b {
			t.Fatalf("extended planner Gain(%d) %b != fresh %b", s, a, b)
		}
	}
	res, err := planner.Select(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Seeds {
		if res.Seeds[i] != gs[i] || res.Gains[i] != ggains[i] {
			t.Fatalf("extended planner CELF diverged at %d", i)
		}
	}

	// Guard rails: planners from a different parameter lineage are refused,
	// as are tuples outside the graph universe.
	other := Learn(headDS, Options{Lambda: 0.001})
	if _, err := grown.ExtendPlanner(other.NewPlanner()); err == nil {
		t.Fatal("foreign planner accepted")
	}
	// The simple-credit rule is parameterless (every model holds the same
	// credit value), so the lineage check falls to the truncation threshold.
	sA := Learn(headDS, Options{SimpleCredit: true, Lambda: 0.5})
	sB := Learn(headDS, Options{SimpleCredit: true, Lambda: 0.001})
	sGrown, err := sB.Ingest(tail)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sGrown.ExtendPlanner(sA.NewPlanner()); err == nil {
		t.Fatal("simple-credit planner with mismatched lambda accepted")
	}
	if _, err := grown.Ingest([]Tuple{{User: NodeID(full.NumUsers()), Action: ActionID(n), Time: 1}}); err == nil {
		t.Fatal("tuple beyond graph universe accepted")
	}
}

// TestModelSnapshotSaveLoadBitIdentical is the cold-start acceptance
// test at the facade level: a model saved as a binary snapshot over a log
// prefix, reloaded against the combined dataset (which appends only the
// held-out tail), answers Spread, batched Gains, and CELF selection with
// exactly the bits of the reference model that ingested the same tail —
// which PR 3 proved bit-identical to a from-scratch rescan.
func TestModelSnapshotSaveLoadBitIdentical(t *testing.T) {
	full := Generate(tinyConfig(10))
	n := full.Log.NumActions()
	headN := n - n/20
	headDS := &Dataset{Name: "head", Graph: full.Graph, Log: full.Log.Prefix(headN)}
	var tail []Tuple
	for a := headN; a < n; a++ {
		tail = append(tail, full.Log.Action(ActionID(a))...)
	}

	for _, opts := range []Options{{Lambda: 0.001}, {SimpleCredit: true, Lambda: 0.001}} {
		model := Learn(headDS, opts)
		ref, err := model.Ingest(tail)
		if err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		path := filepath.Join(t.TempDir(), "model.bin")
		if err := model.Save(path); err != nil {
			t.Fatalf("Save: %v", err)
		}

		combined := &Dataset{Name: "combined", Graph: full.Graph, Log: ref.Dataset().Log}
		loaded, err := LoadModel(combined, path, Options{})
		if err != nil {
			t.Fatalf("LoadModel: %v", err)
		}
		if loaded.Options() != opts {
			t.Fatalf("loaded options %+v, want %+v", loaded.Options(), opts)
		}
		// The load scanned exactly the appended tail past the file.
		if p := loaded.NewPlanner(); p.NumActions() != n || loaded.OpenTailActions() != n-headN {
			t.Fatalf("loaded planner covers %d actions (%d scanned on open), want %d (%d)",
				p.NumActions(), loaded.OpenTailActions(), n, n-headN)
		}

		seeds, gains := selectSeeds(ref, 4)
		ls, lg := selectSeeds(loaded, 4)
		for i := range seeds {
			if ls[i] != seeds[i] || lg[i] != gains[i] {
				t.Fatalf("opts %+v: selection diverged at %d: (%d, %b) vs (%d, %b)",
					opts, i, ls[i], lg[i], seeds[i], gains[i])
			}
		}
		if a, b := loaded.Spread(seeds), ref.Spread(seeds); a != b {
			t.Fatalf("opts %+v: Spread %b != reference %b", opts, a, b)
		}
		cands := []NodeID{0, 1, 2, 3, 4, 5}
		ga, gb := mustGains(t, loaded.NewPlanner(), seeds[:2], cands), mustGains(t, ref.NewPlanner(), seeds[:2], cands)
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("opts %+v: Gains[%d] %b != %b", opts, i, ga[i], gb[i])
			}
		}

		// Explicit matching options are accepted; mismatched ones are not.
		if _, err := LoadModel(combined, path, opts); err != nil {
			t.Fatalf("matching options rejected: %v", err)
		}
		if _, err := LoadModel(combined, path, Options{Lambda: 0.5, SimpleCredit: opts.SimpleCredit}); err == nil {
			t.Fatal("mismatched lambda accepted")
		}
	}
}

// TestLoadModelSnapshotLineageErrors exercises the refusal paths: a
// snapshot must not bind to a dataset it was not built from.
func TestLoadModelSnapshotLineageErrors(t *testing.T) {
	ds := Generate(tinyConfig(11))
	model := Learn(ds, Options{Lambda: 0.001})
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}

	// Different graph (fresh generation, different seed).
	other := Generate(tinyConfig(12))
	if _, err := LoadModel(other, path, Options{}); err == nil {
		t.Error("foreign dataset accepted")
	}
	// Log shorter than the snapshot's scanned prefix.
	short := &Dataset{Name: "short", Graph: ds.Graph, Log: ds.Log.Prefix(ds.Log.NumActions() - 1)}
	if _, err := LoadModel(short, path, Options{}); err == nil {
		t.Error("truncated log accepted")
	}
	// Corrupt file.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	bad := filepath.Join(t.TempDir(), "corrupt.bin")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(ds, bad, Options{}); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

// TestWriteSnapshotPlannerValidation covers the explicit-planner path the
// serving layer uses to checkpoint its live planner.
func TestWriteSnapshotPlannerValidation(t *testing.T) {
	ds := Generate(tinyConfig(13))
	model := Learn(ds, Options{Lambda: 0.001})
	p := model.NewPlanner()

	path := filepath.Join(t.TempDir(), "model.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.WriteSnapshot(f, p, nil); err != nil {
		t.Fatalf("WriteSnapshot(planner): %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(ds, path, Options{})
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	s1, _ := selectSeeds(model, 3)
	s2, _ := selectSeeds(loaded, 3)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("selection diverged: %v vs %v", s2, s1)
		}
	}

	// A planner from another model lineage is refused.
	foreign := Learn(ds, Options{Lambda: 0.001})
	if err := model.WriteSnapshot(io.Discard, foreign.NewPlanner(), nil); err == nil {
		t.Error("foreign planner accepted")
	}
	// A planner with committed seeds is refused.
	committed := model.NewPlanner()
	committed.Add(s1[0])
	if err := model.WriteSnapshot(io.Discard, committed, nil); err == nil {
		t.Error("planner with committed seeds accepted")
	}
}

// TestMappedModelSavesOverItsOwnFile: Save on a LoadModelMapped model
// may target the very file the model is mapped from. The rewritten file
// is byte-identical to the one it replaces, and the still-open model
// keeps answering Gain and ExplainReach from its mapping.
func TestMappedModelSavesOverItsOwnFile(t *testing.T) {
	ds := Generate(tinyConfig(26))
	m := Learn(ds, Options{Lambda: 0.001})
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	if err := m.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadModelMapped(ds, path, Options{})
	if err != nil {
		t.Fatalf("LoadModelMapped: %v", err)
	}
	defer mapped.Close()
	cands := []NodeID{0, 3, 17, 42, 150}
	seeds, v := []NodeID{1, 5, 9}, NodeID(14)
	wantGains := mustGains(t, mapped.NewPlanner(), nil, cands)
	wantReach := mustExplainReach(t, mapped.NewPlanner(), seeds, v, 10)

	if err := mapped.Save(path); err != nil {
		t.Fatalf("Save over the mapped file: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-saved file differs: %d vs %d bytes", len(got), len(want))
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries after Save (err %v), want only the model", len(entries), err)
	}
	if g := mustGains(t, mapped.NewPlanner(), nil, cands); !reflect.DeepEqual(g, wantGains) {
		t.Errorf("Gains after the re-save = %v, want %v", g, wantGains)
	}
	if r := mustExplainReach(t, mapped.NewPlanner(), seeds, v, 10); !reflect.DeepEqual(r, wantReach) {
		t.Errorf("ExplainReach after the re-save = %+v, want %+v", r, wantReach)
	}
}

// TestLoadModelMappedBitIdentical: the mmap-served model is the heap
// model, bit for bit — Spread, batched Gains, CELF selection, and the
// tail-append path all agree — while its planners report the mmap
// backend with the footprint on the mapped side of the split.
func TestLoadModelMappedBitIdentical(t *testing.T) {
	full := Generate(tinyConfig(12))
	n := full.Log.NumActions()
	headN := n - n/20
	headDS := &Dataset{Name: "head", Graph: full.Graph, Log: full.Log.Prefix(headN)}
	model := Learn(headDS, Options{Lambda: 0.001})
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := model.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}

	combined := &Dataset{Name: "combined", Graph: full.Graph, Log: full.Log}
	heap, err := LoadModel(combined, path, Options{})
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	mapped, err := LoadModelMapped(combined, path, Options{})
	if err != nil {
		t.Fatalf("LoadModelMapped: %v", err)
	}
	defer mapped.Close()
	if mapped.Options() != heap.Options() {
		t.Fatalf("options %+v, want %+v", mapped.Options(), heap.Options())
	}

	p := mapped.NewPlanner()
	if p.NumActions() != n || mapped.OpenTailActions() != n-headN {
		t.Fatalf("mapped planner covers %d actions (%d scanned on open), want %d (%d)",
			p.NumActions(), mapped.OpenTailActions(), n, n-headN)
	}
	if p.RowStoreBackend() == "mmap" {
		if p.MappedBytes() == 0 {
			t.Fatal("mmap backend with zero mapped bytes")
		}
		if p.ResidentBytes() != p.HeapBytes()+p.MappedBytes() {
			t.Fatal("resident bytes is not the heap/mapped sum")
		}
	}

	seeds, gains := selectSeeds(heap, 4)
	ms, mg := selectSeeds(mapped, 4)
	for i := range seeds {
		if ms[i] != seeds[i] || mg[i] != gains[i] {
			t.Fatalf("selection diverged at %d: (%d, %b) vs (%d, %b)", i, ms[i], mg[i], seeds[i], gains[i])
		}
	}
	if a, b := mapped.Spread(seeds), heap.Spread(seeds); a != b {
		t.Fatalf("Spread %b != heap %b", a, b)
	}
	cands := []NodeID{0, 1, 2, 3, 4, 5}
	ga, gb := mustGains(t, mapped.NewPlanner(), seeds[:2], cands), mustGains(t, heap.NewPlanner(), seeds[:2], cands)
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("Gains[%d] %b != %b", i, ga[i], gb[i])
		}
	}

	// Closing a heap-loaded or nil model is a harmless no-op.
	if err := heap.Close(); err != nil {
		t.Fatalf("Close on heap model: %v", err)
	}
	if err := (*Model)(nil).Close(); err != nil {
		t.Fatalf("Close on nil model: %v", err)
	}
}

// TestLoadModelRefusesOtherFiles: both opens refuse a text parameter
// file, a version-2 snapshot and a missing file, and each refusal names
// the file; the first two say to rebuild it with `credist learn -o`, and
// the heap and mapped opens refuse each file with the same error.
func TestLoadModelRefusesOtherFiles(t *testing.T) {
	ds := Generate(tinyConfig(8))
	dir := t.TempDir()
	text := filepath.Join(dir, "params.txt")
	if err := os.WriteFile(text, []byte("numUsers 3\ninfl 0 0.5\ntau 0 1 2.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "model.bin")
	if err := Learn(ds, Options{}).Save(snap); err != nil {
		t.Fatal(err)
	}
	// A version-2 stamp with the footer refreshed: only the version check
	// can refuse it.
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:], 2)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	v2 := filepath.Join(dir, "v2.bin")
	if err := os.WriteFile(v2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path    string
		rebuild bool
	}{{text, true}, {v2, true}, {filepath.Join(dir, "missing.bin"), false}} {
		_, heapErr := LoadModel(ds, c.path, Options{})
		_, mapErr := LoadModelMapped(ds, c.path, Options{})
		if heapErr == nil || mapErr == nil {
			t.Fatalf("%s accepted: LoadModel %v, LoadModelMapped %v", c.path, heapErr, mapErr)
		}
		if c.rebuild && heapErr.Error() != mapErr.Error() {
			t.Errorf("%s refused differently: %q vs %q", c.path, heapErr, mapErr)
		}
		if msg := heapErr.Error(); !strings.Contains(msg, c.path) || c.rebuild && !strings.Contains(msg, "credist learn -o") {
			t.Errorf("refusal of %s = %q", c.path, msg)
		}
	}
}
