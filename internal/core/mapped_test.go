package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"credist/internal/actionlog"
	"credist/internal/celf"
	"credist/internal/graph"
	"credist/internal/seedsel"
)

// writeSnapshotFile saves the engine (with an optional prefix) as a
// version-3 file under t's temp dir and returns the path.
func writeSnapshotFile(t *testing.T, e *Engine, lin Lineage, prefix *SeedPrefix) string {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteSnapshotPrefix(&buf, lin, prefix); err != nil {
		t.Fatalf("WriteSnapshotPrefix: %v", err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openMapped opens the file and registers the mapping for cleanup.
func openMapped(t *testing.T, path string) (*Engine, Lineage, *SeedPrefix, *MappedSnapshot) {
	t.Helper()
	eng, lin, prefix, ms, err := OpenSnapshotMapped(path)
	if err != nil {
		t.Fatalf("OpenSnapshotMapped: %v", err)
	}
	t.Cleanup(func() { ms.Close() })
	return eng, lin, prefix, ms
}

// TestOpenSnapshotMappedBitIdentical is the cross-backend half of the
// determinism wall: the same snapshot file served heap-resident
// (ReadSnapshotPrefix) and memory-mapped (OpenSnapshotMapped) must answer
// every Gain with the same bits and select the same CELF seeds with the
// same gains — at one worker and at full fan-out alike.
func TestOpenSnapshotMappedBitIdentical(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 41, 60, 40)
	sel := seedsel.CELF(NewProbeEstimator(nil, e), 5)
	prefix := &SeedPrefix{Seeds: sel.Seeds, Gains: sel.Gains, LookupsAt: sel.LookupsAt}
	path := writeSnapshotFile(t, e, lin, prefix)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	heap, heapLin, heapPrefix, err := ReadSnapshotPrefix(f)
	f.Close()
	if err != nil {
		t.Fatalf("ReadSnapshotPrefix: %v", err)
	}
	mapped, mapLin, mapPrefix, ms := openMapped(t, path)

	if mapLin != heapLin || mapLin != lin {
		t.Fatalf("lineage: mapped %+v, heap %+v, want %+v", mapLin, heapLin, lin)
	}
	if mapPrefix == nil || heapPrefix == nil {
		t.Fatal("a reader dropped the seed prefix")
	}
	for i := range heapPrefix.Seeds {
		if mapPrefix.Seeds[i] != heapPrefix.Seeds[i] || mapPrefix.Gains[i] != heapPrefix.Gains[i] ||
			mapPrefix.LookupsAt[i] != heapPrefix.LookupsAt[i] {
			t.Fatalf("prefix entry %d differs across backends", i)
		}
	}
	if got := mapped.RowStoreBackend(); got != ms.Backend() {
		t.Fatalf("engine backend %q, snapshot reports %q", got, ms.Backend())
	}
	if ms.Backend() == "mmap" {
		if mapped.HeapBytes() != 0 {
			t.Fatalf("mapped engine reports %d heap bytes before any write", mapped.HeapBytes())
		}
		if mapped.MappedBytes() == 0 {
			t.Fatal("mapped engine reports zero mapped bytes")
		}
	}
	if mapped.ResidentBytes() != mapped.HeapBytes()+mapped.MappedBytes() {
		t.Fatal("ResidentBytes is not the backend split's sum")
	}

	requireEnginesBitIdentical(t, heap, mapped, 8)

	// Worker-count sweep on both backends: every combination must produce
	// the same seeds and gain bits.
	var want celf.Result
	for i, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, eng := range []*Engine{heap, mapped} {
			res := celf.Run(NewProbeEstimator(nil, eng), 6, celf.Options{Workers: workers})
			if i == 0 && eng == heap {
				want = res
				continue
			}
			if len(res.Seeds) != len(want.Seeds) {
				t.Fatalf("workers=%d: %d seeds, want %d", workers, len(res.Seeds), len(want.Seeds))
			}
			for j := range want.Seeds {
				if res.Seeds[j] != want.Seeds[j] || res.Gains[j] != want.Gains[j] {
					t.Fatalf("workers=%d seed %d: (%d, %b) vs (%d, %b)",
						workers, j, res.Seeds[j], res.Gains[j], want.Seeds[j], want.Gains[j])
				}
			}
		}
	}
}

// TestMappedCommitsMatchHeap pins the mmap backend under seed commits:
// a probe selection over the mapped engine matches the heap backend bit
// for bit, the in-place commit oracle over mapped and heap rows agrees
// cell for cell, and the mapped engine is never disturbed — same bits,
// same footprint, nothing on the heap.
func TestMappedCommitsMatchHeap(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 43, 50, 30)
	path := writeSnapshotFile(t, e, lin, nil)
	mapped, _, _, ms := openMapped(t, path)
	if ms.Backend() != "mmap" {
		t.Skip("platform cannot alias the base section; the engine is heap-resident")
	}

	// Reference bits from the heap engine.
	heapSel := seedsel.CELF(NewProbeEstimator(nil, e), 4)

	before := make([]float64, mapped.NumNodes())
	for u := range before {
		before[u] = mapped.Gain(graph.NodeID(u))
	}
	mappedBefore := mapped.MappedBytes()

	mappedSel := seedsel.CELF(NewProbeEstimator(nil, mapped), 4)
	for i := range heapSel.Seeds {
		if mappedSel.Seeds[i] != heapSel.Seeds[i] || mappedSel.Gains[i] != heapSel.Gains[i] {
			t.Fatalf("seed %d: mapped (%d, %b), heap (%d, %b)",
				i, mappedSel.Seeds[i], mappedSel.Gains[i], heapSel.Seeds[i], heapSel.Gains[i])
		}
	}
	om, oh := newCommitOracle(mapped), newCommitOracle(e)
	for _, s := range heapSel.Seeds {
		om.Add(s)
		oh.Add(s)
	}
	if om.Entries() != oh.Entries() {
		t.Fatalf("oracle entries over mapped rows %d, over heap rows %d", om.Entries(), oh.Entries())
	}
	for a := range oh.shards {
		if !slices.Equal(om.shards[a].rowKey, oh.shards[a].rowKey) || !slices.EqualFunc(om.shards[a].rows, oh.shards[a].rows, slices.Equal) {
			t.Fatalf("action %d: oracle rows over mapped and heap engines differ", a)
		}
	}

	// The mapped engine is untouched: same bits, same footprint.
	if mapped.MappedBytes() != mappedBefore || mapped.HeapBytes() != 0 {
		t.Fatal("selection changed the mapped engine's footprint")
	}
	for u := range before {
		if got := mapped.Gain(graph.NodeID(u)); got != before[u] {
			t.Fatalf("Gain(%d) changed after selection: %b vs %b", u, got, before[u])
		}
	}
}

// TestMappedIngestMatchesRescan pins the acceptance criterion that
// appending a log tail to a mapped engine is bit-identical to scanning the
// combined log from scratch: the mapped base stays mapped, the delta is
// heap, and every query agrees with the rescan.
func TestMappedIngestMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 74))
	g, log := randomInstance(rng, 60, 40)
	credit := LearnTimeAware(g, log)
	headN := 32
	head := log.Prefix(headN)
	headEng := NewEngine(g, head, Options{Lambda: 0.001, Credit: credit})
	path := writeSnapshotFile(t, headEng, DatasetLineage("ingest", g, head), nil)

	opened, _, _, ms := openMapped(t, path)
	mapped, err := opened.AppendActions(g, log, actionlog.ActionID(headN))
	if err != nil {
		t.Fatalf("AppendActions on mapped engine: %v", err)
	}
	rescan := NewEngine(g, log, Options{Lambda: 0.001, Credit: credit})
	requireEnginesBitIdentical(t, rescan, mapped, 6)

	if ms.Backend() == "mmap" {
		if mapped.MappedBytes() == 0 {
			t.Fatal("appending a tail evicted the mapped base")
		}
		if mapped.HeapBytes() == 0 {
			t.Fatal("the appended delta is not heap-resident")
		}
		if mapped.RowStoreBackend() != "mmap" {
			t.Fatalf("backend %q after append, want mmap", mapped.RowStoreBackend())
		}
	}

	// Compact folds the delta and keeps the mapped base mapped. The
	// results must not move.
	mappedBefore := mapped.MappedBytes()
	mapped = mapped.Compact()
	if ms.Backend() == "mmap" && mapped.MappedBytes() != mappedBefore {
		t.Fatalf("Compact changed the mapped footprint: %d -> %d", mappedBefore, mapped.MappedBytes())
	}
	requireEnginesBitIdentical(t, rescan, mapped, 6)
}

// TestOpenSnapshotMappedRejects drives the mapped open with damaged and
// legacy files: structural corruption anywhere the open trusts — header,
// offset table, row directory, alignment padding — and truncation at any
// depth must come back as an error, and pre-v3 files must be refused with
// a pointer at the upgrade path.
func TestOpenSnapshotMappedRejects(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 53, 30, 16)
	var buf bytes.Buffer
	if err := e.WriteSnapshotPrefix(&buf, lin, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	baseSize := e.NumActions() * 8
	for _, st := range e.uc {
		baseSize += 8 + (st.numRows()+int(st.entryCount()))*16
	}
	baseOff := len(data) - 4 - baseSize

	dir := t.TempDir()
	open := func(name string, contents []byte) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, contents, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, ms, err := OpenSnapshotMapped(path)
		if err == nil {
			ms.Close()
		}
		return err
	}

	for _, cut := range []int{0, 4, len(snapshotMagic) + 2, baseOff / 2, baseOff + 4, len(data) - 4, len(data) - 1} {
		if err := open("trunc.bin", data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}

	// restamp keeps the footer CRC valid so only the mapped open's own
	// checks (header CRC, canonical base walk) can reject the damage.
	restamp := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	}
	flip := func(off int) []byte {
		c := append([]byte(nil), data...)
		c[off] ^= 0xff
		return restamp(c)
	}
	cases := map[string]int{
		"header (lineage)":        12,
		"header CRC or padding":   baseOff - 1,
		"offset table":            baseOff,
		"row directory":           baseOff + e.NumActions()*8 + 8,
		"block header (rowCount)": baseOff + e.NumActions()*8 + 4,
	}
	for what, off := range cases {
		if err := open("flip.bin", flip(off)); err == nil {
			t.Fatalf("corrupted %s (byte %d) accepted by mapped open", what, off)
		}
	}
	if err := open("magic.bin", restamp(append([]byte("NOTSNAPS"), data[8:]...))); err == nil {
		t.Fatal("bad magic accepted")
	}

	// Legacy versions are refused with re-save guidance.
	var legacy bytes.Buffer
	if err := writeSnapshotV2(&legacy, e, lin, nil); err != nil {
		t.Fatal(err)
	}
	err := open("v2.bin", legacy.Bytes())
	if err == nil {
		t.Fatal("version-2 file accepted by mapped open")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("re-save")) {
		t.Fatalf("version error carries no upgrade hint: %v", err)
	}
}

// TestMappedEngineSnapshotRoundTrip: serializing an engine whose shards
// still alias a mapped file must reproduce the file byte for byte — the
// writer walks the rowStore interface, so the backend cannot leak into
// the encoding.
func TestMappedEngineSnapshotRoundTrip(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 59, 40, 24)
	path := writeSnapshotFile(t, e, lin, nil)
	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, mapLin, _, _ := openMapped(t, path)
	var again bytes.Buffer
	if err := mapped.WriteSnapshot(&again, mapLin); err != nil {
		t.Fatalf("WriteSnapshot from mapped engine: %v", err)
	}
	if !bytes.Equal(again.Bytes(), original) {
		t.Fatal("snapshot written from a mapped engine is not byte-identical to its source file")
	}
}
