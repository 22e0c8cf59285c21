package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

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
	if err := e.WriteSnapshot(&buf, lin, prefix, nil); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openSnapshot opens the file, heap-read or mapped, and registers Close
// for cleanup.
func openSnapshot(t *testing.T, path string, mmap bool) *SnapshotFile {
	t.Helper()
	f, err := OpenSnapshot(path, mmap)
	if err != nil {
		t.Fatalf("OpenSnapshot(mmap=%t): %v", mmap, err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestOpenSnapshotMappedBitIdentical is the cross-backend half of the
// determinism wall: the same snapshot file served heap-resident and
// memory-mapped through OpenSnapshot must answer
// every Gain with the same bits and select the same CELF seeds with the
// same gains — at one worker and at full fan-out alike.
func TestOpenSnapshotMappedBitIdentical(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 41, 60, 40)
	sel := seedsel.CELF(NewProbe(e).Estimator(nil), 5)
	prefix := &SeedPrefix{Seeds: sel.Seeds, Gains: sel.Gains, LookupsAt: sel.LookupsAt}
	path := writeSnapshotFile(t, e, lin, prefix)

	hf, mf := openSnapshot(t, path, false), openSnapshot(t, path, true)
	heap, heapLin, heapPrefix := hf.Engine, hf.Lineage, hf.Prefix
	mapped, mapLin, mapPrefix := mf.Engine, mf.Lineage, mf.Prefix

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
	if got := heap.RowStoreBackend(); got != "heap" || heap.MappedBytes() != 0 {
		t.Fatalf("heap open reports backend %q with %d mapped bytes", got, heap.MappedBytes())
	}
	if got, want := mapped.RowStoreBackend() == "mmap", mappedAliasSupported(); got != want {
		t.Fatalf("mapped open reports backend %q, aliasing supported: %t", mapped.RowStoreBackend(), want)
	}
	if mappedAliasSupported() {
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
			res := celf.Run(NewProbe(eng).Estimator(nil), 6, celf.Options{Workers: workers})
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
	mapped := openSnapshot(t, path, true).Engine
	if !mappedAliasSupported() {
		t.Skip("platform cannot alias the base section; the engine is heap-resident")
	}

	// Reference bits from the heap engine.
	heapSel := seedsel.CELF(NewProbe(e).Estimator(nil), 4)

	before := make([]float64, mapped.NumNodes())
	for u := range before {
		before[u] = NewProbe(mapped).Gain(graph.NodeID(u), nil)
	}
	mappedBefore := mapped.MappedBytes()

	mappedSel := seedsel.CELF(NewProbe(mapped).Estimator(nil), 4)
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
		if got := NewProbe(mapped).Gain(graph.NodeID(u), nil); got != before[u] {
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

	mapped, err := openSnapshot(t, path, true).Engine.AppendActions(g, log, actionlog.ActionID(headN))
	if err != nil {
		t.Fatalf("AppendActions on mapped engine: %v", err)
	}
	rescan := NewEngine(g, log, Options{Lambda: 0.001, Credit: credit})
	requireEnginesBitIdentical(t, rescan, mapped, 6)

	if mappedAliasSupported() {
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

	requireEnginesBitIdentical(t, rescan, mapped, 6)
}

// TestOpenSnapshotMappedRejects drives the mapped open with damaged
// files: structural corruption anywhere the open trusts — header, offset
// table, row directory, alignment padding — and truncation at any depth
// must come back as an error.
func TestOpenSnapshotMappedRejects(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 53, 30, 16)
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf, lin, nil, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	baseSize := e.NumActions() * 8
	for _, st := range e.uc {
		baseSize += 8 + int(st.bytes())
	}
	baseOff := len(data) - 4 - baseSize

	dir := t.TempDir()
	open := func(name string, contents []byte) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, contents, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := OpenSnapshot(path, true)
		if err == nil {
			f.Close()
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

}

// TestOpenSnapshotVersionTable is the version table of both opens: they
// accept exactly versions 3, 5 and 6, with the same rows, and each refuses
// versions 1, 2, 4 and 7 with the error the other gives, naming the
// version, the versions still read and the rebuild. Versions 1 and 2 are
// genuine old-format files, versions 4 and 7 a version-3 file with its
// version word patched.
func TestOpenSnapshotVersionTable(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 61, 30, 16)
	write := func(fn func(w io.Writer) error) []byte {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	readFile := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	v3 := write(func(w io.Writer) error { return e.WriteSnapshot(w, lin, nil, nil) })
	v2 := write(func(w io.Writer) error { return writeSnapshotV2(w, e, lin, nil) })
	// A version word the opens no longer read (4, the retired row-range
	// slice) or never did (7) is refused before either checksum is read,
	// so a version-3 file with the word patched stands in for one.
	stamped := func(v uint32) []byte {
		data := bytes.Clone(v3)
		binary.LittleEndian.PutUint32(data[len(snapshotMagic):], v)
		return data
	}
	files := [][]byte{
		1: craftVersion1(v2),
		2: v2,
		3: v3,
		4: stamped(4),
		5: readFile(legacyV6AsV5Path),
		6: readFile(legacyV6Path),
		7: stamped(7),
	}
	dir := t.TempDir()
	for v := 1; v < len(files); v++ {
		if got := binary.LittleEndian.Uint32(files[v][len(snapshotMagic):]); got != uint32(v) {
			t.Fatalf("file for version %d is stamped %d", v, got)
		}
		path := filepath.Join(dir, fmt.Sprintf("v%d.snap", v))
		if err := os.WriteFile(path, files[v], 0o644); err != nil {
			t.Fatal(err)
		}
		heap, heapErr := OpenSnapshot(path, false)
		mapped, mapErr := OpenSnapshot(path, true)
		if v == snapshotVersion || v == snapshotVersionSketch || v == snapshotVersionProv {
			if heapErr != nil || mapErr != nil {
				t.Fatalf("version %d: heap open %v, mapped open %v", v, heapErr, mapErr)
			}
			requireSameShards(t, heap.Engine, mapped.Engine)
			mapped.Close()
			continue
		}
		if heapErr == nil || mapErr == nil {
			t.Fatalf("version %d accepted: heap open %v, mapped open %v", v, heapErr, mapErr)
		}
		if heapErr.Error() != mapErr.Error() {
			t.Fatalf("version %d refused differently: heap open %q, mapped open %q", v, heapErr, mapErr)
		}
		for _, sub := range []string{fmt.Sprintf("unsupported version %d", v), "reads 3, 5 and 6", "credist learn -o"} {
			if !strings.Contains(heapErr.Error(), sub) {
				t.Errorf("version %d: error %q missing %q", v, heapErr, sub)
			}
		}
	}
}

// TestMappedEngineSnapshotRoundTrip: serializing an engine whose shards
// still alias a mapped file must reproduce the file byte for byte — the
// writer reads every shard the same way, so the backend cannot leak into
// the encoding.
func TestMappedEngineSnapshotRoundTrip(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 59, 40, 24)
	path := writeSnapshotFile(t, e, lin, nil)
	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mf := openSnapshot(t, path, true)
	mapped, mapLin := mf.Engine, mf.Lineage
	var again bytes.Buffer
	if err := mapped.WriteSnapshot(&again, mapLin, nil, nil); err != nil {
		t.Fatalf("WriteSnapshot from mapped engine: %v", err)
	}
	if !bytes.Equal(again.Bytes(), original) {
		t.Fatal("snapshot written from a mapped engine is not byte-identical to its source file")
	}
}

// TestHeapOpenAliasesReadBuffer pins what makes the heap open cheap: it
// reads the file into one buffer and runs the mapped open's aliasing
// parse over it, so every shard's directory and cells lie inside that
// buffer, and the open allocates the file size plus per-user and
// per-action state — never a copy of the credit entries.
func TestHeapOpenAliasesReadBuffer(t *testing.T) {
	if !mappedAliasSupported() {
		t.Skip("platform cannot alias the base section; the heap open decodes it")
	}
	// A dense instance — 25 out-edges per user, every user in every
	// action at distinct times — holds far more credit entries than log
	// tuples, so a per-entry cost could not hide in the file size.
	const users, actions = 80, 40
	rng := rand.New(rand.NewPCG(61, 16))
	gb := graph.NewBuilder(users)
	for u := 0; u < users; u++ {
		for _, v := range rng.Perm(users)[:25] {
			if v != u {
				_ = gb.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	g := gb.Build()
	lb := actionlog.NewBuilder(users)
	for a := 0; a < actions; a++ {
		for i, u := range rng.Perm(users) {
			_ = lb.Add(graph.NodeID(u), actionlog.ActionID(a), float64(i))
		}
	}
	log := lb.Build()
	e := NewEngine(g, log, Options{})
	path := writeSnapshotFile(t, e, DatasetLineage("alias", g, log), nil)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(fi.Size())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := OpenSnapshot(path, false)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(f.data)))
	hi := lo + uintptr(len(f.data))
	inside := func(p unsafe.Pointer, n int) bool {
		return n == 0 || (uintptr(p) >= lo && uintptr(p)+uintptr(n) <= hi)
	}
	for a, s := range f.Engine.uc {
		if !inside(unsafe.Pointer(unsafe.SliceData(s.dir)), len(s.dir)*16) || !inside(unsafe.Pointer(unsafe.SliceData(s.cells)), len(s.cells)*16) {
			t.Fatalf("action %d: shard lies outside the read buffer", a)
		}
		if s.mapped {
			t.Fatalf("action %d: heap-opened shard flagged file-backed", a)
		}
	}
	requireEnginesBitIdentical(t, e, f.Engine, 4)

	// Per user: its action list, the slice header and the normalizer; per
	// action: a shard and its pointer. The credit entries, 16 bytes each,
	// must be nowhere in the bill.
	state := uint64(8*log.NumTuples() + 64*e.NumNodes() + 96*e.NumActions() + 16<<10)
	entryBytes := uint64(e.Entries()) * 16
	if entryBytes <= state {
		t.Fatalf("instance too small: %d entry bytes do not exceed the %d-byte allowance", entryBytes, state)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("heap open of a %d-byte file holding %d entries allocated %d bytes", size, e.Entries(), alloc)
	if alloc > size+state {
		t.Fatalf("heap open allocated %d bytes, want at most file size %d + %d", alloc, size, state)
	}
}
