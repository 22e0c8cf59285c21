package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"credist/internal/actionlog"
	"credist/internal/graph"
	"credist/internal/seedsel"
)

// snapshotInstance builds a learned, scanned engine plus its lineage for
// the snapshot tests.
func snapshotInstance(t *testing.T, seed uint64, users, actions int) (*graph.Graph, *actionlog.Log, *Engine, Lineage) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xfeed))
	g, log := randomInstance(rng, users, actions)
	credit := LearnTimeAware(g, log)
	e := NewEngine(g, log, Options{Lambda: 0.001, Credit: credit})
	return g, log, e, DatasetLineage("snap-test", g, log)
}

func writeSnapshot(t *testing.T, e *Engine, lin Lineage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf, lin, nil, nil); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// readSnapshot parses snapshot bytes exactly as the heap OpenSnapshot
// parses a file it has read: from an 8-aligned buffer, the footer
// checked right after the version.
func readSnapshot(data []byte) (*SnapshotFile, error) {
	return parseSnapshot(alignedCopy(data), mappedAliasSupported(), false)
}

// alignedCopy copies data into an 8-aligned buffer backed by []uint64, the
// kind readAligned reads a file into.
func alignedCopy(data []byte) []byte {
	words := make([]uint64, (len(data)+7)/8)
	aligned := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(words)*8)[:len(data)]
	copy(aligned, data)
	return aligned
}

// requireEnginesBitIdentical compares two engines through their public
// query surface: entry counts, every user's marginal gain, and the full
// CELF selection (seeds and gains) must match bit for bit. Engines are
// cloned before selection so the originals stay reusable.
func requireEnginesBitIdentical(t *testing.T, want, got *Engine, k int) {
	t.Helper()
	if want.Entries() != got.Entries() {
		t.Fatalf("entries %d != %d", got.Entries(), want.Entries())
	}
	if want.NumNodes() != got.NumNodes() {
		t.Fatalf("numUsers %d != %d", got.NumNodes(), want.NumNodes())
	}
	if want.NumActions() != got.NumActions() {
		t.Fatalf("numActions %d != %d", got.NumActions(), want.NumActions())
	}
	for u := 0; u < want.NumNodes(); u++ {
		gw, gg := NewProbe(want).Gain(graph.NodeID(u), nil), NewProbe(got).Gain(graph.NodeID(u), nil)
		if gw != gg {
			t.Fatalf("Gain(%d) not bit-identical: %b vs %b", u, gg, gw)
		}
	}
	rw := seedsel.CELF(NewProbe(want).Estimator(nil), k)
	rg := seedsel.CELF(NewProbe(got).Estimator(nil), k)
	if len(rw.Seeds) != len(rg.Seeds) {
		t.Fatalf("CELF lengths %d vs %d", len(rg.Seeds), len(rw.Seeds))
	}
	for i := range rw.Seeds {
		if rw.Seeds[i] != rg.Seeds[i] || rw.Gains[i] != rg.Gains[i] {
			t.Fatalf("CELF diverged at %d: (%d, %b) vs (%d, %b)",
				i, rg.Seeds[i], rg.Gains[i], rw.Seeds[i], rw.Gains[i])
		}
	}
}

// TestSnapshotRoundTripBitExact is the format's core guarantee: a loaded
// engine answers every query with the saved engine's exact bits, the
// lineage survives, and re-serializing the loaded engine reproduces the
// file byte for byte (the encoding of a given engine is unique).
func TestSnapshotRoundTripBitExact(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 31, 60, 40)
	data := writeSnapshot(t, e, lin)

	sf, err := readSnapshot(data)
	if err != nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	back, backLin := sf.Engine, sf.Lineage
	if backLin != lin {
		t.Fatalf("lineage round trip: %+v != %+v", backLin, lin)
	}
	if back.Lambda() != e.Lambda() {
		t.Fatalf("lambda %g != %g", back.Lambda(), e.Lambda())
	}
	requireEnginesBitIdentical(t, e, back, 8)

	// The time-aware parameters must survive bit-exact too.
	orig := e.CreditModel().(*TimeAwareCredit)
	restored := back.CreditModel().(*TimeAwareCredit)
	origTau, restoredTau := tauMap(orig), tauMap(restored)
	if len(orig.infl) != len(restored.infl) || len(origTau) != len(restoredTau) {
		t.Fatalf("credit params shape changed: infl %d/%d tau %d/%d",
			len(restored.infl), len(orig.infl), len(restoredTau), len(origTau))
	}
	for u := range orig.infl {
		if orig.infl[u] != restored.infl[u] {
			t.Fatalf("infl(%d) %b != %b", u, restored.infl[u], orig.infl[u])
		}
	}
	for ed, tau := range origTau {
		if got, ok := restoredTau[ed]; !ok || got != tau {
			t.Fatalf("tau(%v) %b,%v != %b", ed, got, ok, tau)
		}
	}

	again := writeSnapshot(t, back, backLin)
	if !bytes.Equal(again, data) {
		t.Fatal("re-serialized snapshot is not byte-identical")
	}
}

// TestSnapshotSimpleCreditRoundTrip covers the parameterless credit rule.
func TestSnapshotSimpleCreditRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 73))
	g, log := randomInstance(rng, 40, 24)
	e := NewEngine(g, log, Options{Lambda: 0.001})
	lin := DatasetLineage("simple", g, log)
	data := writeSnapshot(t, e, lin)
	sf, err := readSnapshot(data)
	if err != nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	back := sf.Engine
	if _, ok := back.CreditModel().(SimpleCredit); !ok {
		t.Fatalf("credit model = %T, want SimpleCredit", back.CreditModel())
	}
	requireEnginesBitIdentical(t, e, back, 6)
}

// TestSnapshotLoadThenAppendBitIdenticalToRescan is the cold-start
// invariant: an engine saved over a log prefix, reloaded, and extended
// with AppendActions over the held-out tail is bit-for-bit a from-scratch
// NewEngine over the combined log.
func TestSnapshotLoadThenAppendBitIdenticalToRescan(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 14))
	g, log := randomInstance(rng, 70, 50)
	credit := LearnTimeAware(g, log)
	opts := Options{Lambda: 0.001, Credit: credit}
	headN := log.NumActions() - log.NumActions()/10
	head := log.Prefix(headN)

	saved := NewEngine(g, head, opts)
	data := writeSnapshot(t, saved, DatasetLineage("head", g, head))
	sf, err := readSnapshot(data)
	if err != nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	back, lin := sf.Engine, sf.Lineage
	if err := lin.Check(g, log); err != nil {
		t.Fatalf("lineage check against the combined log: %v", err)
	}
	if back, err = back.AppendActions(g, log, actionlog.ActionID(lin.NumActions)); err != nil {
		t.Fatalf("AppendActions: %v", err)
	}
	requireEnginesBitIdentical(t, NewEngine(g, log, opts), back, 8)
}

func TestSnapshotLineageCheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 34))
	g, log := randomInstance(rng, 50, 30)
	lin := DatasetLineage("x", g, log)
	if err := lin.Check(g, log); err != nil {
		t.Fatalf("self check: %v", err)
	}
	// A different graph is refused.
	g2, _ := randomInstance(rng, 50, 30)
	if err := lin.Check(g2, log); err == nil {
		t.Error("foreign graph accepted")
	}
	// A log shorter than the recorded scan is refused.
	if err := lin.Check(g, log.Prefix(log.NumActions()-1)); err == nil {
		t.Error("truncated log accepted")
	}
	// A log whose prefix content diverges is refused even at equal length.
	tuples := append([]actionlog.Tuple(nil), log.Tuples()...)
	tuples[0].Time += 1
	other, err := actionlog.FromTuples(log.NumUsers(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	if err := lin.Check(g, other); err == nil {
		t.Error("tampered log prefix accepted")
	}
	// A longer log with the same prefix passes (the caller appends the tail).
	longer := log
	if err := lin.Check(g, longer); err != nil {
		t.Errorf("equal log refused: %v", err)
	}
}

func TestSnapshotRefusesMismatchedLineage(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 53, 30, 16)
	bad := lin
	bad.NumActions--
	if err := e.WriteSnapshot(&bytes.Buffer{}, bad, nil, nil); err == nil {
		t.Fatal("lineage with wrong action count accepted")
	}
	bad = lin
	bad.NumUsers++
	if err := e.WriteSnapshot(&bytes.Buffer{}, bad, nil, nil); err == nil {
		t.Fatal("lineage with wrong user count accepted")
	}
	// The writer enforces the reader's name bound, so it can never produce
	// a CRC-valid file that no load will accept.
	bad = lin
	bad.Dataset = strings.Repeat("x", 1<<16+1)
	if err := e.WriteSnapshot(&bytes.Buffer{}, bad, nil, nil); err == nil {
		t.Fatal("oversized dataset name accepted")
	}
}

// TestSnapshotRejectsTruncation feeds every proper prefix of a valid
// snapshot to the reader: each must produce an error — never a panic, an
// OOM-scale allocation, or a silently short engine.
func TestSnapshotRejectsTruncation(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 59, 30, 16)
	data := writeSnapshot(t, e, lin)
	for i := 0; i < len(data); i++ {
		if _, err := readSnapshot(data[:i]); err == nil {
			t.Fatalf("truncation at byte %d/%d accepted", i, len(data))
		}
	}
}

// TestSnapshotRejectsCorruption flips bytes throughout the file; the CRC
// footer (or an earlier structural check) must catch every one.
func TestSnapshotRejectsCorruption(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 61, 30, 16)
	data := writeSnapshot(t, e, lin)
	for i := 0; i < len(data); i += 7 {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0x40
		if _, err := readSnapshot(corrupt); err == nil {
			t.Fatalf("bit flip at byte %d/%d accepted", i, len(data))
		}
	}
	// Trailing garbage after a valid payload is also rejected.
	if _, err := readSnapshot(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

// TestSnapshotRejectsHostileCounts hand-crafts headers with absurd
// declared dimensions; the reader must fail fast on its sanity bounds
// rather than trust them.
func TestSnapshotRejectsHostileCounts(t *testing.T) {
	base := func() *bytes.Buffer {
		var buf bytes.Buffer
		buf.WriteString(snapshotMagic)
		buf.Write([]byte{1, 0, 0, 0}) // version
		return &buf
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff}

	cases := map[string]func() []byte{
		"bad magic": func() []byte { return []byte("NOTASNAP00000000") },
		"bad version": func() []byte {
			var buf bytes.Buffer
			buf.WriteString(snapshotMagic)
			buf.Write([]byte{9, 0, 0, 0})
			return buf.Bytes()
		},
		"huge name length": func() []byte {
			buf := base()
			buf.Write(huge)
			return buf.Bytes()
		},
		"huge user count": func() []byte {
			buf := base()
			buf.Write([]byte{0, 0, 0, 0}) // empty name
			buf.Write(huge)
			return buf.Bytes()
		},
	}
	for name, mk := range cases {
		if _, err := readSnapshot(mk()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSnapshotRejectsShortInflTable guards the time-aware parameter
// table: a file whose CRC is valid but whose influenceability array does
// not cover the declared universe must be refused at load, not let
// through to panic on the first Gamma evaluation.
func TestSnapshotRejectsShortInflTable(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 71, 30, 16)
	e.credit.(*TimeAwareCredit).infl = e.credit.(*TimeAwareCredit).infl[:1]
	data := writeSnapshot(t, e, lin)
	_, err := readSnapshot(data)
	if err == nil {
		t.Fatal("snapshot with a short influenceability table accepted")
	}
}

// TestSnapshotSeedPrefixRoundTrip pins the version-2 seed-prefix section:
// a prefix computed by CELF survives a save/load round trip bit-exact,
// the encoding stays unique (re-save reproduces the file byte for byte),
// and structurally invalid prefixes are refused by writer and reader
// alike.
func TestSnapshotSeedPrefixRoundTrip(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 83, 50, 30)
	sel := seedsel.CELF(NewProbe(e).Estimator(nil), 6)
	prefix := &SeedPrefix{Seeds: sel.Seeds, Gains: sel.Gains, LookupsAt: sel.LookupsAt}

	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf, lin, prefix, nil); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	data := buf.Bytes()

	sf, err := readSnapshot(data)
	if err != nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	back, backLin, backPrefix := sf.Engine, sf.Lineage, sf.Prefix
	if backPrefix == nil {
		t.Fatal("prefix did not survive the round trip")
	}
	if len(backPrefix.Seeds) != len(prefix.Seeds) {
		t.Fatalf("prefix length %d, want %d", len(backPrefix.Seeds), len(prefix.Seeds))
	}
	for i := range prefix.Seeds {
		if backPrefix.Seeds[i] != prefix.Seeds[i] || backPrefix.Gains[i] != prefix.Gains[i] ||
			backPrefix.LookupsAt[i] != prefix.LookupsAt[i] {
			t.Fatalf("prefix diverged at %d: (%d, %b, %d) vs (%d, %b, %d)", i,
				backPrefix.Seeds[i], backPrefix.Gains[i], backPrefix.LookupsAt[i],
				prefix.Seeds[i], prefix.Gains[i], prefix.LookupsAt[i])
		}
	}
	requireEnginesBitIdentical(t, e, back, 6)

	var again bytes.Buffer
	if err := back.WriteSnapshot(&again, backLin, backPrefix, nil); err != nil {
		t.Fatalf("re-serialize: %v", err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatal("re-serialized prefixed snapshot is not byte-identical")
	}

	// Every truncation and bit flip of the prefixed file is still refused.
	for i := len(data) - 150; i < len(data); i++ {
		if i < 0 {
			continue
		}
		if _, err := readSnapshot(data[:i]); err == nil {
			t.Fatalf("truncation at byte %d/%d accepted", i, len(data))
		}
	}
	for i := len(data) - 150; i < len(data); i += 3 {
		if i < 0 {
			continue
		}
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0x20
		if _, err := readSnapshot(corrupt); err == nil {
			t.Fatalf("bit flip at byte %d/%d accepted", i, len(data))
		}
	}

	// Writer-side validation mirrors the reader's rules.
	badPrefixes := map[string]*SeedPrefix{
		"length mismatch": {Seeds: sel.Seeds, Gains: sel.Gains[:3], LookupsAt: sel.LookupsAt},
		"out of range":    {Seeds: []graph.NodeID{99999}, Gains: []float64{1}, LookupsAt: []int64{1}},
		"duplicate":       {Seeds: []graph.NodeID{2, 2}, Gains: []float64{2, 1}, LookupsAt: []int64{1, 2}},
		"nan gain":        {Seeds: []graph.NodeID{2}, Gains: []float64{math.NaN()}, LookupsAt: []int64{1}},
		"lookups decrease": {Seeds: []graph.NodeID{2, 3}, Gains: []float64{2, 1},
			LookupsAt: []int64{5, 4}},
	}
	for name, bad := range badPrefixes {
		if err := e.WriteSnapshot(&bytes.Buffer{}, lin, bad, nil); err == nil {
			t.Errorf("writer accepted prefix with %s", name)
		}
	}
}

// Versions 1 and 2 are the pre-mmap layouts no open reads any more:
// version 2 has packed 12-byte cells, the prefix after the shards, and no
// header CRC or base section; version 1 is version 2 minus the
// seed-prefix section.
const (
	legacyVersionNoPrefix = 1
	legacyVersionNoBase   = 2
)

// writeSnapshotV2 writes the version-2 format, the source of genuine
// old-format files for the tests that pin their refusal.
func writeSnapshotV2(w io.Writer, e *Engine, lin Lineage, prefix *SeedPrefix) error {
	if err := e.checkSnapshotArgs(lin, prefix); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	sw := &snapWriter{w: bw}
	if err := writeSnapshotHeader(sw, e, lin, legacyVersionNoBase); err != nil {
		return err
	}

	for _, st := range e.uc {
		nRows := len(st.dir)
		sw.u32(uint32(nRows))
		sw.u32(uint32(st.entryCount()))
		for ri := 0; ri < nRows; ri++ {
			row := st.rowAt(ri)
			sw.u32(uint32(st.dir[ri].key))
			sw.u32(uint32(len(row)))
			need := len(row) * 12
			if cap(sw.buf) < need {
				sw.buf = make([]byte, need)
			}
			b := sw.buf[:need]
			for i, en := range row {
				binary.LittleEndian.PutUint32(b[i*12:], uint32(en.u))
				binary.LittleEndian.PutUint64(b[i*12+4:], math.Float64bits(en.c))
			}
			sw.bytes(b)
		}
	}

	writeSeedPrefixSection(sw, prefix)
	sw.footer()
	if sw.err != nil {
		return fmt.Errorf("core: write snapshot: %w", sw.err)
	}
	return bw.Flush()
}

// craftVersion1 rewrites legacy version-2 bytes as the version-1 layout:
// patch the version field, drop the 4-byte empty prefix section before the
// footer, recompute the CRC. The input must carry no seed prefix.
func craftVersion1(v2 []byte) []byte {
	v1 := append([]byte(nil), v2[:len(v2)-8]...)
	binary.LittleEndian.PutUint32(v1[len(snapshotMagic):], legacyVersionNoPrefix)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(v1))
	return append(v1, crc[:]...)
}

// TestSnapshotVersion3StillReads pins backward compatibility with the
// sketchless version-3 layout: a sectionless write still stamps version 3
// (not 5) so pre-sketch readers keep working, and the sketch-aware reader
// loads such files with the prefix intact and a nil sketch.
func TestSnapshotVersion3StillReads(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 97, 30, 16)
	sel := seedsel.CELF(NewProbe(e).Estimator(nil), 4)
	prefix := &SeedPrefix{Seeds: sel.Seeds, Gains: sel.Gains, LookupsAt: sel.LookupsAt}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf, lin, prefix, nil); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	v3 := buf.Bytes()
	if v := binary.LittleEndian.Uint32(v3[len(snapshotMagic):]); v != snapshotVersion {
		t.Fatalf("sketchless writer stamped version %d, want %d", v, snapshotVersion)
	}

	sf, err := readSnapshot(v3)
	if err != nil {
		t.Fatalf("version-3 read: %v", err)
	}
	back, backLin, backPrefix, sketch := sf.Engine, sf.Lineage, sf.Prefix, sf.Sketch
	if sketch != nil {
		t.Fatal("version-3 file produced an RR sketch")
	}
	if backLin != lin {
		t.Fatalf("lineage %+v, want %+v", backLin, lin)
	}
	if backPrefix == nil {
		t.Fatal("version-3 file lost its seed prefix")
	}
	for i := range prefix.Seeds {
		if backPrefix.Seeds[i] != prefix.Seeds[i] || backPrefix.Gains[i] != prefix.Gains[i] ||
			backPrefix.LookupsAt[i] != prefix.LookupsAt[i] {
			t.Fatalf("prefix entry %d changed: %+v vs %+v", i, backPrefix, prefix)
		}
	}
	requireEnginesBitIdentical(t, e, back, 6)
}

// TestSnapshotVersion4StillReads pins backward compatibility with the
// version-4 partition-slice layout: a full-range slice loads through the
// generic reader as a complete engine, prefix intact, nil sketch (slices
// never carry one).
func TestSnapshotVersion4StillReads(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 101, 30, 16)
	sel := seedsel.CELF(NewProbe(e).Estimator(nil), 4)
	prefix := &SeedPrefix{Seeds: sel.Seeds, Gains: sel.Gains, LookupsAt: sel.LookupsAt}
	var buf bytes.Buffer
	if err := e.WriteSlice(&buf, lin, prefix, 0, e.NumNodes()); err != nil {
		t.Fatalf("WriteSlice: %v", err)
	}
	v4 := buf.Bytes()
	if v := binary.LittleEndian.Uint32(v4[len(snapshotMagic):]); v != snapshotVersionSlice {
		t.Fatalf("slice writer stamped version %d, want %d", v, snapshotVersionSlice)
	}

	sf, err := readSnapshot(v4)
	if err != nil {
		t.Fatalf("version-4 read: %v", err)
	}
	back, backLin, backPrefix, sketch := sf.Engine, sf.Lineage, sf.Prefix, sf.Sketch
	if sketch != nil {
		t.Fatal("version-4 slice produced an RR sketch")
	}
	if backLin != lin {
		t.Fatalf("lineage %+v, want %+v", backLin, lin)
	}
	if backPrefix == nil {
		t.Fatal("version-4 slice lost its seed prefix")
	}
	for i := range prefix.Seeds {
		if backPrefix.Seeds[i] != prefix.Seeds[i] || backPrefix.Gains[i] != prefix.Gains[i] ||
			backPrefix.LookupsAt[i] != prefix.LookupsAt[i] {
			t.Fatalf("prefix entry %d changed: %+v vs %+v", i, backPrefix, prefix)
		}
	}
	requireEnginesBitIdentical(t, e, back, 6)
}

// TestSnapshotUnsupportedVersionError pins the error an operator sees on
// a file from a future format: it names the found version and the full
// supported range, in both the parsing and the mapped reader.
func TestSnapshotUnsupportedVersionError(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 103, 20, 10)
	data := writeSnapshot(t, e, lin)
	future := append([]byte(nil), data[:len(data)-4]...)
	binary.LittleEndian.PutUint32(future[len(snapshotMagic):], 99)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(future))
	future = append(future, crc[:]...)

	_, err := readSnapshot(future)
	if err == nil {
		t.Fatal("version-99 file accepted")
	}
	for _, sub := range []string{"unsupported version 99", "3 through 6", "credist learn -o"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("read error %q missing %q", err, sub)
		}
	}

	path := filepath.Join(t.TempDir(), "future.bin")
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSnapshot(path, true)
	if err == nil {
		t.Fatal("mapped open accepted a version-99 file")
	}
	for _, sub := range []string{"unsupported version 99", "3 through 6", "credist learn -o"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("mapped open error %q missing %q", err, sub)
		}
	}
}

// TestHashStability pins that the lineage hashes react to content, not
// representation.
func TestHashStability(t *testing.T) {
	rng := rand.New(rand.NewPCG(67, 76))
	g, log := randomInstance(rng, 40, 20)
	if HashGraph(g) != HashGraph(g) || HashLogPrefix(log, 10) != HashLogPrefix(log, 10) {
		t.Fatal("hashes are not deterministic")
	}
	if HashLogPrefix(log, 10) == HashLogPrefix(log, 11) {
		t.Error("log hash ignores the prefix length")
	}
	// The prefix hash of a prefix-restricted log matches the full log's.
	if HashLogPrefix(log.Prefix(10), 10) != HashLogPrefix(log, 10) {
		t.Error("prefix hash differs between Prefix view and full log")
	}
}

// TestReadSnapshotRejectsStrayTau: a tau edge with an endpoint outside the
// influenceability table is refused. No real tau edge has one (every tau
// edge is a graph edge, and the table covers the graph), and the delay
// rows are sized by the table, never by an endpoint read from the file.
func TestReadSnapshotRejectsStrayTau(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 23))
	g, log := randomInstance(rng, 15, 6)
	e := NewEngine(g, log, Options{Lambda: 0.001, Credit: withStrayTau(LearnTimeAware(g, log))})
	data := writeSnapshot(t, e, DatasetLineage("stray", g, log))
	if _, err := readSnapshot(data); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("stray tau edge: error %v, want an outside-the-table error", err)
	}
}
