package core

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"credist/internal/graph"
)

// joinedSlices returns full itself when nparts is 1, and otherwise the
// engine JoinRows reassembles from nparts (capped at the universe size)
// near-even version-4 slices of full, each written and read back.
func joinedSlices(t *testing.T, full *Engine, nparts int) *Engine {
	t.Helper()
	n := full.NumNodes()
	nparts = min(nparts, n)
	if nparts <= 1 {
		return full
	}
	lin := Lineage{Dataset: "slices", NumUsers: n, NumActions: full.NumActions()}
	parts := make([]*Engine, nparts)
	for i := range parts {
		parts[i] = readSlice(t, full, lin, nil, i*n/nparts, (i+1)*n/nparts)
	}
	return JoinRows(parts)
}

// readSlice writes e's rows [lo, hi) as a version-4 slice and reads the
// engine back from the bytes.
func readSlice(t *testing.T, e *Engine, lin Lineage, prefix *SeedPrefix, lo, hi int) *Engine {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteSlice(&buf, lin, prefix, lo, hi); err != nil {
		t.Fatalf("WriteSlice(%d,%d): %v", lo, hi, err)
	}
	sf, err := readSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("read slice [%d,%d): %v", lo, hi, err)
	}
	return sf.Engine
}

// TestSliceGainParity pins the heart of the partition design: a slice
// read back prices each of its rows bit-identically to the full engine,
// its entries are the full engine's RowFootprint over its range, the
// ranges' footprints tile the engine's totals, and a probe over the
// engine joined from the slices prices every row exactly like the
// in-place commit oracle after each commit.
func TestSliceGainParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 17))
	g, log := randomInstance(rng, 50, 30)
	full := NewEngine(g, log, Options{Lambda: 0.001})
	lin := DatasetLineage("slice-parity", g, log)

	bounds := []int{0, 13, 14, 37, 50}
	var parts []*Engine
	var entries, heap int64
	for i := 1; i < len(bounds); i++ {
		lo, hi := bounds[i-1], bounds[i]
		p := readSlice(t, full, lin, nil, lo, hi)
		n, h, m := full.RowFootprint(lo, hi)
		if p.Entries() != n || m != 0 {
			t.Fatalf("slice [%d,%d): %d entries, footprint %d entries and %d mapped bytes", lo, hi, p.Entries(), n, m)
		}
		for x := lo; x < hi; x++ {
			if got, want := NewProbe(p).Gain(graph.NodeID(x), nil), NewProbe(full).Gain(graph.NodeID(x), nil); got != want {
				t.Fatalf("slice [%d,%d) Gain(%d) = %b, full %b", lo, hi, x, got, want)
			}
		}
		entries, heap = entries+n, heap+h
		parts = append(parts, p)
	}
	if entries != full.Entries() || heap != full.HeapBytes() {
		t.Fatalf("footprints sum to %d entries/%d heap bytes, full %d/%d", entries, heap, full.Entries(), full.HeapBytes())
	}

	// Commit two seeds from different slices to a probe over the joined
	// engine and keep checking against the oracle committing in place.
	pr := NewProbe(JoinRows(parts))
	ref := newCommitOracle(full)
	for _, seed := range []graph.NodeID{3, 41} {
		pr.Commit(seed, nil)
		ref.Add(seed)
		for x := 0; x < full.NumNodes(); x++ {
			if got, want := pr.Gain(graph.NodeID(x), nil), ref.Gain(graph.NodeID(x)); got != want {
				t.Fatalf("after committing %v: probe Gain(%d) = %b, the oracle %b", pr.Seeds(), x, got, want)
			}
		}
	}
}

func TestSliceErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 4))
	g, log := randomInstance(rng, 20, 8)
	e := NewEngine(g, log, Options{})
	lin := DatasetLineage("slice-errors", g, log)

	for _, r := range [][2]int{{-1, 10}, {5, 25}, {12, 5}} {
		if err := e.WriteSlice(&bytes.Buffer{}, lin, nil, r[0], r[1]); err == nil || !strings.Contains(err.Error(), "outside the universe") {
			t.Fatalf("WriteSlice(%d,%d): %v", r[0], r[1], err)
		}
	}
	if err := e.WriteSlice(&bytes.Buffer{}, lin, nil, 20, 20); err != nil {
		t.Fatalf("empty trailing range: %v", err)
	}
}

// TestSnapshotSliceRoundTrip proves the version-4 slice format carries a
// row range faithfully through both loaders: range, entries, and gains
// are bit-identical to the full engine's over the range, and re-encoding
// the loaded slice reproduces the file byte for byte (the rule the
// snapshot fuzzer enforces on arbitrary inputs).
func TestSnapshotSliceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 12))
	g, log := randomInstance(rng, 40, 25)
	credit := LearnTimeAware(g, log)
	full := NewEngine(g, log, Options{Lambda: 0.001, Credit: credit})
	lin := DatasetLineage("slice-roundtrip", g, log)

	const lo, hi = 11, 29
	var buf bytes.Buffer
	if err := full.WriteSlice(&buf, lin, nil, lo, hi); err != nil {
		t.Fatalf("WriteSlice: %v", err)
	}
	raw := buf.Bytes()

	path := filepath.Join(t.TempDir(), "slice.bin")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	wantEntries, _, _ := full.RowFootprint(lo, hi)

	for _, mmap := range []bool{false, true} {
		sf := openSnapshot(t, path, mmap)
		eng := sf.Engine
		if !sf.Slice || sf.RowLo != lo || sf.RowHi != hi {
			t.Fatalf("mmap=%t: slice %t rows [%d,%d), want a slice of [%d,%d)", mmap, sf.Slice, sf.RowLo, sf.RowHi, lo, hi)
		}
		if eng.NumNodes() != full.NumNodes() {
			t.Fatalf("mmap=%t: universe %d, want %d", mmap, eng.NumNodes(), full.NumNodes())
		}
		if eng.Entries() != wantEntries {
			t.Fatalf("mmap=%t: entries %d, want %d", mmap, eng.Entries(), wantEntries)
		}
		for x := lo; x < hi; x++ {
			if got, want := NewProbe(eng).Gain(graph.NodeID(x), nil), NewProbe(full).Gain(graph.NodeID(x), nil); got != want {
				t.Fatalf("mmap=%t: Gain(%d) = %b, want %b", mmap, x, got, want)
			}
		}
		// The byte-identical re-encode rule, extended to slices: a loaded
		// slice re-encodes at its own range.
		var re bytes.Buffer
		if err := eng.WriteSlice(&re, lin, nil, sf.RowLo, sf.RowHi); err != nil {
			t.Fatalf("mmap=%t: re-encode: %v", mmap, err)
		}
		if !bytes.Equal(re.Bytes(), raw) {
			t.Fatalf("mmap=%t: re-encoded slice differs from original (%d vs %d bytes)", mmap, re.Len(), len(raw))
		}
	}
}

// TestSnapshotSliceWriterRejections: the slice writer refuses a lineage
// that does not describe the engine, as the whole-model writer does, and
// stamps version 4 even over the full range, which loads as a slice while
// the whole-model writer keeps emitting version 3.
func TestSnapshotSliceWriterRejections(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 3))
	g, log := randomInstance(rng, 30, 10)
	full := NewEngine(g, log, Options{})
	lin := DatasetLineage("slice-rejects", g, log)

	bad := lin
	bad.NumActions++
	if err := full.WriteSlice(&bytes.Buffer{}, bad, nil, 5, 15); err == nil || !strings.Contains(err.Error(), "lineage") {
		t.Fatalf("slice under a foreign lineage: %v", err)
	}
	var buf bytes.Buffer
	if err := full.WriteSlice(&buf, lin, nil, 5, 15); err != nil {
		t.Fatalf("WriteSlice: %v", err)
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[len(snapshotMagic):]); v != snapshotVersionSlice {
		t.Fatalf("slice writer stamped version %d, want %d", v, snapshotVersionSlice)
	}

	var v3, v4 bytes.Buffer
	if err := full.WriteSnapshot(&v3, lin, nil, nil); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := full.WriteSlice(&v4, lin, nil, 0, full.NumNodes()); err != nil {
		t.Fatalf("WriteSlice(full range): %v", err)
	}
	if bytes.Equal(v3.Bytes(), v4.Bytes()) {
		t.Fatalf("v3 and v4 encodings are byte-identical; version bump missing")
	}
	sf, err := readSnapshot(v4.Bytes())
	if err != nil {
		t.Fatalf("read full-range slice: %v", err)
	}
	if !sf.Slice {
		t.Fatalf("full-range slice did not load as a slice")
	}
}

// TestJoinedSlicesWriteTheModelFile: the engine joined from slices tiling
// the universe, read heap or mapped, writes the whole-model file its
// source engine writes, byte for byte, with a seed prefix and an RR
// sketch riding along.
func TestJoinedSlicesWriteTheModelFile(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 9))
	g, log := randomInstance(rng, 30, 12)
	full := NewEngine(g, log, Options{Lambda: 0.001})
	lin := DatasetLineage("whole-of-parts", g, log)
	prefix := &SeedPrefix{Seeds: []graph.NodeID{3}, Gains: []float64{1.5}, LookupsAt: []int64{30}}
	sketch := &RRSketch{Seed: 1, Roots: 1, Offs: []int32{0, 1}, Nodes: []int32{0}}

	var want bytes.Buffer
	if err := full.WriteSnapshot(&want, lin, prefix, sketch); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	for _, bounds := range [][]int{{0, 30}, {0, 7, 22, 30}} {
		for _, mmap := range []bool{false, true} {
			var parts []*Engine
			for i := 1; i < len(bounds); i++ {
				var buf bytes.Buffer
				if err := full.WriteSlice(&buf, lin, prefix, bounds[i-1], bounds[i]); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(t.TempDir(), "slice.bin")
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				parts = append(parts, openSnapshot(t, path, mmap).Engine)
			}
			var got bytes.Buffer
			if err := JoinRows(parts).WriteSnapshot(&got, lin, prefix, sketch); err != nil {
				t.Fatalf("bounds %v mmap=%t: %v", bounds, mmap, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("bounds %v mmap=%t: %d bytes differ from the full engine's %d", bounds, mmap, got.Len(), want.Len())
			}
		}
	}
}
