package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"credist/internal/graph"
)

// The legacy version-6 fixture was written by the last writer that
// emitted version 6: the engine of snapshotInstance(t, 83, 24, 10), its
// 3-seed CELF prefix, a 12-sample RR sketch, and the inverted provenance
// section over every credit cell. legacy-v6-as-v5.snap is the same state
// written without that section, and legacy-v6-answers.json holds that
// writer's Gain, ExplainSeed and ExplainReach answers on the opened file
// (reach answered from the stored section, the way a restored model
// answered it).
const (
	legacyV6Path      = "testdata/legacy-v6.snap"
	legacyV6AsV5Path  = "testdata/legacy-v6-as-v5.snap"
	legacyAnswersPath = "testdata/legacy-v6-answers.json"
)

// legacyAnswers mirrors legacy-v6-answers.json. Reach[i][v] explains the
// credit ReachSeeds[i] push onto v with top 5; ProbeReach is the same
// against a probe holding the file's prefix seeds as commits.
type legacyAnswers struct {
	Gains      []float64
	Seeds      []SeedExplanation
	ReachSeeds [][]graph.NodeID
	Reach      [][]ReachExplanation
	ProbeReach [][]ReachExplanation
}

// legacyV6 is the fixture's bytes with its section offsets: the flags
// byte, the provenance section (right after the sketch), and the header
// CRC (right after the provenance section).
type legacyV6 struct {
	data                         []byte
	numUsers                     int
	flagsOff, provOff, hdrCRCOff int
}

// readLegacyV6 reads the fixture and locates its sections by replaying
// the header parse.
func readLegacyV6(tb testing.TB) legacyV6 {
	tb.Helper()
	data, err := os.ReadFile(legacyV6Path)
	if err != nil {
		tb.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[len(snapshotMagic):]); v != snapshotVersionProv {
		tb.Fatalf("fixture has version %d, want %d", v, snapshotVersionProv)
	}
	sc := &snapCursor{b: data[:len(data)-4], off: len(snapshotMagic) + 4}
	lin, lambda, credit, err := parseSnapshotHeader(sc)
	if err != nil {
		tb.Fatal(err)
	}
	if err := parseUsers(sc, lin, newSnapshotEngine(lin, lambda, credit)); err != nil {
		tb.Fatal(err)
	}
	if _, err := parseSeedPrefix(sc, lin.NumUsers); err != nil {
		tb.Fatal(err)
	}
	f := legacyV6{data: data, numUsers: lin.NumUsers, flagsOff: sc.off}
	if sc.u8() != provFlagProv|provFlagSketch {
		tb.Fatal("fixture does not carry both the sketch and the provenance section")
	}
	if _, err := parseSketchSection(sc, lin.NumUsers); err != nil {
		tb.Fatal(err)
	}
	f.provOff = sc.off
	if err := skipProvSection(sc, lin.NumUsers, lin.NumActions); err != nil {
		tb.Fatal(err)
	}
	f.hdrCRCOff = sc.off
	return f
}

// mutated returns a copy of the fixture changed by mut, with the header
// CRC and the footer recomputed so only the structural validators can
// reject it.
func (f legacyV6) mutated(mut func(b []byte)) []byte {
	b := bytes.Clone(f.data)
	mut(b)
	binary.LittleEndian.PutUint32(b[f.hdrCRCOff:], crc32.ChecksumIEEE(b[:f.hdrCRCOff]))
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

// withoutSketch rebuilds the fixture as a version-6 file carrying only
// the provenance section: the header shrinks, so the (position-
// independent) base section moves to the next 8-aligned offset.
func (f legacyV6) withoutSketch() []byte {
	out := append([]byte(nil), f.data[:f.flagsOff]...)
	out = append(out, provFlagProv)
	out = append(out, f.data[f.provOff:f.hdrCRCOff]...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	for len(out)%8 != 0 {
		out = append(out, 0)
	}
	baseOff := (f.hdrCRCOff + 4 + 7) &^ 7
	out = append(out, f.data[baseOff:len(f.data)-4]...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestSnapshotProvRoundTrip: a legacy version-6 snapshot opens on the
// heap, mapped and through the non-aliasing fallback with the same
// shards, prefix and sketch, and re-saves as its provless equivalent —
// the fixture as the version-5 file its writer produced without the
// section, a sketchless version-6 file as version 3.
func TestSnapshotProvRoundTrip(t *testing.T) {
	f := readLegacyV6(t)
	v5, err := os.ReadFile(legacyV6AsV5Path)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := readSnapshot(v5)
	if err != nil {
		t.Fatalf("open the version-5 twin: %v", err)
	}
	heap, err := readSnapshot(f.data)
	if err != nil {
		t.Fatalf("heap open: %v", err)
	}
	copied, err := parseSnapshot(f.data, false, false)
	if err != nil {
		t.Fatalf("non-aliasing parse: %v", err)
	}
	for name, sf := range map[string]*SnapshotFile{
		"heap": heap, "mapped": openSnapshot(t, legacyV6Path, true), "copied": copied,
	} {
		requireSameShards(t, twin.Engine, sf.Engine)
		if sf.Sketch == nil || !reflect.DeepEqual(sf.Sketch, twin.Sketch) || !reflect.DeepEqual(sf.Prefix, twin.Prefix) {
			t.Fatalf("%s: prefix or sketch differs from the version-5 twin's", name)
		}
		var out bytes.Buffer
		if err := sf.Engine.WriteSnapshot(&out, sf.Lineage, sf.Prefix, sf.Sketch); err != nil {
			t.Fatalf("%s: re-save: %v", name, err)
		}
		if !bytes.Equal(out.Bytes(), v5) {
			t.Fatalf("%s: re-save is not the version-5 twin (%d vs %d bytes)", name, out.Len(), len(v5))
		}
	}

	provOnly, err := readSnapshot(f.withoutSketch())
	if err != nil {
		t.Fatalf("sketchless version-6 file: %v", err)
	}
	if provOnly.Sketch != nil {
		t.Fatal("sketchless version-6 file restored a sketch")
	}
	requireSameShards(t, twin.Engine, provOnly.Engine)
	var out, v3 bytes.Buffer
	if err := provOnly.Engine.WriteSnapshot(&out, provOnly.Lineage, provOnly.Prefix, nil); err != nil {
		t.Fatal(err)
	}
	if err := twin.Engine.WriteSnapshot(&v3, twin.Lineage, twin.Prefix, nil); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(out.Bytes()[len(snapshotMagic):]); v != snapshotVersion || !bytes.Equal(out.Bytes(), v3.Bytes()) {
		t.Fatalf("sketchless version-6 file re-saves as version %d, not the version-3 file", v)
	}
}

// TestSnapshotProvRejects covers the version-6 reject paths: stray or
// missing flag bits and structural violations inside the provenance
// section, all CRC-refreshed so the structural validators do the
// rejecting, on the heap open and the mapped open's parse alike.
func TestSnapshotProvRejects(t *testing.T) {
	f := readLegacyV6(t)
	p := f.provOff // u32 pair count, then the first pair: v, u, n, action, credit
	cases := []struct {
		name string
		mut  func(b []byte)
		want string
	}{
		{"prov bit clear", func(b []byte) { b[f.flagsOff] = provFlagSketch }, "provenance bit"},
		{"stray flag bit", func(b []byte) { b[f.flagsOff] |= 1 << 6 }, "stray bits"},
		{"zero pairs", func(b []byte) { binary.LittleEndian.PutUint32(b[p:], 0) }, "empty provenance section"},
		{"pair out of universe", func(b []byte) { binary.LittleEndian.PutUint32(b[p+4:], 1<<20) }, "universe"},
		{"pairs out of order", func(b []byte) { binary.LittleEndian.PutUint32(b[p+4:], uint32(f.numUsers-1)) }, "out of order"},
		{"pair without entries", func(b []byte) { binary.LittleEndian.PutUint32(b[p+12:], 0) }, "no entries"},
		{"action out of range", func(b []byte) { binary.LittleEndian.PutUint32(b[p+16:], 1<<20) }, "outside"},
		{"credit not finite", func(b []byte) { binary.LittleEndian.PutUint64(b[p+20:], math.Float64bits(math.NaN())) }, "finite"},
		{"credit negative", func(b []byte) { binary.LittleEndian.PutUint64(b[p+20:], math.Float64bits(-1)) }, "positive"},
	}
	for _, c := range cases {
		bad := f.mutated(c.mut)
		if _, err := readSnapshot(bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: heap open err = %v, want mention of %q", c.name, err, c.want)
		}
		if _, err := parseSnapshot(alignedCopy(bad), mappedAliasSupported(), true); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: mapped parse err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestLegacyV6SnapshotAnswers: the fixture, opened on the heap and mapped,
// answers Gain, ExplainSeed and ExplainReach (engine and seeded probe) bit
// for bit as the writer that produced it did. The answers are read from
// the stored cells, not from a fresh scan, whose last bits may differ on
// other platforms. Skipping the provenance section keeps nothing: a
// mapped open allocates what the version-5 twin's does.
func TestLegacyV6SnapshotAnswers(t *testing.T) {
	raw, err := os.ReadFile(legacyAnswersPath)
	if err != nil {
		t.Fatal(err)
	}
	var want legacyAnswers
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		sf := openSnapshot(t, legacyV6Path, mmap)
		e := sf.Engine
		var got legacyAnswers
		for u := 0; u < e.NumNodes(); u++ {
			got.Gains = append(got.Gains, NewProbe(e).Gain(graph.NodeID(u), nil))
			got.Seeds = append(got.Seeds, NewProbe(e).ExplainSeed(graph.NodeID(u), 5))
		}
		got.ReachSeeds = want.ReachSeeds
		pr := NewProbe(e)
		for _, s := range sf.Prefix.Seeds {
			pr.Commit(s, nil)
		}
		for _, seeds := range want.ReachSeeds {
			var row, prow []ReachExplanation
			for v := 0; v < e.NumNodes(); v++ {
				row = append(row, NewProbe(e).ExplainReach(seeds, graph.NodeID(v), 5))
				prow = append(prow, pr.ExplainReach(seeds, graph.NodeID(v), 5))
			}
			got.Reach = append(got.Reach, row)
			got.ProbeReach = append(got.ProbeReach, prow)
		}
		// Round-trip through JSON so empty and nil slices compare alike.
		enc, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		var back legacyAnswers
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("mmap=%t: answers differ from the fixture writer's", mmap)
		}
	}

	if !mappedAliasSupported() {
		return // the fallback copies shards, so allocations track the data
	}
	openAlloc := func(path string) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := OpenSnapshot(path, true)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		return after.TotalAlloc - before.TotalAlloc
	}
	const opens = 30
	var v6, v5 uint64
	for i := 0; i < opens; i++ {
		v6 += openAlloc(legacyV6Path)
		v5 += openAlloc(legacyV6AsV5Path)
	}
	v6, v5 = v6/opens, v5/opens
	if v6 > v5+1<<10 {
		t.Fatalf("mapped open allocates %d B for the version-6 file, %d B for its version-5 twin", v6, v5)
	}
}
