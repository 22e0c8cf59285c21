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

// TestSliceGainParity pins the heart of the partition design: a slice's
// Gain over its own rows is bit-identical to the full engine's, and a
// probe over the slices prices every row exactly like the in-place commit
// oracle after each commit; entry counts tile exactly, and commits leave
// them alone.
func TestSliceGainParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 17))
	g, log := randomInstance(rng, 50, 30)
	full := NewEngine(g, log, Options{Lambda: 0.001})

	bounds := []int{0, 13, 14, 37, 50}
	var parts []*Engine
	var total int64
	for i := 1; i < len(bounds); i++ {
		p, err := full.Slice(bounds[i-1], bounds[i])
		if err != nil {
			t.Fatalf("Slice(%d,%d): %v", bounds[i-1], bounds[i], err)
		}
		if !p.IsPartition() {
			t.Fatalf("slice is not a partition")
		}
		total += p.Entries()
		parts = append(parts, p)
	}
	if total != full.Entries() {
		t.Fatalf("partition entries sum %d, full %d", total, full.Entries())
	}

	for _, p := range parts {
		lo, hi := p.PartitionRange()
		for x := lo; x < hi; x++ {
			if got, want := NewProbe(p).Gain(graph.NodeID(x), nil), NewProbe(full).Gain(graph.NodeID(x), nil); got != want {
				t.Fatalf("partition [%d,%d) Gain(%d) = %b, full %b", lo, hi, x, got, want)
			}
		}
	}

	// Commit two seeds from different partitions to a probe over the
	// slices and keep checking against the oracle committing in place.
	pr := NewProbe(parts...)
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
	total = 0
	for _, p := range parts {
		total += p.Entries()
	}
	if total != full.Entries() || ref.Entries() >= full.Entries() {
		t.Fatalf("post-commit entries: partitions sum %d, full %d, oracle %d", total, full.Entries(), ref.Entries())
	}
}

func TestSliceErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 4))
	g, log := randomInstance(rng, 20, 8)
	e := NewEngine(g, log, Options{})

	if _, err := e.Slice(-1, 10); err == nil || !strings.Contains(err.Error(), "outside the universe") {
		t.Fatalf("negative lo: %v", err)
	}
	if _, err := e.Slice(5, 25); err == nil || !strings.Contains(err.Error(), "outside the universe") {
		t.Fatalf("hi beyond universe: %v", err)
	}
	if _, err := e.Slice(12, 5); err == nil {
		t.Fatalf("inverted range accepted")
	}
	p, err := e.Slice(0, 10)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if _, err := p.Slice(0, 5); err == nil || !strings.Contains(err.Error(), "partition") {
		t.Fatalf("slicing a partition: %v", err)
	}
	// Partitioning a planner that holds seeds is refused by the planner
	// (credist's TestPartitionAfterAddRejected): engines hold no seeds.
}

func TestPartitionRejectsForeignRows(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 6))
	g, log := randomInstance(rng, 20, 8)
	e := NewEngine(g, log, Options{})
	p, err := e.Slice(5, 12)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	for _, fn := range []struct {
		name string
		call func()
	}{
		{"probe Gain below the range", func() { NewProbe(p).Gain(2, nil) }},
		{"probe ExplainSeed", func() { NewProbe(p).ExplainSeed(15, 3) }},
		{"probe ExplainReach", func() { NewProbe(p).ExplainReach([]graph.NodeID{15}, 2, 3) }},
		{"probe Gain", func() { NewProbe(p).Gain(15, nil) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a foreign row did not panic", fn.name)
				}
			}()
			fn.call()
		}()
	}
}

// TestSnapshotSliceRoundTrip proves the version-4 slice format carries a
// partition faithfully through both loaders: range, entries, and gains
// are bit-identical to a fresh in-memory slice, and re-encoding the
// loaded slice reproduces the file byte for byte (the rule the snapshot
// fuzzer enforces on arbitrary inputs).
func TestSnapshotSliceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 12))
	g, log := randomInstance(rng, 40, 25)
	credit := LearnTimeAware(g, log)
	full := NewEngine(g, log, Options{Lambda: 0.001, Credit: credit})
	lin := DatasetLineage("slice-roundtrip", g, log)

	const lo, hi = 11, 29
	ref, err := full.Slice(lo, hi)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}

	var buf bytes.Buffer
	if err := ref.WriteSnapshot(&buf, lin, nil, nil); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	raw := buf.Bytes()

	path := filepath.Join(t.TempDir(), "slice.bin")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	heapEng := openSnapshot(t, path, false).Engine
	mapEng := openSnapshot(t, path, true).Engine

	for name, eng := range map[string]*Engine{"heap": heapEng, "mmap": mapEng} {
		if !eng.IsPartition() {
			t.Fatalf("%s: loaded slice is not a partition", name)
		}
		if l, h := eng.PartitionRange(); l != lo || h != hi {
			t.Fatalf("%s: range [%d,%d), want [%d,%d)", name, l, h, lo, hi)
		}
		if eng.NumNodes() != full.NumNodes() {
			t.Fatalf("%s: universe %d, want %d", name, eng.NumNodes(), full.NumNodes())
		}
		if eng.Entries() != ref.Entries() {
			t.Fatalf("%s: entries %d, want %d", name, eng.Entries(), ref.Entries())
		}
		for x := lo; x < hi; x++ {
			if got, want := NewProbe(eng).Gain(graph.NodeID(x), nil), NewProbe(ref).Gain(graph.NodeID(x), nil); got != want {
				t.Fatalf("%s: Gain(%d) = %b, want %b", name, x, got, want)
			}
		}
		// The byte-identical re-encode rule, extended to slices: a loaded
		// partition re-encodes as a slice at its own range.
		var re bytes.Buffer
		if err := eng.WriteSnapshot(&re, lin, nil, nil); err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(re.Bytes(), raw) {
			t.Fatalf("%s: re-encoded slice differs from original (%d vs %d bytes)", name, re.Len(), len(raw))
		}
	}
}

func TestSnapshotSliceWriterRejections(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 3))
	g, log := randomInstance(rng, 30, 10)
	full := NewEngine(g, log, Options{})
	lin := DatasetLineage("slice-rejects", g, log)

	p, err := full.Slice(5, 15)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	// A partition engine holds only its own rows, and the RR sketch spans
	// the whole universe: a slice refuses it.
	var buf bytes.Buffer
	sketch := &RRSketch{Seed: 1, Roots: 1, Offs: []int32{0, 1}, Nodes: []int32{0}}
	if err := p.WriteSnapshot(&buf, lin, nil, sketch); err == nil || !strings.Contains(err.Error(), "partition") {
		t.Fatalf("slice with an RR sketch: %v", err)
	}
	buf.Reset()
	if err := p.WriteSnapshot(&buf, lin, nil, nil); err != nil {
		t.Fatalf("partition writing its own range: %v", err)
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[len(snapshotMagic):]); v != snapshotVersionSlice {
		t.Fatalf("partition wrote version %d, want %d", v, snapshotVersionSlice)
	}

	// Full snapshots are untouched by the slice format: a full engine
	// sliced to [0, numUsers) still writes a version-4 file, while the
	// full engine keeps emitting version 3.
	whole, err := full.Slice(0, full.NumNodes())
	if err != nil {
		t.Fatalf("Slice(full range): %v", err)
	}
	var v3, v4 bytes.Buffer
	if err := full.WriteSnapshot(&v3, lin, nil, nil); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := whole.WriteSnapshot(&v4, lin, nil, nil); err != nil {
		t.Fatalf("WriteSnapshot(full-range slice): %v", err)
	}
	if bytes.Equal(v3.Bytes(), v4.Bytes()) {
		t.Fatalf("v3 and v4 encodings are byte-identical; version bump missing")
	}
	sf, err := readSnapshot(v4.Bytes())
	if err != nil {
		t.Fatalf("read full-range slice: %v", err)
	}
	if !sf.Engine.IsPartition() {
		t.Fatalf("full-range slice did not load as a partition")
	}
}
