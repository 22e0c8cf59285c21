package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"credist/internal/graph"
	"credist/internal/seedsel"
)

// walkSketch draws count credit-walk samples into a sketch, the same way
// the approximate tier's collector would for a single stripe.
func walkSketch(t *testing.T, src *CreditWalkSource, count int, seed uint64) *RRSketch {
	t.Helper()
	walker := src.NewWalker()
	rng := rand.New(rand.NewPCG(seed, 0x415a))
	sk := &RRSketch{Seed: seed, Roots: src.Roots(), Offs: []int32{0}}
	for i := 0; i < count; i++ {
		sk.Nodes = walker(rng, sk.Nodes)
		sk.Offs = append(sk.Offs, int32(len(sk.Nodes)))
	}
	return sk
}

// sketchOf packs samples into a flat sketch.
func sketchOf(seed uint64, roots int, sets [][]graph.NodeID) *RRSketch {
	sk := &RRSketch{Seed: seed, Roots: roots, Offs: []int32{0}}
	for _, set := range sets {
		sk.Nodes = append(sk.Nodes, set...)
		sk.Offs = append(sk.Offs, int32(len(sk.Nodes)))
	}
	return sk
}

// sets unpacks the sketch's samples, one slice each.
func (sk *RRSketch) sets() [][]graph.NodeID {
	sets := make([][]graph.NodeID, sk.NumSets())
	for j := range sets {
		sets[j] = sk.Nodes[sk.Offs[j]:sk.Offs[j+1]]
	}
	return sets
}

// TestCreditWalkUnbiased is the correctness anchor for the approximate
// tier: the scaled hit fraction of reverse credit walks converges to the
// exact Evaluator.Spread value, for several seed sets including seeds
// that are themselves walk roots and seeds that are not.
func TestCreditWalkUnbiased(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 7))
	g, log := randomInstance(rng, 40, 25)
	credit := LearnTimeAware(g, log)
	ev := NewEvaluator(g, log, credit)
	src, err := ev.CreditWalks()
	if err != nil {
		t.Fatalf("CreditWalks: %v", err)
	}
	if src.NumNodes() != 40 || src.Roots() < 1 || src.Roots() > 40 {
		t.Fatalf("source shape %d nodes / %d roots", src.NumNodes(), src.Roots())
	}

	const samples = 60000
	sk := walkSketch(t, src, samples, 5)
	for _, seeds := range [][]graph.NodeID{
		{0, 1, 2},
		{5, 11, 23, 31},
		seedsel.CELF(NewProbe(NewEngine(g, log, Options{Lambda: 0.001, Credit: credit})).Estimator(nil), 3).Seeds,
	} {
		exact := ev.Spread(seeds, nil)
		inS := make(map[graph.NodeID]bool, len(seeds))
		for _, s := range seeds {
			inS[s] = true
		}
		hits := 0
		for _, set := range sk.sets() {
			for _, v := range set {
				if inS[v] {
					hits++
					break
				}
			}
		}
		p := float64(hits) / float64(samples)
		est := float64(sk.Roots) * p
		// Three-sigma band around the exact value (plus a small absolute
		// floor for near-zero spreads); a biased walker blows straight
		// through this at 60k samples.
		sigma := float64(sk.Roots) * math.Sqrt(p*(1-p)/float64(samples))
		if tol := 3*sigma + 0.05; math.Abs(est-exact) > tol {
			t.Fatalf("seeds %v: walk estimate %g vs exact spread %g (tol %g, hits %d)",
				seeds, est, exact, tol, hits)
		}
	}
}

// TestCreditWalkDeterministic pins that walks are a pure function of the
// rng stream: identical seeds reproduce identical paths.
func TestCreditWalkDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 3))
	g, log := randomInstance(rng, 30, 14)
	ev := NewEvaluator(g, log, LearnTimeAware(g, log))
	src, err := ev.CreditWalks()
	if err != nil {
		t.Fatalf("CreditWalks: %v", err)
	}
	a := walkSketch(t, src, 500, 9)
	b := walkSketch(t, src, 500, 9)
	if !reflect.DeepEqual(a.sets(), b.sets()) {
		t.Fatal("identical seeds produced different walk paths")
	}
	for i, set := range a.sets() {
		if len(set) == 0 {
			t.Fatalf("walk %d returned an empty path", i)
		}
		seen := make(map[graph.NodeID]bool, len(set))
		for _, v := range set {
			if seen[v] {
				t.Fatalf("walk %d revisited node %d", i, v)
			}
			seen[v] = true
		}
	}
}

// TestSnapshotSketchRoundTrip pins the version-5 format: a snapshot
// written with a sketch reads the sketch back bit-identically through
// both the heap open and the mapped open, the engine and prefix are
// untouched, re-encoding is byte-identical, and a sketchless write stays
// byte-identical version-3 (older readers keep working on it).
func TestSnapshotSketchRoundTrip(t *testing.T) {
	g, log, e, lin := snapshotInstance(t, 91, 50, 30)
	sel := seedsel.CELF(NewProbe(e).Estimator(nil), 4)
	prefix := &SeedPrefix{Seeds: sel.Seeds, Gains: sel.Gains, LookupsAt: sel.LookupsAt}
	src, err := NewEvaluator(g, log, e.CreditModel()).CreditWalks()
	if err != nil {
		t.Fatalf("CreditWalks: %v", err)
	}
	sk := walkSketch(t, src, 200, 17)

	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf, lin, prefix, sk); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	data := buf.Bytes()
	if v := binary.LittleEndian.Uint32(data[len(snapshotMagic):]); v != snapshotVersionSketch {
		t.Fatalf("sketch snapshot stamped version %d, want %d", v, snapshotVersionSketch)
	}

	sf, err := readSnapshot(data)
	if err != nil {
		t.Fatalf("heap read: %v", err)
	}
	back, backLin, pfx, got := sf.Engine, sf.Lineage, sf.Prefix, sf.Sketch
	if backLin != lin {
		t.Fatalf("lineage round trip: %+v != %+v", backLin, lin)
	}
	if got == nil || got.Seed != sk.Seed || got.Roots != sk.Roots || !reflect.DeepEqual(got.sets(), sk.sets()) {
		t.Fatal("heap-read sketch differs from the written sketch")
	}
	if pfx == nil || !reflect.DeepEqual(pfx.Seeds, prefix.Seeds) {
		t.Fatalf("seed prefix lost alongside the sketch: %+v", pfx)
	}
	requireEnginesBitIdentical(t, e, back, 6)

	var again bytes.Buffer
	if err := back.WriteSnapshot(&again, backLin, pfx, got); err != nil {
		t.Fatalf("re-serialize: %v", err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatal("re-serialized sketch snapshot is not byte-identical")
	}

	// Mapped open returns the identical sketch.
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mf, err := OpenSnapshot(path, true)
	if err != nil {
		t.Fatalf("mapped open: %v", err)
	}
	defer mf.Close()
	meng, mlin, mpfx, msk := mf.Engine, mf.Lineage, mf.Prefix, mf.Sketch
	if mlin != lin || mpfx == nil || msk == nil {
		t.Fatalf("mapped open dropped a section: lin %+v pfx %v sketch %v", mlin, mpfx != nil, msk != nil)
	}
	if msk.Seed != sk.Seed || msk.Roots != sk.Roots || !reflect.DeepEqual(msk.sets(), sk.sets()) {
		t.Fatal("mapped-read sketch differs from the written sketch")
	}
	requireEnginesBitIdentical(t, e, meng, 6)

	// No sketch attached -> byte-identical version-3 output.
	var plain, viaSketch bytes.Buffer
	if err := e.WriteSnapshot(&plain, lin, prefix, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteSnapshot(&viaSketch, lin, prefix, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), viaSketch.Bytes()) {
		t.Fatal("nil-sketch write diverged from the plain prefix write")
	}
	if v := binary.LittleEndian.Uint32(plain.Bytes()[len(snapshotMagic):]); v != snapshotVersion {
		t.Fatalf("sketchless snapshot stamped version %d, want %d", v, snapshotVersion)
	}
}

// TestSnapshotSketchRejectsCorruption drives both readers with
// structurally invalid sketch sections (CRC-refreshed so the validators,
// not the checksums, do the rejecting) and with writer-side validation.
func TestSnapshotSketchRejectsCorruption(t *testing.T) {
	g, log, e, lin := snapshotInstance(t, 92, 30, 18)
	src, err := NewEvaluator(g, log, e.CreditModel()).CreditWalks()
	if err != nil {
		t.Fatal(err)
	}
	sk := walkSketch(t, src, 20, 3)
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf, lin, nil, sk); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Writer refuses invalid sketches outright.
	for _, bad := range []*RRSketch{
		sketchOf(1, 0, sk.sets()),
		sketchOf(1, e.NumNodes()+1, sk.sets()),
		sketchOf(1, 1, [][]graph.NodeID{{}}),
		sketchOf(1, 1, [][]graph.NodeID{{graph.NodeID(e.NumNodes())}}),
		{Seed: 1, Roots: 1, Offs: []int32{1, 2}, Nodes: []graph.NodeID{0, 1}},
		{Seed: 1, Roots: 1, Offs: []int32{0, 1}, Nodes: []graph.NodeID{0, 1}},
	} {
		if err := e.WriteSnapshot(&bytes.Buffer{}, lin, nil, bad); err == nil {
			t.Fatalf("writer accepted invalid sketch %+v", bad)
		}
	}

	// Locate the sketch section as the fuzz seeds do: replay the header
	// parse up to the section start.
	sc := &snapCursor{b: data[:len(data)-4], off: len(snapshotMagic) + 4}
	lin5, lambda5, credit5, err := parseSnapshotHeader(sc)
	if err != nil {
		t.Fatal(err)
	}
	tmp := newSnapshotEngine(lin5, lambda5, credit5)
	if err := parseUsers(sc, lin5, tmp); err != nil {
		t.Fatal(err)
	}
	if _, err := parseSeedPrefix(sc, lin5.NumUsers); err != nil {
		t.Fatal(err)
	}
	skOff := sc.off
	sketchSize := 8 + 4 + 4
	for _, set := range sk.sets() {
		sketchSize += 4 + 4*len(set)
	}
	hdrCRCOff := skOff + sketchSize

	dir := t.TempDir()
	expectReject := func(name string, contents []byte) {
		t.Helper()
		if _, err := readSnapshot(contents); err == nil {
			t.Fatalf("%s: heap open accepted corrupt sketch", name)
		}
		path := filepath.Join(dir, name+".bin")
		if err := os.WriteFile(path, contents, 0o644); err != nil {
			t.Fatal(err)
		}
		if f, err := OpenSnapshot(path, true); err == nil {
			f.Close()
			t.Fatalf("%s: mapped open accepted corrupt sketch", name)
		}
	}
	corruptU32 := func(name string, off int, val uint32) {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[off:], val)
		binary.LittleEndian.PutUint32(bad[hdrCRCOff:], crc32.ChecksumIEEE(bad[:hdrCRCOff]))
		binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
		expectReject(name, bad)
	}
	corruptU32("zero-roots", skOff+8, 0)
	corruptU32("huge-roots", skOff+8, 1<<20)
	corruptU32("zero-count", skOff+12, 0)
	corruptU32("huge-count", skOff+12, 1<<30)
	corruptU32("zero-sample-len", skOff+16, 0)
	corruptU32("node-out-of-range", skOff+20, uint32(e.NumNodes()))

	// Truncation mid-section fails cleanly too.
	expectReject("truncated", data[:skOff+10])
}
