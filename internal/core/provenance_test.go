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
	"runtime"
	"strings"
	"testing"

	"credist/internal/graph"
)

func TestFigure1ExplainSeed(t *testing.T) {
	g, log := figure1(t)
	e := NewEngine(g, log, Options{})

	ex := e.ExplainSeed(nodeV, 10)
	if ex.Gain != e.Gain(nodeV) {
		t.Fatalf("ExplainSeed(v).Gain = %b, Gain(v) = %b", ex.Gain, e.Gain(nodeV))
	}
	// v's gain decomposes into its self-activation plus its credit over
	// t, w, z, u — five paths for the single action.
	if ex.TotalPaths != 5 || len(ex.Paths) != 5 {
		t.Fatalf("ExplainSeed(v) paths = %d (total %d), want 5", len(ex.Paths), ex.TotalPaths)
	}
	want := map[graph.NodeID]float64{nodeV: 1, nodeT: 0.5, nodeW: 1, nodeZ: 0.5, nodeU: 0.75}
	for _, p := range ex.Paths {
		if p.Influencer != nodeV || p.Action != 0 {
			t.Fatalf("unexpected path %+v", p)
		}
		if w, ok := want[p.Influenced]; !ok || !almostEqual(p.Credit, w) {
			t.Fatalf("path to %d credit %g, want %g", p.Influenced, p.Credit, want[p.Influenced])
		}
		delete(want, p.Influenced)
	}
	if len(want) != 0 {
		t.Fatalf("paths missing targets %v", want)
	}
	// Truncation keeps the top paths by credit.
	top2 := e.ExplainSeed(nodeV, 2)
	if len(top2.Paths) != 2 || top2.TotalPaths != 5 {
		t.Fatalf("top-2 kept %d of %d paths", len(top2.Paths), top2.TotalPaths)
	}
	for _, p := range top2.Paths {
		if !almostEqual(p.Credit, 1) {
			t.Fatalf("top-2 path credit %g, want 1", p.Credit)
		}
	}

	// After commits to a probe the explained gain still matches bit for
	// bit — and the oracle's explanation after the same commits in place —
	// and a committed seed explains as zero with no paths.
	pr := NewProbe(e)
	o := newCommitOracle(e)
	for _, s := range []graph.NodeID{nodeT, nodeZ} {
		pr.Commit(s, nil)
		o.Add(s)
	}
	for cand := graph.NodeID(0); cand < 6; cand++ {
		ex := pr.ExplainSeed(cand, 10)
		if ex.Gain != pr.Gain(cand, nil) {
			t.Fatalf("after commits ExplainSeed(%d).Gain = %b, Gain = %b", cand, ex.Gain, pr.Gain(cand, nil))
		}
		if want := o.ExplainSeed(cand, 10); !reflect.DeepEqual(ex, want) {
			t.Fatalf("after commits ExplainSeed(%d) = %+v, the oracle %+v", cand, ex, want)
		}
	}
	if ex := pr.ExplainSeed(nodeT, 10); ex.Gain != 0 || ex.TotalPaths != 0 {
		t.Fatalf("committed seed explains as %+v, want zero", ex)
	}
}

// TestExplainSeedBitExact is the tentpole contract on the seed side: the
// explanation's gain is bit-identical to the probe's Gain at any worker
// count, with and without truncation/learned credit, before and after
// commits.
func TestExplainSeedBitExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 17))
	for trial := 0; trial < 10; trial++ {
		g, log := randomInstance(rng, 14+rng.IntN(8), 5+rng.IntN(5))
		var credit CreditModel
		lambda := 0.0
		if trial%2 == 1 {
			credit = LearnTimeAware(g, log)
			lambda = 0.001
		}
		serial := NewProbe(NewEngine(g, log, Options{Workers: 1, Lambda: lambda, Credit: credit}))
		parallel := NewProbe(NewEngine(g, log, Options{Workers: runtime.GOMAXPROCS(0), Lambda: lambda, Credit: credit}))
		for round := 0; round < 3; round++ {
			for cand := 0; cand < g.NumNodes(); cand++ {
				c := graph.NodeID(cand)
				exS := serial.ExplainSeed(c, 8)
				exP := parallel.ExplainSeed(c, 8)
				if exS.Gain != serial.Gain(c, nil) {
					t.Fatalf("trial %d round %d: ExplainSeed(%d).Gain %b != Gain %b",
						trial, round, c, exS.Gain, serial.Gain(c, nil))
				}
				if !reflect.DeepEqual(exS, exP) {
					t.Fatalf("trial %d round %d: explanations differ across worker counts for %d", trial, round, c)
				}
			}
			next := graph.NodeID(rng.IntN(g.NumNodes()))
			serial.Commit(next, nil)
			parallel.Commit(next, nil)
		}
	}
}

func TestFigure1ExplainReach(t *testing.T) {
	g, log := figure1(t)
	e := NewEngine(g, log, Options{})

	share, paths := NewProbe(e).reachPaths(nodeV, nodeU)
	if !almostEqual(share, 0.75) {
		t.Fatalf("reachPaths(v,u) share = %g, want 0.75", share)
	}
	if len(paths) != 1 || paths[0].Action != 0 || !almostEqual(paths[0].Credit, 0.75) {
		t.Fatalf("reachPaths(v,u) paths = %+v", paths)
	}

	ex := e.ExplainReach([]graph.NodeID{nodeV, nodeZ}, nodeU, 10)
	if len(ex.PerSeed) != 2 || !almostEqual(ex.PerSeed[0].Share, 0.75) || !almostEqual(ex.PerSeed[1].Share, 0.25) {
		t.Fatalf("ExplainReach per-seed = %+v", ex.PerSeed)
	}
	if sum := ex.PerSeed[0].Share + ex.PerSeed[1].Share; ex.Total != sum {
		t.Fatalf("Total %b != fold of shares %b", ex.Total, sum)
	}
	// A node that performed nothing reaches nothing.
	lb2 := e.ExplainReach([]graph.NodeID{nodeU}, nodeV, 10)
	if lb2.Total != 0 || lb2.TotalPaths != 0 {
		t.Fatalf("reach from sink = %+v, want zero", lb2)
	}
}

// TestExplainReachMatchesPairCredit cross-checks the walk against the
// evaluator's independent recursive computation of kappa_{v,u} on
// truncation-free engines.
func TestExplainReachMatchesPairCredit(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 19))
	for trial := 0; trial < 8; trial++ {
		g, log := randomInstance(rng, 10+rng.IntN(6), 4+rng.IntN(4))
		pr := NewProbe(NewEngine(g, log, Options{}))
		ev := NewEvaluator(g, log, nil)
		for s := 0; s < g.NumNodes(); s++ {
			for v := 0; v < g.NumNodes(); v++ {
				if s == v {
					continue
				}
				share, _ := pr.reachPaths(graph.NodeID(s), graph.NodeID(v))
				if want := ev.PairCredit(graph.NodeID(s), graph.NodeID(v)); !almostEqual(share, want) {
					t.Fatalf("trial %d reachPaths(%d,%d) = %g, evaluator kappa = %g", trial, s, v, share, want)
				}
			}
		}
	}
}

// TestExplainReachIndexed pins the index consumer bit-identical to the
// shard walk: same shares, same paths, same fold order.
func TestExplainReachIndexed(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 23))
	for trial := 0; trial < 6; trial++ {
		g, log := randomInstance(rng, 12+rng.IntN(8), 4+rng.IntN(5))
		e := NewEngine(g, log, Options{Lambda: 0.001, Credit: LearnTimeAware(g, log)})
		idx := e.BuildProvIndex()
		if err := idx.Validate(g.NumNodes(), e.NumActions()); idx.Pairs() > 0 && err != nil {
			t.Fatalf("trial %d: built index fails Validate: %v", trial, err)
		}
		seeds := []graph.NodeID{0, graph.NodeID(g.NumNodes() / 2), graph.NodeID(g.NumNodes() - 1), 0}
		for v := 0; v < g.NumNodes(); v++ {
			walk := e.ExplainReach(seeds, graph.NodeID(v), 6)
			indexed := e.ExplainReachIndexed(idx, seeds, graph.NodeID(v), 6)
			if !reflect.DeepEqual(walk, indexed) {
				t.Fatalf("trial %d target %d: walk %+v != indexed %+v", trial, v, walk, indexed)
			}
		}
	}
}

// TestExplainPartitionedBitIdentical is the acceptance criterion at
// partition counts {1, 4}: a partition explains its rows exactly as the
// full engine does, per-partition reach shares folded in seed order
// reproduce the full answer bit for bit, and after commits a probe over
// the partitions explains exactly as the in-place commit oracle.
func TestExplainPartitionedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 29))
	g, log := randomInstance(rng, 24, 9)
	base := NewEngine(g, log, Options{Lambda: 0.001, Credit: LearnTimeAware(g, log)})
	n := g.NumNodes()
	seeds := []graph.NodeID{1, 9, 20, 9}
	for _, parts := range []int{1, 4} {
		var slices []*Engine
		var ranges [][2]int
		for i := 0; i < parts; i++ {
			lo, hi := i*n/parts, (i+1)*n/parts
			p, err := base.Slice(lo, hi)
			if err != nil {
				t.Fatalf("Slice(%d,%d): %v", lo, hi, err)
			}
			slices = append(slices, p)
			ranges = append(ranges, [2]int{lo, hi})
		}
		owner := func(x graph.NodeID) *Engine {
			for i, r := range ranges {
				if int(x) >= r[0] && int(x) < r[1] {
					return slices[i]
				}
			}
			t.Fatalf("no owner for %d", x)
			return nil
		}
		for cand := 0; cand < n; cand++ {
			c := graph.NodeID(cand)
			if got, want := owner(c).ExplainSeed(c, 7), base.ExplainSeed(c, 7); !reflect.DeepEqual(got, want) {
				t.Fatalf("parts=%d: partition ExplainSeed(%d) differs from full", parts, cand)
			}
		}
		for v := 0; v < n; v += 5 {
			wantEx := base.ExplainReach(seeds, graph.NodeID(v), 8)
			// Gather: each seed's share and paths come wholly from its
			// owner; fold shares in input order, concatenate and re-sort
			// paths — the partitioned serving path in miniature.
			got := ReachExplanation{Target: graph.NodeID(v)}
			var paths []ProvPath
			for _, s := range seeds {
				share, ps := NewProbe(owner(s)).reachPaths(s, graph.NodeID(v))
				got.PerSeed = append(got.PerSeed, ReachShare{Seed: s, Share: share})
				got.Total += share
				paths = append(paths, ps...)
			}
			got.TotalPaths = len(paths)
			got.Paths = TopProvPaths(paths, 8)
			if wantEx.Total != got.Total || !reflect.DeepEqual(wantEx.PerSeed, got.PerSeed) ||
				!reflect.DeepEqual(wantEx.Paths, got.Paths) {
				t.Fatalf("parts=%d target %d: merged reach differs from full", parts, v)
			}
		}

		pr := NewProbe(slices...)
		oracle := newCommitOracle(base)
		for _, seed := range []graph.NodeID{3, 17} {
			pr.Commit(seed, nil)
			oracle.Add(seed)
			for cand := 0; cand < n; cand++ {
				c := graph.NodeID(cand)
				if got, want := pr.ExplainSeed(c, 7), oracle.ExplainSeed(c, 7); !reflect.DeepEqual(got, want) {
					t.Fatalf("parts=%d seeds %v: probe ExplainSeed(%d) differs from the oracle", parts, pr.Seeds(), cand)
				}
			}
			for v := 0; v < n; v += 5 {
				if got, want := pr.ExplainReach(seeds, graph.NodeID(v), 8), oracle.ExplainReach(seeds, graph.NodeID(v), 8); !reflect.DeepEqual(got, want) {
					t.Fatalf("parts=%d seeds %v target %d: probe reach %+v, the oracle %+v", parts, pr.Seeds(), v, got, want)
				}
			}
		}
	}
}

// TestBuildProvIndexSlices: a slice indexes exactly its owned rows, and
// slice indexes agree cell-for-cell with the full index.
func TestBuildProvIndexSlices(t *testing.T) {
	rng := rand.New(rand.NewPCG(59, 31))
	g, log := randomInstance(rng, 20, 7)
	e := NewEngine(g, log, Options{})
	fullIdx := e.BuildProvIndex()
	n := g.NumNodes()
	totalPairs := 0
	for i := 0; i < 4; i++ {
		lo, hi := i*n/4, (i+1)*n/4
		p, err := e.Slice(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		idx := p.BuildProvIndex()
		totalPairs += idx.Pairs()
		for _, r := range provRecords(idx) {
			v, u := r.v, r.u
			if int(v) < lo || int(v) >= hi {
				t.Fatalf("slice [%d,%d) indexed foreign row %d", lo, hi, v)
			}
			acts, creds := idx.Lookup(graph.NodeID(v), graph.NodeID(u))
			wantActs, wantCreds := fullIdx.Lookup(graph.NodeID(v), graph.NodeID(u))
			if !reflect.DeepEqual(acts, wantActs) || !reflect.DeepEqual(creds, wantCreds) {
				t.Fatalf("slice cell (%d,%d) disagrees with full index", v, u)
			}
		}
	}
	if totalPairs != fullIdx.Pairs() {
		t.Fatalf("slice pair counts sum to %d, full index has %d", totalPairs, fullIdx.Pairs())
	}
}

func TestProvIndexLookupAndValidate(t *testing.T) {
	g, log := figure1(t)
	e := NewEngine(g, log, Options{})
	idx := e.BuildProvIndex()
	if err := idx.Validate(6, 1); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	acts, creds := idx.Lookup(nodeV, nodeU)
	if len(acts) != 1 || acts[0] != 0 || !almostEqual(creds[0], 0.75) {
		t.Fatalf("Lookup(v,u) = %v %v", acts, creds)
	}
	if acts, creds := idx.Lookup(nodeU, nodeV); acts != nil || creds != nil {
		t.Fatalf("Lookup miss returned %v %v", acts, creds)
	}
	if err := (&ProvIndex{}).Validate(6, 1); err == nil {
		t.Fatal("empty index passed Validate")
	}
	if err := idx.Validate(6, 0); err == nil {
		t.Fatal("index validated against a universe with no actions")
	}
	var nilIdx *ProvIndex
	if nilIdx.Pairs() != 0 || nilIdx.Entries() != 0 || nilIdx.Bytes() != 0 {
		t.Fatal("nil index stats not zero")
	}
}

func TestTopProvPathsDeterministic(t *testing.T) {
	paths := []ProvPath{
		{Influencer: 2, Influenced: 1, Action: 0, Credit: 0.5},
		{Influencer: 1, Influenced: 3, Action: 2, Credit: 0.5},
		{Influencer: 1, Influenced: 3, Action: 1, Credit: 0.5},
		{Influencer: 0, Influenced: 4, Action: 0, Credit: 0.9},
	}
	got := TopProvPaths(append([]ProvPath(nil), paths...), 10)
	want := []ProvPath{paths[3], paths[2], paths[1], paths[0]}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopProvPaths order = %+v", got)
	}
	if n := len(TopProvPaths(append([]ProvPath(nil), paths...), -1)); n != 0 {
		t.Fatalf("negative n kept %d paths", n)
	}
}

// TestSnapshotProvRoundTrip is the format contract: a version-6 snapshot
// round-trips byte-identically, a provless write stays byte-identical to
// the version-5 (and version-3) writers, and the mapped opener returns
// the same index.
func TestSnapshotProvRoundTrip(t *testing.T) {
	g, log, e, lin := snapshotInstance(t, 61, 22, 9)
	_ = log
	prov := e.BuildProvIndex()
	if prov.Pairs() == 0 {
		t.Fatal("instance produced an empty index; pick another seed")
	}

	var v6 bytes.Buffer
	if err := e.WriteSnapshot(&v6, lin, nil, nil, prov); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if got := binary.LittleEndian.Uint32(v6.Bytes()[len(snapshotMagic):]); got != snapshotVersionProv {
		t.Fatalf("prov snapshot has version %d, want %d", got, snapshotVersionProv)
	}
	sf, err := readSnapshot(v6.Bytes())
	if err != nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	eng, lin2, pfx, sk, prov2 := sf.Engine, sf.Lineage, sf.Prefix, sf.Sketch, sf.Prov
	if pfx != nil || sk != nil {
		t.Fatalf("unexpected prefix/sketch from provless-sketch file")
	}
	if !reflect.DeepEqual(prov2, prov) {
		t.Fatal("restored index differs from written index")
	}
	requireEnginesBitIdentical(t, e, eng, 4)
	var again bytes.Buffer
	if err := eng.WriteSnapshot(&again, lin2, pfx, sk, prov2); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(again.Bytes(), v6.Bytes()) {
		t.Fatalf("v6 re-encode differs: %d vs %d bytes", again.Len(), v6.Len())
	}

	// Sectionless writes never escalate the version: nil and empty prov
	// hand back the exact v3 bytes, and a sketch-only write the exact v5
	// bytes.
	var v3, provEmpty bytes.Buffer
	if err := e.WriteSnapshot(&v3, lin, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteSnapshot(&provEmpty, lin, nil, nil, &ProvIndex{}); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(v3.Bytes()[len(snapshotMagic):]); got != snapshotVersion {
		t.Fatalf("provless snapshot has version %d, want %d", got, snapshotVersion)
	}
	if !bytes.Equal(provEmpty.Bytes(), v3.Bytes()) {
		t.Fatal("an empty provenance index changed the version-3 bytes")
	}
	sketch := sketchOf(9, 3, [][]graph.NodeID{{0, 1}, {2}, {3, 4, 5}})
	var v5, v5EmptyProv bytes.Buffer
	if err := e.WriteSnapshot(&v5, lin, nil, sketch, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteSnapshot(&v5EmptyProv, lin, nil, sketch, &ProvIndex{}); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(v5.Bytes()[len(snapshotMagic):]); got != snapshotVersionSketch {
		t.Fatalf("sketch-only snapshot has version %d, want %d", got, snapshotVersionSketch)
	}
	if !bytes.Equal(v5EmptyProv.Bytes(), v5.Bytes()) {
		t.Fatal("an empty provenance index changed the version-5 bytes")
	}

	// Both sections together round-trip too.
	var both bytes.Buffer
	if err := e.WriteSnapshot(&both, lin, nil, sketch, prov); err != nil {
		t.Fatal(err)
	}
	sf, err = readSnapshot(both.Bytes())
	if err != nil {
		t.Fatalf("read sketch+prov: %v", err)
	}
	sk2, prov3 := sf.Sketch, sf.Prov
	if !reflect.DeepEqual(sk2, sketch) || !reflect.DeepEqual(prov3, prov) {
		t.Fatal("sketch+prov round-trip lost a section")
	}

	// The mapped opener hands back the same index.
	dir := t.TempDir()
	path := filepath.Join(dir, "model.snap")
	if err := os.WriteFile(path, v6.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mf := openSnapshot(t, path, true)
	meng, mprov := mf.Engine, mf.Prov
	if !reflect.DeepEqual(mprov, prov) {
		t.Fatal("mapped open returned a different index")
	}
	for u := 0; u < g.NumNodes(); u++ {
		if meng.Gain(graph.NodeID(u)) != e.Gain(graph.NodeID(u)) {
			t.Fatalf("mapped Gain(%d) differs", u)
		}
	}
}

// TestSnapshotProvRejects covers the v6-specific reject paths: stray or
// missing flag bits and structural violations inside the section, all
// CRC-refreshed so the structural validators do the rejecting.
func TestSnapshotProvRejects(t *testing.T) {
	_, _, e, lin := snapshotInstance(t, 67, 18, 7)
	prov := e.BuildProvIndex()
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf, lin, nil, nil, prov); err != nil {
		t.Fatal(err)
	}
	v6 := buf.Bytes()

	// Replay the header parse to locate the flags byte and the section
	// bounds; the header CRC sits right after the section.
	sc := &snapCursor{b: v6[:len(v6)-4], off: len(snapshotMagic) + 4}
	lin6, lambda6, credit6, err := parseSnapshotHeader(sc)
	if err != nil {
		t.Fatal(err)
	}
	tmp := newSnapshotEngine(lin6, lambda6, credit6)
	if err := parseUsers(sc, lin6, tmp); err != nil {
		t.Fatal(err)
	}
	if _, err := parseSeedPrefix(sc, lin6.NumUsers); err != nil {
		t.Fatal(err)
	}
	flagsOff := sc.off
	provSize := 4 + len(prov.raw)
	hdrCRCOff := flagsOff + 1 + provSize

	restamp := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[hdrCRCOff:], crc32.ChecksumIEEE(b[:hdrCRCOff]))
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	}
	cases := []struct {
		name string
		mut  func(b []byte)
		want string
	}{
		{"prov bit clear", func(b []byte) { b[flagsOff] = 0 }, "provenance bit"},
		{"stray flag bit", func(b []byte) { b[flagsOff] |= 1 << 6 }, "stray bits"},
		{"zero pairs", func(b []byte) { binary.LittleEndian.PutUint32(b[flagsOff+1:], 0) }, "provenance"},
		{"pair out of universe", func(b []byte) { binary.LittleEndian.PutUint32(b[flagsOff+5:], 1<<20) }, "universe"},
		{"credit corrupted", func(b []byte) {
			// First entry's credit sits after pairCount(4)+v(4)+u(4)+entryCount(4)+action(4).
			binary.LittleEndian.PutUint64(b[flagsOff+21:], ^uint64(0)) // NaN bits
		}, "finite"},
	}
	for _, c := range cases {
		bad := restamp(func() []byte { b := append([]byte(nil), v6...); c.mut(b); return b }())
		_, err := readSnapshot(bad)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
		if _, err := readSnapshot(bad); err == nil {
			t.Fatalf("%s: discarding reader accepted corrupt input", c.name)
		}
	}

	// A partition cannot write a whole-model prov snapshot.
	p, err := e.Slice(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteSnapshot(&bytes.Buffer{}, lin, nil, nil, p.BuildProvIndex()); err == nil {
		t.Fatal("partition wrote a version-6 snapshot")
	}
	// An index that fails Validate is refused at write time.
	badIdx := e.BuildProvIndex()
	badIdx.raw = bytes.Clone(badIdx.raw)
	binary.LittleEndian.PutUint64(badIdx.raw[16:], math.Float64bits(-1)) // first entry's credit
	if err := e.WriteSnapshot(&bytes.Buffer{}, lin, nil, nil, badIdx); err == nil {
		t.Fatal("invalid index written without error")
	}
}

// provRecord is one decoded pair of a provenance index.
type provRecord struct {
	v, u  int32
	acts  []int32
	creds []float64
}

// provRecords decodes every pair of the index by walking its encoding
// front to back, independently of Lookup.
func provRecords(p *ProvIndex) []provRecord {
	var out []provRecord
	for off := 0; off < len(p.raw); {
		r := provRecord{
			v: int32(binary.LittleEndian.Uint32(p.raw[off:])),
			u: int32(binary.LittleEndian.Uint32(p.raw[off+4:])),
		}
		n := int(binary.LittleEndian.Uint32(p.raw[off+8:]))
		off += provRecSize
		for j := 0; j < n; j, off = j+1, off+provRecSize {
			r.acts = append(r.acts, int32(binary.LittleEndian.Uint32(p.raw[off:])))
			r.creds = append(r.creds, math.Float64frombits(binary.LittleEndian.Uint64(p.raw[off+4:])))
		}
		out = append(out, r)
	}
	return out
}

// TestExplainReachMatchesCommitOracle: a probe holding seeds explains
// reach bit-identically to the in-place commit oracle followed by
// ExplainReach — with seed lists that name committed seeds (whose rows
// the commit removed) and duplicates, every target including committed
// ones (whose columns it removed), on full engines and on row-range
// partitions. The replay alone does not drop a committed seed's own row;
// the probe must.
func TestExplainReachMatchesCommitOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 37))
	for trial := 0; trial < 12; trial++ {
		g, log := probeInstance(rng)
		opts := Options{Lambda: []float64{0, 0.001, 0.05}[trial%3]}
		if trial%2 == 1 {
			opts.Credit = LearnTimeAware(g, log)
		}
		full := NewEngine(g, log, opts)
		n := full.NumNodes()
		pr := NewProbe(rowPartitions(t, full, 1+trial%4)...)
		oracle := newCommitOracle(full)
		var committed []graph.NodeID
		for k := 0; k < 3; k++ {
			s := graph.NodeID(rng.IntN(n))
			pr.Commit(s, nil)
			oracle.Add(s)
			committed = append(committed, s)
			seeds := []graph.NodeID{committed[0], graph.NodeID(rng.IntN(n)), s, graph.NodeID(rng.IntN(n)), committed[0]}
			for v := 0; v < n; v++ {
				got := pr.ExplainReach(seeds, graph.NodeID(v), 5)
				want := oracle.ExplainReach(seeds, graph.NodeID(v), 5)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d committed %v seeds %v target %d: probe %+v, oracle %+v", trial, committed, seeds, v, got, want)
				}
			}
		}
	}
}
