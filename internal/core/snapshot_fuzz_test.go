package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"reflect"
	"testing"

	"credist/internal/seedsel"
)

// FuzzReadSnapshot drives the binary-snapshot reader with arbitrary
// bytes: corrupt, truncated, or outright hostile input must always come
// back as an error — never a panic, an unbounded allocation, or a
// silently wrong engine. The corpus seeds cover every readable version,
// files with and without the seed-prefix section, the version-1/2
// layouts and the version-4 stamp no open reads any more (which must be
// refused), and targeted corruptions; the fuzzer mutates from there.
//
// For input the reader does accept, three invariants are checked: the
// engine's declared shape matches the lineage, re-serializing reproduces
// the input byte for byte (the encoding of a given engine is unique, so
// anything accepted must already be in canonical form), and the mapped
// open's parse and the non-aliasing fallback accept it too, with the same
// rows and sketch. A legacy version-6 input re-encodes instead as its
// provless equivalent (version 5, or 3 without a sketch), which must
// itself be canonical.
func FuzzReadSnapshot(f *testing.F) {
	rng := rand.New(rand.NewPCG(101, 7))
	g, log := randomInstance(rng, 25, 14)
	credit := LearnTimeAware(g, log)
	e := NewEngine(g, log, Options{Lambda: 0.001, Credit: credit})
	lin := DatasetLineage("fuzz", g, log)

	// Seed 1: plain snapshot, no prefix.
	var plain bytes.Buffer
	if err := e.WriteSnapshot(&plain, lin, nil, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())

	// Seed 2: snapshot carrying a computed seed prefix.
	sel := seedsel.CELF(NewProbe(e).Estimator(nil), 5)
	prefix := &SeedPrefix{Seeds: sel.Seeds, Gains: sel.Gains, LookupsAt: sel.LookupsAt}
	var prefixed bytes.Buffer
	if err := e.WriteSnapshot(&prefixed, lin, prefix, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(prefixed.Bytes())

	// Seed 3: simple-credit variant (exercises the other credit tag).
	se := NewEngine(g, log, Options{Lambda: 0.001})
	var simple bytes.Buffer
	if err := se.WriteSnapshot(&simple, lin, nil, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(simple.Bytes())

	// Seed: a tau record whose head lies just past the influenceability
	// table; the decoder must reject it.
	var stray bytes.Buffer
	if err := NewEngine(g, log, Options{Lambda: 0.001, Credit: withStrayTau(credit)}).WriteSnapshot(&stray, lin, nil, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(stray.Bytes())

	// Seed 4: the version-2 layout, with a prefix; refused.
	var legacy bytes.Buffer
	if err := writeSnapshotV2(&legacy, e, lin, prefix); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())

	// Seed 5: the version-1 layout (version 2 minus the prefix section);
	// refused.
	var legacyPlain bytes.Buffer
	if err := writeSnapshotV2(&legacyPlain, e, lin, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(craftVersion1(legacyPlain.Bytes()))

	// Seeds 6+: truncations and CRC-refreshed corruptions, against both the
	// version-3 and the version-2 layout. Re-stamping the footer after a flip
	// steers the fuzzer straight past the checksum to the structural
	// validators (count bounds, ordering, offset-table canonicality, prefix
	// rules).
	for _, pdata := range [][]byte{prefixed.Bytes(), legacy.Bytes()} {
		f.Add(pdata[:len(pdata)/2])
		f.Add(pdata[:len(snapshotMagic)+4])
		for _, off := range []int{9, 20, 60, len(pdata) - 30, len(pdata) - 12} {
			if off < 0 || off >= len(pdata)-4 {
				continue
			}
			corrupt := append([]byte(nil), pdata...)
			corrupt[off] ^= 0xff
			binary.LittleEndian.PutUint32(corrupt[len(corrupt)-4:], crc32.ChecksumIEEE(corrupt[:len(corrupt)-4]))
			f.Add(corrupt)
		}
	}

	// Seeds: the retired version-4 stamp, which both opens refuse — on
	// the plain, prefixed and simple-credit files with both checksums
	// restamped, so only the version check can refuse them, and on the
	// prefixed file with its checksums left stale.
	for _, data := range [][]byte{plain.Bytes(), prefixed.Bytes(), simple.Bytes()} {
		f.Add(restampVersion(f, data, 4))
	}
	staleV4 := bytes.Clone(prefixed.Bytes())
	binary.LittleEndian.PutUint32(staleV4[len(snapshotMagic):], 4)
	f.Add(staleV4)

	// Seeds: version-5 snapshot carrying an RR sketch, plus CRC-refreshed
	// corruptions of the sketch section (the section sits right after the
	// seed-prefix section, inside the header CRC, so both checksums must
	// be restamped for the structural validators to do the rejecting).
	src, err := NewEvaluator(g, log, credit).CreditWalks()
	if err != nil {
		f.Fatal(err)
	}
	walker := src.NewWalker()
	skRng := rand.New(rand.NewPCG(3, 0x415a))
	sketch := &RRSketch{Seed: 3, Roots: src.Roots(), Offs: []int32{0}}
	for i := 0; i < 40; i++ {
		sketch.Nodes = walker(skRng, sketch.Nodes)
		sketch.Offs = append(sketch.Offs, int32(len(sketch.Nodes)))
	}
	var sketched bytes.Buffer
	if err := e.WriteSnapshot(&sketched, lin, prefix, sketch); err != nil {
		f.Fatal(err)
	}
	f.Add(sketched.Bytes())
	{
		// Locate the sketch section by replaying the header parse: the
		// cursor lands exactly at the section start, and the header CRC
		// sits right after the section.
		v5 := sketched.Bytes()
		sc := &snapCursor{b: v5[:len(v5)-4], off: len(snapshotMagic) + 4}
		lin5, lambda5, credit5, err := parseSnapshotHeader(sc)
		if err != nil {
			f.Fatal(err)
		}
		tmp := newSnapshotEngine(lin5, lambda5, credit5)
		if err := parseUsers(sc, lin5, tmp); err != nil {
			f.Fatal(err)
		}
		if _, err := parseSeedPrefix(sc, lin5.NumUsers); err != nil {
			f.Fatal(err)
		}
		skOff := sc.off
		sketchSize := 8 + 4 + 4 + 4*sketch.NumSets() + 4*len(sketch.Nodes)
		hdrCRCOff := skOff + sketchSize
		for _, tweak := range []int{8, 12, 16} { // roots, sample count, first sample len
			bad := append([]byte(nil), v5...)
			binary.LittleEndian.PutUint32(bad[skOff+tweak:],
				binary.LittleEndian.Uint32(bad[skOff+tweak:])^(1<<30))
			binary.LittleEndian.PutUint32(bad[hdrCRCOff:], crc32.ChecksumIEEE(bad[:hdrCRCOff]))
			binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[:len(bad)-4]))
			f.Add(bad)
		}
	}

	// Seeds: the legacy version-6 fixture (sketch plus provenance
	// section), the same file without its sketch, and CRC-refreshed
	// corruptions of the flags byte and the provenance section, so the
	// structural validators (flag bits, pair/action ordering, count
	// bounds, credit finiteness) do the rejecting rather than the checksum.
	v6 := readLegacyV6(f)
	f.Add(v6.data)
	f.Add(v6.withoutSketch())
	f.Add(v6.mutated(func(b []byte) { b[v6.flagsOff] |= 1 << 7 }))        // stray flag bit
	f.Add(v6.mutated(func(b []byte) { b[v6.flagsOff] = provFlagSketch })) // prov flag clear
	f.Add(v6.mutated(func(b []byte) {                                     // pairs out of order
		binary.LittleEndian.PutUint32(b[v6.provOff+4:], uint32(v6.numUsers-1))
	}))
	// Pair count, first pair's (v, u), and its entry count tweaked.
	for _, tweak := range []int{0, 4, 8, 12} {
		f.Add(v6.mutated(func(b []byte) {
			binary.LittleEndian.PutUint32(b[v6.provOff+tweak:], binary.LittleEndian.Uint32(b[v6.provOff+tweak:])^(1<<30))
		}))
	}

	// Seeds: version-3 base-section abuse — truncated and misaligned offset
	// tables, CRC-refreshed so only the canonical-layout validators can
	// reject them. The base section sits at a computable distance from the
	// file end: footer, blocks, offset table.
	v3 := prefixed.Bytes()
	baseSize := e.NumActions() * 8
	for _, st := range e.uc {
		baseSize += 8 + int(st.bytes())
	}
	if baseOff := len(v3) - 4 - baseSize; baseOff > 0 {
		restamp := func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
			return b
		}
		// Offset table truncated mid-entry.
		f.Add(restamp(append([]byte(nil), v3[:baseOff+4]...)))
		// First block offset shifted off the canonical position.
		shifted := append([]byte(nil), v3...)
		binary.LittleEndian.PutUint64(shifted[baseOff:], binary.LittleEndian.Uint64(shifted[baseOff:])+8)
		f.Add(restamp(shifted))
		// A row's cell offset nudged out of the canonical row-major order.
		rowdir := append([]byte(nil), v3...)
		dirOff := baseOff + lin.NumActions*8 + 8 + 8 // first row record's offset field
		if dirOff+8 <= len(rowdir)-4 {
			binary.LittleEndian.PutUint64(rowdir[dirOff:], binary.LittleEndian.Uint64(rowdir[dirOff:])^16)
			f.Add(restamp(rowdir))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := readSnapshot(data)
		if err != nil {
			return // rejected input is the expected outcome; no panic happened
		}
		eng, lin, pfx := sf.Engine, sf.Lineage, sf.Prefix
		if eng.NumNodes() != lin.NumUsers || eng.NumActions() != lin.NumActions {
			t.Fatalf("accepted engine shape %d users/%d actions contradicts lineage %d/%d",
				eng.NumNodes(), eng.NumActions(), lin.NumUsers, lin.NumActions)
		}
		if pfx != nil {
			if len(pfx.Seeds) != len(pfx.Gains) || len(pfx.Seeds) != len(pfx.LookupsAt) {
				t.Fatalf("accepted prefix with mismatched arrays: %d/%d/%d",
					len(pfx.Seeds), len(pfx.Gains), len(pfx.LookupsAt))
			}
		}
		version := binary.LittleEndian.Uint32(data[len(snapshotMagic):])
		checkAliasingParse(t, data, sf)
		var out bytes.Buffer
		if err := eng.WriteSnapshot(&out, lin, pfx, sf.Sketch); err != nil {
			t.Fatalf("accepted input fails to re-serialize: %v", err)
		}
		if version == snapshotVersionProv {
			checkProvlessEquivalent(t, sf, out.Bytes())
			return
		}
		// Anything accepted at versions 3 and 5 re-encodes byte for byte
		// through the one writer, a sectioned file with its sections: the
		// encoding of a given engine state is unique.
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted input is not canonical: re-encode differs (%d vs %d bytes)",
				out.Len(), len(data))
		}
	})
}

// restampVersion returns a copy of a sectionless version-3 file with its
// version word set to v and both checksums recomputed, so only the
// version check can refuse it.
func restampVersion(tb testing.TB, data []byte, v uint32) []byte {
	tb.Helper()
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[len(snapshotMagic):], v)
	// Replay the header parse: the cursor stops at the header CRC.
	sc := &snapCursor{b: out[:len(out)-4], off: len(snapshotMagic) + 4}
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
	binary.LittleEndian.PutUint32(out[sc.off:], crc32.ChecksumIEEE(out[:sc.off]))
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// checkProvlessEquivalent checks the re-encoding of an accepted legacy
// version-6 input: it is version 5 when the input carried a sketch and 3
// otherwise, it reopens to the same rows, prefix and sketch, and it is
// canonical itself.
func checkProvlessEquivalent(t *testing.T, sf *SnapshotFile, out []byte) {
	want := uint32(snapshotVersion)
	if sf.Sketch != nil {
		want = snapshotVersionSketch
	}
	if got := binary.LittleEndian.Uint32(out[len(snapshotMagic):]); got != want {
		t.Fatalf("version-6 input re-encodes as version %d, want %d", got, want)
	}
	back, err := readSnapshot(out)
	if err != nil {
		t.Fatalf("re-encoded version-6 input fails to reopen: %v", err)
	}
	requireSameShards(t, sf.Engine, back.Engine)
	if !reflect.DeepEqual(back.Prefix, sf.Prefix) || !reflect.DeepEqual(back.Sketch, sf.Sketch) {
		t.Fatal("re-encoded version-6 input lost its prefix or sketch")
	}
	var again bytes.Buffer
	if err := back.Engine.WriteSnapshot(&again, back.Lineage, back.Prefix, back.Sketch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), out) {
		t.Fatal("re-encoded version-6 input is not canonical")
	}
}

// checkAliasingParse runs version-3+ input the heap open accepted through
// the two other parses of the same bytes: the mapped open's (aliasing, no
// footer check) and the non-aliasing fallback that 32-bit and big-endian
// hosts take. Both must accept it and restore the same engine rows and
// the same sketch. The reverse does not hold — the mapped open skips the
// footer CRC, so it may accept input the heap open refuses.
func checkAliasingParse(t *testing.T, data []byte, heap *SnapshotFile) {
	mapped, err := parseSnapshot(alignedCopy(data), mappedAliasSupported(), true)
	if err != nil {
		t.Fatalf("heap open accepted input the mapped open's parse refuses: %v", err)
	}
	copied, err := parseSnapshot(data, false, false)
	if err != nil {
		t.Fatalf("heap open accepted input the non-aliasing parse refuses: %v", err)
	}
	for _, other := range []*SnapshotFile{mapped, copied} {
		requireSameShards(t, heap.Engine, other.Engine)
		if !reflect.DeepEqual(other.Sketch, heap.Sketch) {
			t.Fatal("parses restored different sketches")
		}
	}
}

// requireSameShards fails unless two engines hold the same rows, key for
// key and cell for cell (credits by bit pattern), whatever backs them.
func requireSameShards(t *testing.T, want, got *Engine) {
	t.Helper()
	if len(got.uc) != len(want.uc) || got.entries != want.entries {
		t.Fatalf("%d shards/%d entries, want %d/%d", len(got.uc), got.entries, len(want.uc), want.entries)
	}
	for a, s := range want.uc {
		sameShard(t, fmt.Sprintf("action %d", a), got.uc[a], oracleOf(s))
	}
}
