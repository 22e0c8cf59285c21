package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"credist/internal/actionlog"
	"credist/internal/celf"
	"credist/internal/graph"
)

// This file implements durable binary model snapshots: a learned, scanned
// Engine — the expensive product of LearnTimeAware plus the Algorithm 2
// log scan — serialized once and reloaded on process start, so cold start
// becomes a file read plus an AppendActions over only the log tail the
// snapshot has not seen. The format is versioned, little-endian, and
// carries the graph/log lineage (dataset name, user count, scanned action
// count, content hashes) so a snapshot can refuse to bind to a dataset it
// was not built from. Float64 values are stored as raw IEEE-754 bits, so a
// write/read round trip is bit-exact and every Gain/Spread/CELF result of
// a reloaded engine is identical to the engine that was saved. One
// writer emits versions 3 and 5, always the whole engine, and one opener
// (OpenSnapshot) reads versions 3, 5 and 6, from a heap buffer or a
// mapping, through one version check.
// A snapshot is a cache of its graph and log: anything the opener does
// not read is refused with the advice to rebuild it with `credist learn
// -o`, which writes the same file bit for bit from those inputs.
//
// Version-3 layout (all integers little-endian):
//
//	magic     8 bytes "CREDSNAP"
//	version   u32 (currently 3)
//	lineage   dataset name (u32 len + bytes), u32 numUsers, u32 numActions,
//	          u64 graphHash, u64 logHash (word-folded FNV over the scanned
//	          prefix; see HashGraph / HashLogPrefix)
//	params    f64 lambda; u8 credit tag (0 simple, 1 time-aware);
//	          time-aware: u32 inflLen + f64s, u32 tauCount +
//	          (i32 from, i32 to, f64 tau) sorted strictly by (from, to)
//	users     per user: u32 count + i32 action ids, strictly ascending
//	prefix    u32 seed count (0 = none), then per seed: u32 node id (each
//	          unique, in range), f64 marginal gain (finite), u64 cumulative
//	          gain-evaluation count (non-decreasing) — a computed CELF seed
//	          prefix, so a restart serves any /seeds?k up to the stored
//	          length without running selection at all
//	hdrCRC    u32 CRC-32 (IEEE) of every preceding byte — the slice of the
//	          file a mapped open trusts before the structural walk
//	pad       0–7 zero bytes so the base section starts 8-aligned
//	base      the frozen shards, fixed-width and directly addressable in
//	          memory (every offset relative to the base section start,
//	          every record 8-aligned):
//	            offsets   per action: u64 block offset (canonical: blocks
//	                      contiguous, in action order, starting right after
//	                      this table)
//	            block     u64 rowCount; per row a 16-byte directory record
//	                      (i32 influencer id strictly ascending, u32
//	                      cellCount >= 1, u64 cell offset — canonical:
//	                      cells contiguous, row-major, right after the
//	                      directory); then the cells, 16 bytes each
//	                      (i32 influenced id strictly ascending, u32 zero
//	                      padding, f64 credit bits) — exactly the in-memory
//	                      shard layout (sparse.go), so an open aliases
//	                      directory and cells in place (mapped.go)
//	footer    u32 CRC-32 (IEEE) of every preceding byte
//
// Version-6 files, which carried an inverted copy of the credit cells,
// are still read: the copy is validated and skipped. Version 4, a file
// holding one row range of an engine, is refused: every file holds the
// whole model. The Au normalizers (the length of each user's action list)
// are rebuilt deterministically on load. Strict ordering plus the canonical offset rule make the
// encoding of a given engine unique: saving a loaded engine reproduces
// the file byte for byte (version-6 files re-save as version 3 or 5).

const (
	snapshotMagic   = "CREDSNAP"
	snapshotVersion = 3

	// snapshotVersionSketch marks a snapshot carrying the approximate
	// tier's RR sketch: version 3 plus one header section (right after the
	// seed-prefix section, inside the header CRC) holding the sketch's PCG
	// seed, its root count, and every RR sample verbatim (u64 seed, u32
	// roots, u32 sample count >= 1, then per sample u32 len >= 1 + that
	// many u32 node ids in [0, numUsers)). A restart rebuilds the
	// approximate tier's collection from the section with zero sampling
	// work. Snapshots without a sketch keep writing version 3
	// byte-identically.
	snapshotVersionSketch = 5

	// snapshotVersionProv is a legacy format, read but never written:
	// version 3 plus, right after the seed-prefix section and inside the
	// header CRC, a u8 flags byte (provFlagSketch, provFlagProv;
	// provFlagProv must be set, other bits must be zero), then the
	// version-5 sketch section when provFlagSketch is set, then a
	// provenance section (u32 pair count >= 1; per pair u32 influencer,
	// u32 influenced — pairs strictly ascending by (influencer,
	// influenced) — u32 entry count >= 1, then per entry u32 action id,
	// strictly ascending within the pair, and f64 raw credit bits, finite
	// and positive). The section only repeated shard cells, which reach
	// explanations read directly, so the reader validates and skips it;
	// the sketch is restored as from version 5.
	snapshotVersionProv = 6

	provFlagSketch = uint8(1 << 0)
	provFlagProv   = uint8(1 << 1)

	// rebuildHint ends every refusal of a file that is not a snapshot of
	// a readable version.
	rebuildHint = "rebuild the model file with `credist learn -o`"

	creditTagSimple    = 0
	creditTagTimeAware = 1

	// maxSnapshotDim bounds header-declared dimensions (users, actions,
	// name length) so a corrupt count fails fast instead of driving a huge
	// allocation; snapCursor.count additionally validates every element
	// count against the payload bytes actually present before allocating.
	maxSnapshotDim = 1 << 30
)

// Lineage identifies the dataset a snapshot was learned and scanned from.
// NumActions is the scanned prefix length: a combined log with more
// actions is a legal load target (the tail is appended), one with fewer or
// different actions is not.
type Lineage struct {
	Dataset    string
	NumUsers   int
	NumActions int
	GraphHash  uint64
	LogHash    uint64
}

// DatasetLineage captures the lineage of a (graph, log) pair as scanned in
// full: the log's user universe, every action, and content hashes of both
// structures.
func DatasetLineage(name string, g *graph.Graph, log *actionlog.Log) Lineage {
	return Lineage{
		Dataset:    name,
		NumUsers:   log.NumUsers(),
		NumActions: log.NumActions(),
		GraphHash:  HashGraph(g),
		LogHash:    HashLogPrefix(log, log.NumActions()),
	}
}

// Check validates a load target against the recorded lineage: the graph
// must hash-match exactly, and the log must contain the recorded scanned
// prefix verbatim (it may be longer — the caller appends the tail).
func (lin Lineage) Check(g *graph.Graph, log *actionlog.Log) error {
	if h := HashGraph(g); h != lin.GraphHash {
		return fmt.Errorf("core: snapshot lineage mismatch: graph hash %016x, snapshot was built against %016x", h, lin.GraphHash)
	}
	if log.NumActions() < lin.NumActions {
		return fmt.Errorf("core: snapshot covers %d actions but the log holds only %d (the snapshot is newer than the log)", lin.NumActions, log.NumActions())
	}
	if log.NumUsers() < lin.NumUsers {
		return fmt.Errorf("core: snapshot universe has %d users but the log has only %d", lin.NumUsers, log.NumUsers())
	}
	if h := HashLogPrefix(log, lin.NumActions); h != lin.LogHash {
		return fmt.Errorf("core: snapshot lineage mismatch: log prefix hash %016x over %d actions, snapshot recorded %016x", h, lin.NumActions, lin.LogHash)
	}
	return nil
}

// fnv64 is an inline FNV-style accumulator over 32/64-bit words; the
// stdlib hash.Hash64 interface costs an allocation and an interface call
// per write, and lineage hashing walks millions of tuples.
type fnv64 uint64

const fnvOffset64 fnv64 = 14695981039346656037

// u32/u64 fold a whole word per step (xor then multiply, FNV-style)
// rather than byte-wise: lineage hashing visits every log tuple, and the
// word-folded variant is an order of magnitude cheaper at equivalent
// mixing for this fixed-width integer stream.
func (h fnv64) u32(v uint32) fnv64 {
	h ^= fnv64(v)
	h *= 1099511628211
	return h
}

func (h fnv64) u64(v uint64) fnv64 {
	h ^= fnv64(v)
	h *= 1099511628211
	return h
}

// HashGraph returns a content hash of the graph: node count plus every
// directed edge in from-major order.
func HashGraph(g *graph.Graph) uint64 {
	h := fnvOffset64.u32(uint32(g.NumNodes()))
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Out(graph.NodeID(u)) {
			h = h.u32(uint32(u)).u32(uint32(v))
		}
	}
	return uint64(h)
}

// HashLogPrefix returns a content hash of the log's first actions
// propagations: every (user, action, time) tuple in canonical scan order,
// with timestamps hashed as raw float64 bits. The universe size is
// deliberately excluded — appending a tail may register new users without
// invalidating the already-scanned prefix.
func HashLogPrefix(log *actionlog.Log, actions int) uint64 {
	h := fnvOffset64
	for a := 0; a < actions; a++ {
		for _, t := range log.Action(actionlog.ActionID(a)) {
			h = h.u32(uint32(t.User)).u32(uint32(t.Action)).u64(math.Float64bits(t.Time))
		}
	}
	return uint64(h)
}

// SeedPrefix is a computed CELF seed-selection prefix persisted alongside
// the engine: seeds in selection order, their marginal gains, and the
// cumulative gain-evaluation counts when each was committed. A snapshot
// carrying one lets a restarted process answer seed queries up to the
// stored length without running any selection. It is an alias of the
// shared celf.Prefix, so writer, reader, and Resume all enforce one rule
// set (Prefix.Validate) with no conversions at package boundaries.
type SeedPrefix = celf.Prefix

// IsSnapshotHeader reports whether p (at least the first 8 bytes of a
// file) starts with the binary snapshot magic.
func IsSnapshotHeader(p []byte) bool {
	return len(p) >= len(snapshotMagic) && string(p[:len(snapshotMagic)]) == snapshotMagic
}

// snapWriter wraps an output stream with little-endian encoding helpers, a
// running CRC, a written-byte counter (the version-3 base section must
// start 8-aligned), and sticky error handling.
type snapWriter struct {
	w   io.Writer
	n   int64
	crc uint32
	err error
	buf []byte
}

func (sw *snapWriter) bytes(p []byte) {
	if sw.err != nil {
		return
	}
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, p)
	sw.n += int64(len(p))
	_, sw.err = sw.w.Write(p)
}

func (sw *snapWriter) u8(v uint8) { sw.bytes([]byte{v}) }
func (sw *snapWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	sw.bytes(b[:])
}
func (sw *snapWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	sw.bytes(b[:])
}
func (sw *snapWriter) f64(v float64) { sw.u64(math.Float64bits(v)) }

func (sw *snapWriter) str(s string) {
	sw.u32(uint32(len(s)))
	sw.bytes([]byte(s))
}

// scratch returns the writer's reusable buffer sized to n bytes.
func (sw *snapWriter) scratch(n int) []byte {
	if cap(sw.buf) < n {
		sw.buf = make([]byte, n)
	}
	return sw.buf[:n]
}

// i32s writes a whole int32 slice through the scratch buffer in one pass.
func (sw *snapWriter) i32s(vs []int32) {
	b := sw.scratch(len(vs) * 4)
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
	}
	sw.bytes(b)
}

// footer writes the CRC of everything above, raw (not through sw.bytes) so
// it does not fold into itself.
func (sw *snapWriter) footer() {
	if sw.err == nil {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], sw.crc)
		_, sw.err = sw.w.Write(b[:])
	}
}

// checkSnapshotArgs enforces the shared writer preconditions: the
// lineage must describe exactly the log the engine has scanned.
func (e *Engine) checkSnapshotArgs(lin Lineage, prefix *SeedPrefix) error {
	if lin.NumUsers != e.numUsers || lin.NumActions != e.NumActions() {
		return fmt.Errorf("core: snapshot lineage covers %d users/%d actions, engine has scanned %d/%d",
			lin.NumUsers, lin.NumActions, e.numUsers, e.NumActions())
	}
	// Mirror the reader's bound: a longer name would write a CRC-valid
	// file that every subsequent load refuses.
	if len(lin.Dataset) > 1<<16 {
		return fmt.Errorf("core: snapshot dataset name is %d bytes, limit is %d", len(lin.Dataset), 1<<16)
	}
	if prefix != nil {
		if err := prefix.Validate(e.numUsers); err != nil {
			return err
		}
	}
	return nil
}

// writeSnapshotHeader emits the sections shared by every version: magic,
// version word, lineage, params, and the per-user action lists.
func writeSnapshotHeader(sw *snapWriter, e *Engine, lin Lineage, version uint32) error {
	sw.bytes([]byte(snapshotMagic))
	sw.u32(version)

	sw.str(lin.Dataset)
	sw.u32(uint32(lin.NumUsers))
	sw.u32(uint32(lin.NumActions))
	sw.u64(lin.GraphHash)
	sw.u64(lin.LogHash)

	sw.f64(e.lambda)
	switch credit := e.credit.(type) {
	case SimpleCredit:
		sw.u8(creditTagSimple)
	case *TimeAwareCredit:
		sw.u8(creditTagTimeAware)
		sw.u32(uint32(len(credit.infl)))
		for _, v := range credit.infl {
			sw.f64(v)
		}
		sw.u32(uint32(len(credit.tauTo)))
		credit.eachTau(func(v, u graph.NodeID, tau float64) {
			sw.u32(uint32(v))
			sw.u32(uint32(u))
			sw.f64(tau)
		})
	default:
		return fmt.Errorf("core: cannot snapshot engine with credit model %T", e.credit)
	}

	for u := 0; u < e.numUsers; u++ {
		sw.u32(uint32(len(e.actionsOf[u])))
		sw.i32s(e.actionsOf[u])
	}
	return nil
}

// writeSeedPrefixSection emits the seed-prefix section (count 0 = none).
func writeSeedPrefixSection(sw *snapWriter, prefix *SeedPrefix) {
	if prefix == nil {
		sw.u32(0)
		return
	}
	sw.u32(uint32(len(prefix.Seeds)))
	for i, x := range prefix.Seeds {
		sw.u32(uint32(x))
		sw.f64(prefix.Gains[i])
		sw.u64(uint64(prefix.LookupsAt[i]))
	}
}

// WriteSnapshot serializes the whole model held by the engine with its
// lineage and the optional sections stored beside it: prefix, a computed
// CELF seed prefix; sketch, the approximate tier's RR sketch (nil or
// empty means none for each). It writes version 3, or version 5 when a
// sketch rides along, so a file without sections stays byte-identical to
// what older binaries read. The base section is written in its canonical
// mapped-addressable layout: contiguous in-order blocks behind a
// per-action offset table, 16-byte directory records and cells,
// everything 8-aligned — so the very bytes this writer emits are what
// OpenSnapshot later serves queries from without parsing. The encoding of
// a given model state is unique: saving a loaded snapshot reproduces the
// file byte for byte.
func (e *Engine) WriteSnapshot(w io.Writer, lin Lineage, prefix *SeedPrefix, sketch *RRSketch) error {
	if sketch != nil && sketch.NumSets() == 0 {
		sketch = nil
	}
	version := uint32(snapshotVersion)
	if sketch != nil {
		version = snapshotVersionSketch
		if err := sketch.Validate(e.numUsers); err != nil {
			return err
		}
	}
	if err := e.checkSnapshotArgs(lin, prefix); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	sw := &snapWriter{w: bw}
	if err := writeSnapshotHeader(sw, e, lin, version); err != nil {
		return err
	}
	writeSeedPrefixSection(sw, prefix)
	if sketch != nil {
		writeSketchSection(sw, sketch)
	}

	// Header CRC over everything written so far, then zero padding so the
	// base section starts 8-aligned. Capture the CRC before writing it —
	// sw.u32 folds what it writes into the running (footer) CRC.
	headerCRC := sw.crc
	sw.u32(headerCRC)
	if pad := int((8 - sw.n%8) % 8); pad > 0 {
		sw.bytes(make([]byte, pad))
	}

	// Offset table: canonical positions, blocks contiguous in action order.
	numActions := len(e.uc)
	off := uint64(numActions) * 8
	for _, s := range e.uc {
		sw.u64(off)
		off += 8 + uint64(s.bytes())
	}
	// Blocks: the row count, then the directory and the cells, with
	// canonical base-relative cell offsets.
	cur := uint64(numActions) * 8
	for _, s := range e.uc {
		rows := len(s.dir)
		sw.u64(uint64(rows))
		b := sw.scratch(int(s.bytes()))
		cellOff := cur + 8 + uint64(rows)*16
		db, cb := b[:rows*16], b[rows*16:]
		for _, d := range s.dir {
			binary.LittleEndian.PutUint32(db, uint32(d.key))
			binary.LittleEndian.PutUint32(db[4:], d.count)
			binary.LittleEndian.PutUint64(db[8:], cellOff)
			db = db[16:]
			cellOff += uint64(d.count) * 16
		}
		for _, en := range s.cells {
			binary.LittleEndian.PutUint32(cb, uint32(en.u))
			binary.LittleEndian.PutUint32(cb[4:], 0)
			binary.LittleEndian.PutUint64(cb[8:], math.Float64bits(en.c))
			cb = cb[16:]
		}
		sw.bytes(b)
		cur = cellOff
	}

	sw.footer()
	if sw.err != nil {
		return fmt.Errorf("core: write snapshot: %w", sw.err)
	}
	return bw.Flush()
}

// snapCursor decodes the snapshot payload from an in-memory buffer with
// sticky error handling. The whole file is read (and CRC-verified) before
// parsing starts, so every declared count can be validated against the
// bytes actually present before anything is allocated — a corrupt header
// can neither over-allocate nor panic.
type snapCursor struct {
	b   []byte
	off int
	err error
}

func (sc *snapCursor) fail(format string, args ...any) {
	if sc.err == nil {
		sc.err = fmt.Errorf("core: snapshot: "+format, args...)
	}
}

func (sc *snapCursor) remaining() int { return len(sc.b) - sc.off }

// take returns the next n payload bytes, or nil after flagging truncation.
func (sc *snapCursor) take(n int) []byte {
	if sc.err != nil {
		return nil
	}
	if n < 0 || sc.remaining() < n {
		sc.fail("truncated input: need %d bytes, have %d", n, sc.remaining())
		return nil
	}
	b := sc.b[sc.off : sc.off+n]
	sc.off += n
	return b
}

func (sc *snapCursor) u8() uint8 {
	b := sc.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (sc *snapCursor) u32() uint32 {
	b := sc.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (sc *snapCursor) u64() uint64 {
	b := sc.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (sc *snapCursor) f64() float64 { return math.Float64frombits(sc.u64()) }

// count reads an element count whose records occupy recSize bytes each,
// rejecting values the remaining payload cannot possibly hold.
func (sc *snapCursor) count(what string, recSize int) int {
	v := sc.u32()
	if sc.err != nil {
		return 0
	}
	if v > maxSnapshotDim || int64(v)*int64(recSize) > int64(sc.remaining()) {
		sc.fail("%s count %d exceeds the remaining %d payload bytes", what, v, sc.remaining())
		return 0
	}
	return int(v)
}

func (sc *snapCursor) str(what string) string {
	n := sc.u32()
	if sc.err == nil && n > 1<<16 {
		sc.fail("%s length %d exceeds sanity bound", what, n)
		return ""
	}
	return string(sc.take(int(n)))
}

// parseSnapshotHeader parses the lineage and params sections (the cursor
// must sit just past the version word). Shared by every reader version.
func parseSnapshotHeader(sc *snapCursor) (Lineage, float64, CreditModel, error) {
	var lin Lineage
	lin.Dataset = sc.str("dataset name")
	lin.NumUsers = sc.count("user", 4)
	lin.NumActions = sc.count("action", 4)
	lin.GraphHash = sc.u64()
	lin.LogHash = sc.u64()

	lambda := sc.f64()
	var credit CreditModel
	switch tag := sc.u8(); {
	case sc.err != nil:
	case tag == creditTagSimple:
		credit = SimpleCredit{}
	case tag == creditTagTimeAware:
		inflLen := sc.count("influenceability", 8)
		if sc.err == nil && inflLen < lin.NumUsers {
			return lin, 0, nil, fmt.Errorf("core: snapshot: influenceability table covers %d users, lineage declares %d", inflLen, lin.NumUsers)
		}
		infl := make([]float64, inflLen)
		for i := range infl {
			infl[i] = sc.f64()
		}
		tauCount := sc.count("tau", 16)
		ta := newTimeAware(infl, tauCount)
		prev := graph.Edge{From: -1, To: -1}
		for i := 0; i < tauCount && sc.err == nil; i++ {
			ed := graph.Edge{From: graph.NodeID(sc.u32()), To: graph.NodeID(sc.u32())}
			tau := sc.f64()
			if sc.err != nil {
				break
			}
			if ed.From < 0 || ed.To < 0 || int(ed.From) >= inflLen || int(ed.To) >= inflLen {
				sc.fail("tau edge (%d,%d) outside the %d-user influenceability table", ed.From, ed.To, inflLen)
				break
			}
			if ed.From < prev.From || (ed.From == prev.From && ed.To <= prev.To) {
				sc.fail("tau records out of order at edge (%d,%d)", ed.From, ed.To)
				break
			}
			prev = ed
			ta.addTau(ed.From, ed.To, tau)
		}
		ta.sealTau()
		credit = ta
	default:
		return lin, 0, nil, fmt.Errorf("core: snapshot: unknown credit model tag %d", tag)
	}
	if sc.err != nil {
		return lin, 0, nil, sc.err
	}
	return lin, lambda, credit, nil
}

// newSnapshotEngine allocates the skeleton every reader fills.
func newSnapshotEngine(lin Lineage, lambda float64, credit CreditModel) *Engine {
	return &Engine{
		numUsers:  lin.NumUsers,
		au:        make([]int32, lin.NumUsers),
		actionsOf: make([][]int32, lin.NumUsers),
		uc:        make([]*shard, 0, lin.NumActions),
		lambda:    lambda,
		credit:    credit,
	}
}

// parseUsers parses the per-user action lists into e.actionsOf and the Au
// normalizers.
func parseUsers(sc *snapCursor, lin Lineage, e *Engine) error {
	for u := 0; u < lin.NumUsers && sc.err == nil; u++ {
		n := sc.count("user action", 4)
		row := make([]int32, n)
		prev := int32(-1)
		for i := range row {
			a := int32(sc.u32())
			if sc.err != nil {
				break
			}
			if a < 0 || int(a) >= lin.NumActions {
				sc.fail("user %d action id %d out of range [0,%d)", u, a, lin.NumActions)
				break
			}
			if a <= prev {
				sc.fail("user %d action ids out of order at %d", u, a)
				break
			}
			prev = a
			row[i] = a
		}
		e.actionsOf[u] = row
		e.au[u] = int32(n)
	}
	return sc.err
}

// parseSeedPrefix parses the seed-prefix section. The structural rules
// match SeedPrefix.Validate, so the on-disk encoding of a given prefix is
// unique and a re-save reproduces the section byte for byte.
func parseSeedPrefix(sc *snapCursor, numUsers int) (*SeedPrefix, error) {
	n := sc.count("seed prefix", 20)
	if n == 0 || sc.err != nil {
		return nil, sc.err
	}
	p := &SeedPrefix{
		Seeds:     make([]graph.NodeID, 0, n),
		Gains:     make([]float64, 0, n),
		LookupsAt: make([]int64, 0, n),
	}
	for i := 0; i < n && sc.err == nil; i++ {
		node := graph.NodeID(sc.u32())
		gain := sc.f64()
		lookups := sc.u64()
		if sc.err != nil {
			break
		}
		if lookups > math.MaxInt64 {
			sc.fail("seed prefix lookup count %d at %d overflows", lookups, i)
			break
		}
		p.Seeds = append(p.Seeds, node)
		p.Gains = append(p.Gains, gain)
		p.LookupsAt = append(p.LookupsAt, int64(lookups))
	}
	if sc.err == nil {
		if err := p.Validate(numUsers); err != nil {
			sc.err = err
		}
	}
	return p, sc.err
}

// skipProvSection validates a version-6 provenance section and moves the
// cursor past it, keeping nothing: pairs strictly ascending by (v, u)
// inside the universe, each with at least one entry; actions strictly
// ascending inside [0, numActions); credits finite and positive. These
// are the rules the section was written under, so a file accepted here
// is one its writer could have produced.
func skipProvSection(sc *snapCursor, numUsers, numActions int) error {
	const recSize = 12 // a pair header (v, u, n) and an entry (action, credit) alike
	pairs := sc.count("provenance pair", recSize)
	if sc.err == nil && pairs == 0 {
		sc.fail("version-%d snapshot with an empty provenance section", snapshotVersionProv)
	}
	prevV, prevU := int32(-1), int32(-1)
	for i := 0; i < pairs && sc.err == nil; i++ {
		v := int32(sc.u32())
		u := int32(sc.u32())
		n := sc.count("provenance entry", recSize)
		if sc.err != nil {
			break
		}
		if int(v) < 0 || int(v) >= numUsers || int(u) < 0 || int(u) >= numUsers {
			sc.fail("provenance pair (%d,%d) outside the universe [0,%d)", v, u, numUsers)
			break
		}
		if prevV > v || (prevV == v && prevU >= u) {
			sc.fail("provenance pairs out of order: (%d,%d) after (%d,%d)", v, u, prevV, prevU)
			break
		}
		if n == 0 {
			sc.fail("provenance pair (%d,%d) has no entries", v, u)
			break
		}
		prevV, prevU = v, u
		rec := sc.take(n * recSize)
		prevA := int32(-1)
		for j := 0; j < n; j++ {
			a := int32(binary.LittleEndian.Uint32(rec[j*recSize:]))
			c := math.Float64frombits(binary.LittleEndian.Uint64(rec[j*recSize+4:]))
			if int(a) < 0 || int(a) >= numActions {
				sc.fail("provenance action %d outside [0,%d)", a, numActions)
				break
			}
			if prevA >= a {
				sc.fail("provenance actions out of order for pair (%d,%d)", v, u)
				break
			}
			if math.IsNaN(c) || math.IsInf(c, 0) || c <= 0 {
				sc.fail("provenance credit %g for pair (%d,%d) action %d (want finite and positive)", c, v, u, a)
				break
			}
			prevA = a
		}
	}
	return sc.err
}

// SnapshotFile is an opened snapshot: the engine and everything stored
// beside it. Prefix and Sketch are nil when the file carries no such
// section (for the sections a version predates). The engine's shards
// alias the bytes the open read or mapped, so a mapped SnapshotFile must
// stay open for as long as the engine or any successor of it is in use.
type SnapshotFile struct {
	Engine  *Engine
	Lineage Lineage
	Prefix  *SeedPrefix
	Sketch  *RRSketch

	data    []byte       // the bytes shards alias
	release func() error // unmaps data; nil for a heap open
}

// Close releases the mapping behind a mapped open; for a heap open it is
// a no-op, since the garbage collector owns the buffer. The caller must
// have dropped every engine derived from a mapped file first: reading a
// mapped shard after Close faults. Closing is idempotent.
func (f *SnapshotFile) Close() error {
	if f == nil || f.release == nil {
		return nil
	}
	rel := f.release
	f.release, f.data = nil, nil
	return rel()
}

// OpenSnapshot opens a snapshot file of version 3, 5 or 6: one written by
// WriteSnapshot, or a legacy version-6 file. Both opens
// accept exactly these versions and run the same parse: the header
// (lineage, parameters, per-user action lists, the optional sections) is
// decoded and its CRC verified, the base section's offset tables, keys
// and ids are validated in full, and then every shard is an in-place
// window onto the file's bytes — no cell is copied, no row allocated.
// The returned engine is bit-for-bit equivalent to the one that was saved
// and has the full scanned range as its base.
//
// With mmap false the file is read into one 8-aligned heap buffer and the
// full-file CRC footer is verified before anything past the version word
// is parsed. With mmap true the file is memory-mapped and the OS pages
// shards in and out on demand, so the model can exceed RAM; the footer's
// checksum pass is skipped, while the header CRC and the structural walk
// over every record still run. Hosts that cannot alias the layout (32-bit
// or big-endian) decode the same bytes into heap shards instead. Corrupt
// or truncated input — impossible counts, unordered keys, a CRC
// mismatch, trailing garbage, a malformed section — is rejected with an
// error, never a panic or an unbounded allocation. A file that is not a
// snapshot, or holds any other version, is refused with the advice to
// rebuild it.
func OpenSnapshot(path string, mmap bool) (*SnapshotFile, error) {
	if !mmap {
		data, err := readAligned(path)
		if err != nil {
			return nil, err
		}
		return parseSnapshot(data, mappedAliasSupported(), false)
	}
	data, release, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	f, err := parseSnapshot(data, mappedAliasSupported(), true)
	if err != nil {
		release()
		return nil, err
	}
	f.release = release
	return f, nil
}

// readAligned reads the file at path into one heap buffer sized from Stat
// and backed by []uint64, so it is 8-aligned and the parse can alias
// the base section in place.
func readAligned(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	size := fi.Size()
	if size != int64(int(size)) {
		return nil, fmt.Errorf("core: snapshot: %s is %d bytes, beyond this platform's address space", path, size)
	}
	words := make([]uint64, (size+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(words)*8)[:size]
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("core: snapshot: read %s: %w", path, err)
	}
	return data, nil
}
