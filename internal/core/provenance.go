// Influence provenance: why-provenance over UC credits.
//
// Every number the model reports — a marginal gain, a spread, a seed
// choice — is a sum of per-action credit cells UC[v][u][a] produced by
// the Algorithm 2 scan, so every answer has a traceable origin. This
// file exposes it two ways:
//
//   - ExplainSeed(x, top) decomposes Gain(x) into (influencer →
//     influenced, action) credit paths by replaying the Gain fold
//     itself: the same terms, in the same association order, so the
//     per-action contributions sum bit-exactly to the reported gain at
//     any worker or partition count.
//   - ExplainReach(S, v) decomposes the credit reaching target v by
//     seed and action: per seed s (in input order), the shares
//     UC[s][v][a]/A_v folded in ascending action order. Credits are
//     additive across seeds and partitions, so per-seed subtotals sum
//     bit-exactly to the total and per-partition answers merge
//     deterministically.
//
// ProvIndex is the inverted credit→actions index behind the reach side:
// per (influencer v, influenced u) pair, the contributing action ids and
// per-action credit shares, sorted by (v, u) with ascending actions per
// pair. It is derivable from the scanned shards (BuildProvIndex walks
// exactly the cells Gain reads, so index answers and shard walks agree
// bit for bit), optional, and persistable as a version-6 snapshot
// section so a restarted process explains with zero index builds. The
// index is held in that section's encoding, so a mapped open serves it
// in place with no decode.
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

// ProvPath is one explained credit path: the credit influencer earned
// for influenced's participation in one action, normalized the way the
// explained answer counts it.
type ProvPath struct {
	Influencer graph.NodeID
	Influenced graph.NodeID
	Action     actionlog.ActionID
	Credit     float64
}

// SeedExplanation decomposes one candidate's marginal gain. Gain is
// bit-identical to Engine.Gain(Node) on the same state; Paths holds the
// top paths by credit (self-activation paths appear as Influencer ==
// Influenced) out of TotalPaths.
type SeedExplanation struct {
	Node       graph.NodeID
	Gain       float64
	Paths      []ProvPath
	TotalPaths int
}

// ReachShare is one seed's slice of an explained reach total.
type ReachShare struct {
	Seed  graph.NodeID
	Share float64
}

// ReachExplanation decomposes the credit reaching one target by seed and
// action. PerSeed is parallel to the query's seed order, and Total is
// the fixed-order fold of the PerSeed shares — so the decomposition sums
// bit-exactly to the total at any worker or partition count.
type ReachExplanation struct {
	Target     graph.NodeID
	Total      float64
	PerSeed    []ReachShare
	Paths      []ProvPath
	TotalPaths int
}

// ExplainSeed decomposes Gain(x) into credit paths; it is the probe's
// ExplainSeed over this engine alone, with nothing committed. Read-only,
// like Gain; a partition answers only for candidates whose row it owns.
func (e *Engine) ExplainSeed(x graph.NodeID, top int) SeedExplanation {
	if !e.ownsRow(x) {
		panic(fmt.Sprintf("core: ExplainSeed(%d) outside partition rows [%d,%d)", x, e.partLo, e.partHi))
	}
	return NewProbe(e).ExplainSeed(x, top)
}

// ExplainSeed decomposes Gain(x) against the probe's commits into credit
// paths. It replays the Gain walk term by term — the 1/A_x
// self-activation credit plus every cell of x's replayed rows, each
// discounted by the committed-seed factor (1 - SC) — in the identical
// association order, so the returned Gain is bit-for-bit Gain(x, nil). A
// committed seed explains as 0 with no paths. Read-only.
func (p *Probe) ExplainSeed(x graph.NodeID, top int) SeedExplanation {
	e := p.owner(x)
	ex := SeedExplanation{Node: x}
	ax := float64(e.au[x])
	if ax == 0 || p.committed(x) {
		return ex
	}
	mg := 0.0
	var paths []ProvPath
	for _, a := range e.actionsOf[x] {
		mga := 1.0 / ax
		row, scx := p.replay(e, int32(x), a)
		paths = append(paths, ProvPath{Influencer: x, Influenced: x, Action: a, Credit: (1.0 / ax) * (1 - scx)})
		for _, en := range row {
			mga += en.c / float64(e.au[en.u])
			paths = append(paths, ProvPath{
				Influencer: x, Influenced: en.u, Action: a,
				Credit: (en.c / float64(e.au[en.u])) * (1 - scx),
			})
		}
		mg += mga * (1 - scx)
	}
	ex.Gain = mg
	ex.TotalPaths = len(paths)
	ex.Paths = TopProvPaths(paths, top)
	return ex
}

// reachPaths returns seed s's slice of the credit reaching target v, read
// through the probe's replay of s's rows from s's owner: the shares
// UC[s][v][a]/A_v folded in ascending action order, one path per
// contributing action. The seed's own activation (the 1/A_v self term of
// its gain) is not a credit path and does not appear. A committed seed is
// no longer part of V-S: its row contributes nothing.
// A committed target keeps no credit cells either, because the replay
// drops every cell (s, v) of a seed v.
func (p *Probe) reachPaths(s, v graph.NodeID) (float64, []ProvPath) {
	e := p.owner(s)
	av := float64(e.au[v])
	if av == 0 || p.committed(s) {
		return 0, nil
	}
	share := 0.0
	var paths []ProvPath
	for _, a := range e.actionsOf[s] {
		row, _ := p.replay(e, int32(s), a)
		i, ok := searchRow(row, int32(v))
		if !ok {
			continue
		}
		c := row[i].c
		share += c / av
		paths = append(paths, ProvPath{Influencer: s, Influenced: v, Action: a, Credit: c / av})
	}
	return share, paths
}

// ExplainReach decomposes the credit reaching target v from the given
// seeds: per-seed shares in input order (duplicate seeds each count, so
// callers wanting set semantics deduplicate first), their fixed-order
// fold as the total, and the top paths by credit. Every row read belongs
// to a seed's owner, so a partitioned deployment computes each seed's
// share wholly in one partition and merges bit-identically.
func (e *Engine) ExplainReach(seeds []graph.NodeID, v graph.NodeID, top int) ReachExplanation {
	return NewProbe(e).ExplainReach(seeds, v, top)
}

// ExplainReach is the engine's ExplainReach against the probe's commits,
// every seed's rows read through the replay (see reachPaths).
func (p *Probe) ExplainReach(seeds []graph.NodeID, v graph.NodeID, top int) ReachExplanation {
	ex := ReachExplanation{Target: v, PerSeed: make([]ReachShare, 0, len(seeds))}
	var paths []ProvPath
	for _, s := range seeds {
		share, ps := p.reachPaths(s, v)
		ex.PerSeed = append(ex.PerSeed, ReachShare{Seed: s, Share: share})
		ex.Total += share
		paths = append(paths, ps...)
	}
	ex.TotalPaths = len(paths)
	ex.Paths = TopProvPaths(paths, top)
	return ex
}

// ExplainReachIndexed is ExplainReach answered from an inverted index
// instead of the UC shards. The index stores exactly the cells the shard
// walk reads, in the same ascending-action order per pair, so the result
// is bit-identical to ExplainReach on the engine the index was built
// from — which is what lets a snapshot-restored index serve explanations
// with zero rebuild work.
func (e *Engine) ExplainReachIndexed(p *ProvIndex, seeds []graph.NodeID, v graph.NodeID, top int) ReachExplanation {
	ex := ReachExplanation{Target: v, PerSeed: make([]ReachShare, 0, len(seeds))}
	av := float64(e.au[v])
	var paths []ProvPath
	for _, s := range seeds {
		share := 0.0
		if av != 0 {
			acts, creds := p.Lookup(s, v)
			for i, a := range acts {
				share += creds[i] / av
				paths = append(paths, ProvPath{Influencer: s, Influenced: v, Action: a, Credit: creds[i] / av})
			}
		}
		ex.PerSeed = append(ex.PerSeed, ReachShare{Seed: s, Share: share})
		ex.Total += share
	}
	ex.TotalPaths = len(paths)
	ex.Paths = TopProvPaths(paths, top)
	return ex
}

// TopProvPaths sorts paths by descending credit — ties broken by
// (influencer, influenced, action) ascending, so the order is a
// deterministic total order — and truncates to the top n (n <= 0 keeps
// none). It sorts in place and returns a clipped view of its argument.
func TopProvPaths(paths []ProvPath, n int) []ProvPath {
	slices.SortFunc(paths, func(a, b ProvPath) int {
		switch {
		case a.Credit > b.Credit:
			return -1
		case a.Credit < b.Credit:
			return 1
		case a.Influencer != b.Influencer:
			return int(a.Influencer) - int(b.Influencer)
		case a.Influenced != b.Influenced:
			return int(a.Influenced) - int(b.Influenced)
		default:
			return int(a.Action) - int(b.Action)
		}
	})
	if n < 0 {
		n = 0
	}
	if n > len(paths) {
		n = len(paths)
	}
	return paths[:n]
}

// ProvIndex is the inverted credit→actions index: per (influencer v,
// influenced u) pair, the contributing action ids and per-action raw
// credit shares UC[v][u][a]. It is held in its version-6 section
// encoding, so building, persisting and serving share one form:
//
//	per pair, pairs strictly ascending by (v, u):
//	  v u32 | u u32 | n u32 | n × (action u32 | credit f64)
//
// with actions strictly ascending per pair, all little-endian. byV
// locates each influencer's run of pairs. Immutable once built. An index
// restored by OpenSnapshot reads its records straight from the bytes the
// open read or mapped; a mapped one is valid only while the SnapshotFile
// stays open.
type ProvIndex struct {
	raw     []byte  // section body after the pair count
	byV     []int64 // numUsers+1 offsets: v's pairs are raw[byV[v]:byV[v+1]]
	pairs   int
	entries int64
}

// provRecSize is the encoded size of a pair header (v, u, n) and of an
// entry (action, credit) alike.
const provRecSize = 12

// BuildProvIndex builds the inverted index over the engine's credit
// structure by walking exactly the cells Gain reads — per row v the
// engine holds, the UC rows of the actions v performed — so shard walks
// and index lookups agree bit for bit. A partition indexes only the rows
// in its range.
// Deterministic: the same engine state yields the same index, encoded
// exactly as a snapshot stores it.
func (e *Engine) BuildProvIndex() *ProvIndex {
	type cell struct {
		u, a int32
		c    float64
	}
	p := &ProvIndex{byV: make([]int64, e.numUsers+1)}
	lo, hi := e.PartitionRange()
	var cells []cell
	for v := lo; v < hi; v++ {
		p.byV[v] = int64(len(p.raw))
		cells = cells[:0]
		for _, a := range e.actionsOf[v] {
			for _, en := range e.uc[a].row(int32(v)) {
				cells = append(cells, cell{u: en.u, a: a, c: en.c})
			}
		}
		// Generated (action, influenced)-major; the index wants
		// (influenced, action)-major. Keys are unique, so a plain sort is
		// deterministic.
		sort.Slice(cells, func(i, j int) bool {
			if cells[i].u != cells[j].u {
				return cells[i].u < cells[j].u
			}
			return cells[i].a < cells[j].a
		})
		for i := 0; i < len(cells); {
			j := i + 1
			for j < len(cells) && cells[j].u == cells[i].u {
				j++
			}
			p.raw = binary.LittleEndian.AppendUint32(p.raw, uint32(v))
			p.raw = binary.LittleEndian.AppendUint32(p.raw, uint32(cells[i].u))
			p.raw = binary.LittleEndian.AppendUint32(p.raw, uint32(j-i))
			for _, c := range cells[i:j] {
				p.raw = binary.LittleEndian.AppendUint32(p.raw, uint32(c.a))
				p.raw = binary.LittleEndian.AppendUint64(p.raw, math.Float64bits(c.c))
			}
			p.pairs++
			i = j
		}
		p.entries += int64(len(cells))
	}
	for v := hi; v <= e.numUsers; v++ {
		p.byV[v] = int64(len(p.raw))
	}
	return p
}

// Pairs returns the number of (influencer, influenced) pairs indexed.
func (p *ProvIndex) Pairs() int {
	if p == nil {
		return 0
	}
	return p.pairs
}

// Entries returns the total number of indexed (pair, action) cells.
func (p *ProvIndex) Entries() int64 {
	if p == nil {
		return 0
	}
	return p.entries
}

// Bytes returns the size of the index's snapshot section. Those bytes
// are the index: heap-resident when built or read from a file, mapped
// when restored by a mapped OpenSnapshot. The byV table adds
// 8×(numUsers+1) heap bytes on top.
func (p *ProvIndex) Bytes() int64 {
	if p == nil {
		return 0
	}
	return 4 + int64(len(p.raw))
}

// Lookup returns the contributing action ids (ascending) and raw credit
// shares for the (influencer v, influenced u) pair, or nil slices when
// the pair carries no credit. It scans v's run of pairs, which ascends
// by u, and decodes the match into fresh slices.
func (p *ProvIndex) Lookup(v, u graph.NodeID) ([]int32, []float64) {
	if v < 0 || int(v) >= len(p.byV)-1 {
		return nil, nil
	}
	for off, end := p.byV[v], p.byV[v+1]; off < end; {
		pu := int32(binary.LittleEndian.Uint32(p.raw[off+4:]))
		n := int(binary.LittleEndian.Uint32(p.raw[off+8:]))
		if pu > u {
			break
		}
		if pu == u {
			acts, creds := make([]int32, n), make([]float64, n)
			rec := p.raw[off+provRecSize:]
			for j := range acts {
				acts[j] = int32(binary.LittleEndian.Uint32(rec[j*provRecSize:]))
				creds[j] = math.Float64frombits(binary.LittleEndian.Uint64(rec[j*provRecSize+4:]))
			}
			return acts, creds
		}
		off += int64(provRecSize * (1 + n))
	}
	return nil, nil
}

// Validate checks the index against a universe with the same walk the
// snapshot reader runs, so any index that validates here round-trips
// through a version-6 snapshot section.
func (p *ProvIndex) Validate(numUsers, numActions int) error {
	if p.Pairs() == 0 {
		return fmt.Errorf("core: provenance index is empty")
	}
	sc := &snapCursor{b: p.raw}
	walkProvSection(sc, p.pairs, make([]int64, numUsers+1), numActions)
	if sc.err == nil && sc.remaining() != 0 {
		sc.fail("%d bytes past the last provenance pair", sc.remaining())
	}
	return sc.err
}

// walkProvSection is the one validating walk over a provenance section
// body: pairs strictly ascending by (v, u) inside the universe, each with
// at least one entry; actions strictly ascending inside [0, numActions);
// credits finite and positive. These rules make the encoding unique, so
// accepted bytes re-encode byte-identically. The walk fills byV (length
// numUsers+1) with each influencer's run offset, relative to where the
// cursor started, returns the entry count, records any failure on sc,
// and allocates nothing.
func walkProvSection(sc *snapCursor, pairs int, byV []int64, numActions int) int64 {
	numUsers := len(byV) - 1
	start := sc.off
	next := 0 // first influencer whose run offset is not yet set
	prevV, prevU := int32(-1), int32(-1)
	var entries int64
	for i := 0; i < pairs && sc.err == nil; i++ {
		at := int64(sc.off - start)
		v := int32(sc.u32())
		u := int32(sc.u32())
		n := sc.count("provenance entry", provRecSize)
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
		for ; next <= int(v); next++ {
			byV[next] = at
		}
		prevV, prevU = v, u
		rec := sc.take(n * provRecSize)
		prevA := int32(-1)
		for j := 0; j < n; j++ {
			a := int32(binary.LittleEndian.Uint32(rec[j*provRecSize:]))
			c := math.Float64frombits(binary.LittleEndian.Uint64(rec[j*provRecSize+4:]))
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
		entries += int64(n)
	}
	for ; next <= numUsers; next++ {
		byV[next] = int64(sc.off - start)
	}
	return entries
}

// writeProvSection serializes the index: the pair count, then the
// records exactly as the index holds them.
func writeProvSection(sw *snapWriter, p *ProvIndex) {
	sw.u32(uint32(p.pairs))
	sw.bytes(p.raw)
}

// parseProvSection validates a provenance section and returns its index.
// With alias set, the records stay in sc's buffer (the mapping) and only
// byV is allocated; otherwise they are copied once, so the index does not
// pin the caller's whole-file buffer.
func parseProvSection(sc *snapCursor, numUsers, numActions int, alias bool) (*ProvIndex, error) {
	pairs := sc.count("provenance pair", provRecSize)
	if sc.err == nil && pairs == 0 {
		sc.fail("version-%d snapshot with an empty provenance section", snapshotVersionProv)
	}
	if sc.err != nil {
		return nil, sc.err
	}
	p := &ProvIndex{byV: make([]int64, numUsers+1), pairs: pairs}
	start := sc.off
	p.entries = walkProvSection(sc, pairs, p.byV, numActions)
	if sc.err != nil {
		return nil, sc.err
	}
	p.raw = sc.b[start:sc.off:sc.off]
	if !alias {
		p.raw = bytes.Clone(p.raw)
	}
	return p, nil
}
