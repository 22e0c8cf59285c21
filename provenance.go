package credist

import (
	"sync"
	"sync/atomic"

	"credist/internal/core"
)

// Influence provenance at the facade: why-provenance over the model's
// credit cells, exposed as ExplainSeed (why is this node a good seed?)
// and ExplainReach (who pushed this much credit onto that target?). The
// explanations are bit-consistent with the answers they explain: an
// explained gain is bit-for-bit Planner.Gain, and a reach decomposition's
// per-seed shares sum bit-exactly to its total, at any worker or
// partition count.

// ProvPath is one explained credit path; alias of the core
// representation, so no conversions happen at package boundaries.
type ProvPath = core.ProvPath

// SeedExplanation decomposes one candidate's marginal gain.
type SeedExplanation = core.SeedExplanation

// ReachShare is one seed's slice of an explained reach total.
type ReachShare = core.ReachShare

// ReachExplanation decomposes the credit reaching one target.
type ReachExplanation = core.ReachExplanation

// ProvStats describes the model's provenance index for /stats.
type ProvStats struct {
	// Pairs, Entries, and Bytes size the current index (all zero before
	// the first reach explanation on a model with no restored index).
	// Bytes is its snapshot-section size: the index is held in that
	// encoding, mapped rather than heap-resident under LoadModelMapped.
	Pairs   int
	Entries int64
	Bytes   int64
	// Builds counts index builds paid by this process; a model restored
	// from a version-6 snapshot explains with Builds 0.
	Builds int64
}

// provTier is the per-model provenance state: the lazily built (or
// snapshot-restored) credit→actions index plus build accounting.
type provTier struct {
	// mu serializes the one build or adoption, published in cur.
	mu  sync.Mutex
	cur atomic.Pointer[core.ProvIndex]
	// restored is a version-6 snapshot's index, adopted on first use.
	// Written before the model is published, read-only after.
	restored *core.ProvIndex
	builds   atomic.Int64
}

// ensureProv returns the model's index, adopting a restored one or
// building it on first use from eng(), which must return an engine
// scanned over exactly the model's log. Any such engine holds the same
// credit cells bit for bit — a planner extended by ingest matches a fresh
// scan of the combined log — so the index built from a live planner's
// engine is the model's index, and no second scan is forced.
func (m *Model) ensureProv(eng func() *core.Engine) *core.ProvIndex {
	if idx := m.prov.cur.Load(); idx != nil {
		return idx
	}
	m.prov.mu.Lock()
	defer m.prov.mu.Unlock()
	if idx := m.prov.cur.Load(); idx != nil {
		return idx
	}
	idx := m.prov.restored
	if idx == nil {
		m.prov.builds.Add(1)
		idx = eng().BuildProvIndex()
	}
	m.prov.cur.Store(idx)
	return idx
}

// BuildProvIndex forces the provenance index to exist now — this is what
// `credist learn -prov` calls so the following Save persists it — and
// returns the resulting stats. A no-op (beyond stats) if the index was
// already built or restored.
func (m *Model) BuildProvIndex() ProvStats {
	m.ensureProv(m.base)
	return m.ProvStats()
}

// ProvStats reports the tier's current index; see the field docs.
func (m *Model) ProvStats() ProvStats {
	t := &m.prov
	idx := t.cur.Load()
	if idx == nil {
		// Restored but not yet adopted: report the carried-forward index
		// so /stats shows it right after startup.
		idx = t.restored
	}
	return ProvStats{
		Pairs:   idx.Pairs(),
		Entries: idx.Entries(),
		Bytes:   idx.Bytes(),
		Builds:  t.builds.Load(),
	}
}

// provForSave snapshots the tier's index for persistence: nil when the
// tier holds nothing, which keeps index-less snapshots at their previous
// version (byte-identical files).
func (m *Model) provForSave() *core.ProvIndex {
	if idx := m.prov.cur.Load(); idx != nil {
		return idx
	}
	// A restored index not yet queried still carries forward.
	return m.prov.restored
}

// ExplainSeed decomposes candidate x's marginal gain from an empty seed
// set into its top credit paths. The explained Gain is bit-for-bit
// Model.Gains(nil, {x})[0]. Read-only and safe for concurrent use.
func (m *Model) ExplainSeed(x NodeID, top int) SeedExplanation {
	return m.base().ExplainSeed(x, top)
}

// ExplainSeedOn is ExplainSeed against a planner's state — committed
// seeds discount and zero out paths exactly as they discount Gain, so the
// explained value is bit-for-bit p.Gain(x), and a committed seed explains
// as 0. This is how the serving layer explains on its live (possibly
// ingest-extended) base planner.
func (m *Model) ExplainSeedOn(p *Planner, x NodeID, top int) SeedExplanation {
	return p.probe.ExplainSeed(x, top)
}

// ExplainReach decomposes the credit the given seeds push onto target v:
// per-seed shares in input order whose fixed-order fold is bit-exactly
// the returned Total, plus the top contributing (seed, action) paths.
// Answered from the provenance index (built lazily on first use, or
// restored from a version-6 snapshot with zero build work).
func (m *Model) ExplainReach(seeds []NodeID, v NodeID, top int) ReachExplanation {
	return m.explainReachOn(m.base(), seeds, v, top)
}

// ExplainReachOn is ExplainReach against a planner's state. A planner
// without committed seeds over exactly the model's log answers from the
// model's index — building it from the planner's own engine if no index
// exists yet, so an ingest-grown model never rescans its log for it; a
// planner over any other log walks its own shards, which is bit-identical
// by construction. A seeded planner
// reads every seed's rows through its probe's replay: a committed seed's
// row contributes nothing, and a committed target receives no credit.
func (m *Model) ExplainReachOn(p *Planner, seeds []NodeID, v NodeID, top int) ReachExplanation {
	if len(p.Seeds()) > 0 {
		return p.probe.ExplainReach(seeds, v, top)
	}
	return m.explainReachOn(p.eng, seeds, v, top)
}

func (m *Model) explainReachOn(eng *core.Engine, seeds []NodeID, v NodeID, top int) ReachExplanation {
	// The index describes the credit cells over exactly the model's log;
	// an engine over any other log walks its own shards.
	if eng.NumActions() == m.ds.Log.NumActions() {
		return eng.ExplainReachIndexed(m.ensureProv(func() *core.Engine { return eng }), seeds, v, top)
	}
	return eng.ExplainReach(seeds, v, top)
}
