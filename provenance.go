package credist

import "credist/internal/core"

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

// BuildProvIndex is a no-op kept for callers written against the
// provenance index it used to build: reach explanations now read the
// scanned shards directly, so there is nothing to build or persist.
//
// Deprecated: ExplainReach needs no preparation.
func (m *Model) BuildProvIndex() {}

// ExplainSeed decomposes candidate x's marginal gain from an empty seed
// set into its top credit paths. The explained Gain is bit-for-bit
// Model.Gains(nil, {x})[0]. Read-only and safe for concurrent use.
func (m *Model) ExplainSeed(x NodeID, top int) SeedExplanation {
	return core.NewProbe(m.base()).ExplainSeed(x, top)
}

// ExplainSeedOn is ExplainSeed against a planner's state — committed
// seeds discount and zero out paths exactly as they discount Gain, so the
// explained value is bit-for-bit p.Gain(x), and a committed seed explains
// as 0. x's rows are read from the engine owning them, so the answer is
// the same at any partition count. This is how the serving layer explains
// on its live (possibly ingest-extended or partitioned) base planner.
func (m *Model) ExplainSeedOn(p *Planner, x NodeID, top int) (SeedExplanation, error) {
	if err := checkIDs("candidate", []NodeID{x}, p.NumUsers()); err != nil {
		return SeedExplanation{}, err
	}
	return p.probe.ExplainSeed(x, top), nil
}

// ExplainReach decomposes the credit the given seeds push onto target v:
// per-seed shares in input order whose fixed-order fold is bit-exactly
// the returned Total, plus the top contributing (seed, action) paths,
// read from the model's scanned shards.
func (m *Model) ExplainReach(seeds []NodeID, v NodeID, top int) ReachExplanation {
	return core.NewProbe(m.base()).ExplainReach(seeds, v, top)
}

// ExplainReachOn is ExplainReach against a planner's state: every seed's
// rows are read through the planner's probe, from the seed's owning
// partition, so the answer is the same at any partition count. A
// committed seed's row contributes nothing, and a committed target
// receives no credit.
func (m *Model) ExplainReachOn(p *Planner, seeds []NodeID, v NodeID, top int) (ReachExplanation, error) {
	n := p.NumUsers()
	if err := checkIDs("target", []NodeID{v}, n); err != nil {
		return ReachExplanation{}, err
	}
	if err := checkIDs("seed", seeds, n); err != nil {
		return ReachExplanation{}, err
	}
	return p.probe.ExplainReach(seeds, v, top), nil
}
