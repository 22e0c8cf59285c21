package credist

import "credist/internal/core"

// Influence provenance at the facade: why-provenance over the model's
// credit cells, exposed as Planner.ExplainSeed (why is this node a good
// seed?) and Planner.ExplainReach (who pushed this much credit onto that
// target?). The explanations are bit-consistent with the answers they
// explain: an explained gain is bit-for-bit Planner.Gain, and a reach
// decomposition's per-seed shares sum bit-exactly to its total, at any
// worker or partition count.

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

// ExplainSeedOn is p.ExplainSeed(x, top), kept for callers written
// against the model-side form.
func (m *Model) ExplainSeedOn(p *Planner, x NodeID, top int) (SeedExplanation, error) {
	return p.ExplainSeed(x, top)
}
