package credist

import (
	"fmt"

	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/par"
	"credist/internal/seedsel"
)

// Planner is the query object of a model: the model's immutable scanned
// UC credit structure of Algorithm 2 plus a core.Probe holding the
// committed seed set S. Every gain (Theorem 3), selection (Algorithm 3,
// CELF) and explanation is answered here, from those two things alone,
// and each has one implementation; an *Objective argument selects the
// objective, nil meaning the default. The structure is one full engine,
// or row-range engine partitions tiling the user universe (Partition,
// LoadPartitions): the probe reads every row from the partition owning
// it, and Theorem 3 prices a candidate from its own rows alone, so every
// answer is bit-identical at any partition count. Only Add commits to
// the receiver (Algorithm 5); every other query leaves it unchanged
// (working on a clone of its probe where it commits seeds), so many
// goroutines may query one planner at once while none calls Add. Planners
// over one model share its engines, so NewPlanner and Clone cost a small
// copy of the commit records, never a rescan or a shard copy; this is how
// a serving layer keeps one planner per model snapshot.
type Planner struct {
	// m is the model the planner answers for: it supplies the objective
	// context (universe size and delay index).
	m *Model
	// parts is one full engine, or partitions sorted by row range.
	parts []*core.Engine
	probe *core.Probe
	// files holds the slice files LoadPartitions mapped (nil otherwise);
	// Close releases them. Clones and Extend successors read the mappings
	// but do not own them.
	files []*core.SnapshotFile
}

// newPlanner returns a planner for m with an empty seed set over parts,
// which must tile the universe (one full engine, or partition.Tile's
// output).
func newPlanner(m *Model, parts ...*core.Engine) *Planner {
	return &Planner{m: m, parts: parts, probe: core.NewProbe(parts...)}
}

// Clone returns an independent copy: Add on the clone never disturbs the
// receiver, and the clone's results are bit-identical to those of a
// freshly scanned planner driven through the same calls. It copies the
// commit records and shares the engines.
func (p *Planner) Clone() *Planner { return &Planner{m: p.m, parts: p.parts, probe: p.probe.Clone()} }

// workers is the engines' worker knob, which query fan-out and CELF reuse.
func (p *Planner) workers() int { return p.parts[0].Workers() }

// partitioned reports whether the planner serves row-range partitions
// (even a single one covering every row) rather than one full engine.
func (p *Planner) partitioned() bool { return p.parts[0].IsPartition() }

// Gain returns the marginal gain sigma_cd(S+x) - sigma_cd(S) of candidate x
// against the committed seed set (Theorem 3). Read-only. An x outside
// [0, NumUsers) panics; Gains returns an error for it instead.
func (p *Planner) Gain(x NodeID) float64 { return p.probe.Gain(x, nil) }

// Add commits x to the seed set (Algorithm 5); committing a seed twice
// changes nothing.
func (p *Planner) Add(x NodeID) { p.probe.Commit(x, nil) }

// Seeds returns the committed seed set in selection order.
func (p *Planner) Seeds() []NodeID { return p.probe.Seeds() }

// Spread is SpreadObj under the default objective.
func (p *Planner) Spread(seeds []NodeID) (float64, error) { return p.SpreadObj(seeds, nil) }

// SpreadObj computes sigma_obj(S | R) from the planner's engines without
// writing them: the objective's blocked rivals R are committed to a clone
// of the planner's probe without counting their gains, then each seed's
// exact objective gain is summed as it is committed in input order — the
// telescoped sum that CELF's own Result.Spread() uses, marginal over any
// seeds the planner holds (duplicate seeds contribute 0). The value is
// bit-identical across partition counts, worker counts, and row stores.
// It is the spread of the lambda-truncated model the planner learned, not
// Model.SpreadObj's exact sigma_cd: at lambda > 0 it reads slightly below,
// and at lambda = 0 the two agree to float tolerance (the evaluator sums
// in per-action order). Costs and budget are rejected here.
func (p *Planner) SpreadObj(seeds []NodeID, o *Objective) (float64, error) {
	cobj, err := p.m.coreObjective(o, false)
	if err != nil {
		return 0, err
	}
	if err := checkIDs("seed", seeds, p.NumUsers()); err != nil {
		return 0, err
	}
	pr := p.probe.Clone()
	for _, s := range o.blocked() {
		pr.Commit(s, nil)
	}
	total := 0.0
	for _, s := range seeds {
		total += pr.Commit(s, cobj)
	}
	return total, nil
}

// Gains is GainsObj under the default objective.
func (p *Planner) Gains(base, candidates []NodeID) ([]float64, error) {
	return p.GainsObj(base, candidates, nil)
}

// GainsObj returns each candidate's marginal objective gain against the
// planner's committed seeds plus the base seed set, with the objective's
// blocked rivals committed first so every gain is marginal over the rival
// set too. The seeds are committed to a clone of the planner's probe, so
// the receiver is not changed, and the candidates fan over the engines'
// workers, each priced from its row's owner. GainsObj(base, cs, o)[i] is
// bit-for-bit the Gain a clone returns for cs[i] after Add-ing the rivals
// and base seeds in order, at any partition or worker count. Costs and
// budget are rejected here.
func (p *Planner) GainsObj(base, candidates []NodeID, o *Objective) ([]float64, error) {
	cobj, err := p.m.coreObjective(o, false)
	if err != nil {
		return nil, err
	}
	n := p.NumUsers()
	if err := checkIDs("seed", base, n); err != nil {
		return nil, err
	}
	if err := checkIDs("candidate", candidates, n); err != nil {
		return nil, err
	}
	pr := p.probe.Clone()
	for _, set := range [][]NodeID{o.blocked(), base} {
		for _, s := range set {
			pr.Commit(s, nil)
		}
	}
	out := make([]float64, len(candidates))
	par.For(len(candidates), p.workers(), func(_, i int) {
		out[i] = pr.Gain(candidates[i], cobj)
	})
	return out, nil
}

// Select greedily extends the committed seed set by up to k seeds with
// CELF (Algorithm 3) under the objective and returns the selection trace;
// summing its gains gives the predicted spread of the chosen seeds.
// Audience weights and window reprice every marginal gain, blocked rivals
// are committed up front (and excluded from the pool), and costs/budget
// turn the run into budgeted cost-benefit CELF with the
// best-affordable-singleton fallback (the (1-1/sqrt(e))-approximate
// rule). The run commits to a clone of the planner's probe, so the
// receiver is not changed. The first-iteration gain pass and stale-bound
// refreshes fan over the engines' workers, with bit-identical seeds and
// gains at any worker or partition count.
func (p *Planner) Select(k int, o *Objective) (seedsel.Result, error) {
	cobj, err := p.m.coreObjective(o, true)
	if err != nil {
		return seedsel.Result{}, err
	}
	est := p.probe.Clone().Estimator(cobj)
	opts := celf.Options{Workers: p.workers()}
	if o != nil {
		opts.Costs, opts.Budget, opts.Blocked = o.Costs, o.Budget, o.Blocked
	}
	for _, s := range o.blocked() {
		est.Add(s)
	}
	return celf.Run(est, k, opts), nil
}

// ExplainSeed decomposes candidate x's marginal gain against the
// committed seeds into its top credit paths. Committed seeds discount and
// zero out paths exactly as they discount Gain, so the explained value is
// bit-for-bit Gain(x), and a committed seed explains as 0. x's rows are
// read from the engine owning them, so the answer is the same at any
// partition count.
func (p *Planner) ExplainSeed(x NodeID, top int) (SeedExplanation, error) {
	if err := checkIDs("candidate", []NodeID{x}, p.NumUsers()); err != nil {
		return SeedExplanation{}, err
	}
	return p.probe.ExplainSeed(x, top), nil
}

// ExplainReach decomposes the credit the given seeds push onto target v:
// per-seed shares in input order whose fixed-order fold is bit-exactly
// the returned Total, plus the top contributing (seed, action) paths.
// Every seed's rows are read through the planner's probe, from the seed's
// owning partition, so the answer is the same at any partition count. A
// committed seed's row contributes nothing, and a committed target
// receives no credit. A seed listed twice is refused: its credit would
// count twice.
func (p *Planner) ExplainReach(seeds []NodeID, v NodeID, top int) (ReachExplanation, error) {
	n := p.NumUsers()
	if err := checkIDs("target", []NodeID{v}, n); err != nil {
		return ReachExplanation{}, err
	}
	if err := checkIDs("seed", seeds, n); err != nil {
		return ReachExplanation{}, err
	}
	seen := make(map[NodeID]struct{}, len(seeds))
	for _, s := range seeds {
		if _, dup := seen[s]; dup {
			return ReachExplanation{}, fmt.Errorf("credist: seed %d repeated in the seed set", s)
		}
		seen[s] = struct{}{}
	}
	return p.probe.ExplainReach(seeds, v, top), nil
}

// GrowableSelection is a prefix-incremental CELF run bound to its own
// planner clone: Grow(k) extends the committed selection to k seeds,
// keeping the lazy-forward heap across calls, so after Grow(50) any
// k <= 50 is answered from the recorded arrays and Grow(60) pays only the
// marginal work. Seeds are committed to the selection's own probe, never
// to the clone. Not safe for concurrent use; the serving layer serializes
// Grow and publishes immutable copies for readers.
type GrowableSelection struct {
	p   *Planner
	sel *celf.Selection
}

// NewSelection starts a growable selection over a clone of this planner,
// continuing from the planner's committed seeds. The selection commits
// its seeds to a probe of its own, so neither the receiver nor the clone
// sees them, and a later Add on the receiver does not reach the
// selection. This is how a serving layer grows selections off its
// incrementally extended base planner instead of forcing a second
// from-scratch scan out of the model. Seeds and gains are bit-identical
// at every partition count.
func (p *Planner) NewSelection() *GrowableSelection {
	q := p.Clone()
	return &GrowableSelection{p: q, sel: celf.NewSelection(q.probe.Clone().Estimator(nil), celf.Options{Workers: q.workers()})}
}

// ResumeSelection is NewSelection continuing from a previously computed
// prefix (typically the model's own restored SeedPrefix; nil starts
// empty): the prefix seeds are committed to the selection's probe without
// any gain evaluations, and the first Grow past the prefix pays one fresh
// gain pass to rebuild the heap. Seeds and gains of the continuation are
// bit-identical to a continuous run. A receiver holding committed seeds is
// rejected: a prefix describes a selection from an empty seed set. The
// prefix may come from a selection at a different partition count.
func (p *Planner) ResumeSelection(prefix *SeedPrefix) (*GrowableSelection, error) {
	if prefix == nil {
		return p.NewSelection(), nil
	}
	// Replaying a prefix on a planner with committed seeds would silently
	// double-commit any overlap and report gains from a state that never
	// existed.
	if committed := p.Seeds(); len(committed) > 0 {
		return nil, fmt.Errorf("credist: cannot resume a seed prefix on a planner with %d committed seeds", len(committed))
	}
	q := p.Clone()
	sel, err := celf.Resume(q.probe.Clone().Estimator(nil), *prefix, celf.Options{Workers: q.workers()})
	if err != nil {
		return nil, err
	}
	return &GrowableSelection{p: q, sel: sel}, nil
}

// Grow extends the selection to at most k seeds and returns the full
// accumulated trace (slicing it to any length <= Len yields that prefix's
// selection). Growing to a k at or below the current length does no work.
func (s *GrowableSelection) Grow(k int) seedsel.Result { return s.sel.Grow(k) }

// Len returns the number of committed seeds.
func (s *GrowableSelection) Len() int { return s.sel.Len() }

// Exhausted reports whether the candidate pool ran dry: no further Grow
// can add seeds.
func (s *GrowableSelection) Exhausted() bool { return s.sel.Exhausted() }

// Planner exposes the selection's owned planner for inspection (entries,
// resident bytes, actions scanned). It holds none of the selection's
// seeds, which live in the probe; mutating it corrupts the selection, so
// it is read-only by contract.
func (s *GrowableSelection) Planner() *Planner { return s.p }

// sum adds f over the engines.
func (p *Planner) sum(f func(*core.Engine) int64) int64 {
	var total int64
	for _, e := range p.parts {
		total += f(e)
	}
	return total
}

// Entries returns the number of live UC credit entries, the paper's memory
// statistic (Figure 8, Table 4). Every cell lives in exactly one
// partition, so the count is the same at any partition count.
func (p *Planner) Entries() int64 { return p.sum((*core.Engine).Entries) }

// ResidentBytes reports the UC structure's total footprint: HeapBytes
// plus MappedBytes.
func (p *Planner) ResidentBytes() int64 { return p.HeapBytes() + p.MappedBytes() }

// HeapBytes reports the Go-heap slice footprint of the UC structure;
// shards served from a mapped snapshot contribute nothing.
func (p *Planner) HeapBytes() int64 { return p.sum((*core.Engine).HeapBytes) }

// MappedBytes reports the file-backed footprint: bytes of mapped snapshot
// files this planner's shards alias (zero for heap-loaded models).
// Commits never change it.
func (p *Planner) MappedBytes() int64 { return p.sum((*core.Engine).MappedBytes) }

// RowStoreBackend reports how the planner's shards are served: "mmap"
// while any shard aliases a mapped snapshot, "heap" otherwise.
func (p *Planner) RowStoreBackend() string {
	for _, e := range p.parts {
		if e.RowStoreBackend() == "mmap" {
			return "mmap"
		}
	}
	return "heap"
}

// NumUsers returns the user-universe size.
func (p *Planner) NumUsers() int { return p.parts[0].NumNodes() }

// NumActions returns how many actions the planner has scanned.
func (p *Planner) NumActions() int { return p.parts[0].NumActions() }

// Extend derives the successor planner for m, this planner's model after
// an Ingest; it is m.ExtendPlanner(p).
func (p *Planner) Extend(m *Model) (*Planner, error) { return m.ExtendPlanner(p) }

// Freeze does nothing. Engines are immutable, so there is nothing left to
// freeze; it remains so existing callers keep compiling.
func (p *Planner) Freeze() {}
