package credist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"credist/internal/core"
	"credist/internal/ris"
)

// Approximate serving tier: bounded-error, bounded-latency answers from a
// shared RR-sample collection of reverse credit walks.
//
// The tier trades the exact evaluator's full credit-DAG walk per query for
// membership counting over pre-drawn samples, and reports an honest
// Wilson confidence interval around the exact sigma_cd value (the walks
// are exactly unbiased for it; see core.CreditWalkSource). A spread query
// never draws: the pool as it stands answers it, or the exact evaluator
// does. Only coverage seed selection and BuildApproxSketch grow the pool.
// Growth is striped and per-stream deterministic, so a pool of a given
// size is bit-identical regardless of worker count, growth history, or
// whether it was restored from a version-5 snapshot or drawn live.

const (
	// defaultApproxSeed is the PCG seed the tier samples with when none
	// was restored from a snapshot. Fixed so two processes serving the
	// same model return bit-identical approximate answers.
	defaultApproxSeed = 0x5eed
	// initialApproxSamples is the collection size the first seed
	// selection starts from before any eps-driven doubling.
	initialApproxSamples = 4 * ris.DefaultStripe
	// DefaultMaxApproxSamples caps adaptive growth when ApproxOptions
	// leaves MaxSamples zero; it matches the RecommendedSamples clamp.
	DefaultMaxApproxSamples = 500000
)

// ApproxOptions bounds one approximate query. Zero values mean: Eps 0.1,
// no wall-clock budget, DefaultMaxApproxSamples. Seed selection grows the
// pool until whichever bound binds first and reports the precision it
// achieved; sampling fans over GOMAXPROCS workers, bit-identical at any
// count. A spread query never grows it.
type ApproxOptions struct {
	// Eps is the target relative half-width of the confidence interval,
	// (CIHigh-CILow)/(2*Estimate).
	Eps float64
	// Budget caps seed selection's growth time; the reply still carries a
	// valid (wider) interval.
	Budget time.Duration
	// MaxSamples caps the pool; a spread query answers from a pool this
	// large at any Eps.
	MaxSamples int
}

// ApproxResult is one bounded-error answer from the approximate tier.
type ApproxResult struct {
	// Estimate is the RR estimate of sigma_cd, with [CILow, CIHigh] its
	// 99% Wilson confidence interval around the exact value. An exact
	// answer sets all three to sigma_cd.
	Estimate, CILow, CIHigh float64
	// AchievedEps is the realized relative half-width: 0 when exact, +Inf
	// for a pool estimate of zero, above Eps only when a bound stopped it.
	AchievedEps float64
	// Samples is the collection size the answer was computed from (0 when
	// exact); Grown is how many of those seed selection drew during this
	// call (0 when the pool, possibly snapshot-restored, sufficed).
	Samples, Grown int
	// Elapsed is the query's wall-clock time.
	Elapsed time.Duration
}

// ApproxStats describes the tier's current sample pool for /stats.
type ApproxStats struct {
	// Samples and Bytes size the current collection (0 until a sketch is
	// restored or a seed selection or BuildApproxSketch draws one).
	Samples int
	Bytes   int64
	// Sampled counts samples drawn by this process; a snapshot-restored
	// pool answers with Sampled 0 until a seed selection outgrows it.
	Sampled int64
}

// approxTier is the per-model pool ApproxSpread reads and ApproxSeeds grows.
type approxTier struct {
	mu sync.Mutex // serializes growth and the walk source's construction
	// coll is the published collection: readers load it atomically and
	// estimate against an immutable snapshot while growth swaps in a
	// superset. A version-5 snapshot's sketch is published when the model
	// loads (restoreApprox), so no other field ever stands in for it.
	coll atomic.Pointer[ris.Collection]
	// src is the credit-walk source, guarded by mu. It is built (with the
	// evaluator behind it) on the first draw only: a query the pool
	// already answers never builds either.
	src     *core.CreditWalkSource
	sampled atomic.Int64
}

// restoreApprox publishes a snapshot's RR sketch as the tier's pool,
// adopting its arena verbatim (nil sketch: nothing to do). The model must
// not be shared yet.
func (m *Model) restoreApprox(sk *core.RRSketch) error {
	if sk == nil {
		return nil
	}
	c, err := ris.FromSets(m.ds.Graph.NumNodes(), sk.Roots, sk.Seed, sk.Offs, sk.Nodes)
	if err != nil {
		return fmt.Errorf("credist: restored RR sketch: %w", err)
	}
	m.approx.coll.Store(c)
	return nil
}

// growApprox extends the published collection to count samples (no-op if
// it already holds that many) and returns the resulting collection. Only
// a draw builds the walk source.
func (m *Model) growApprox(count int) (*ris.Collection, error) {
	t := &m.approx
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.coll.Load()
	if c != nil && count <= c.NumSets() {
		return c, nil
	}
	if t.src == nil {
		src, err := m.eval().CreditWalks()
		if err != nil {
			return nil, err
		}
		t.src = src
	}
	var grown *ris.Collection
	had := 0
	if c == nil {
		grown = ris.CollectParallel(t.src, count, defaultApproxSeed, ris.CollectOptions{})
	} else {
		grown, had = c.Extend(t.src, count, ris.CollectOptions{}), c.NumSets()
	}
	t.sampled.Add(int64(grown.NumSets() - had))
	t.coll.Store(grown)
	return grown, nil
}

// ApproxSpreadFixed answers a spread query from the tier's existing pool
// alone: ApproxSpread capped at the pool's size, so it never falls back to
// the exact evaluator. ok is false when the tier holds no samples at all
// (the caller decides how to fail).
func (m *Model) ApproxSpreadFixed(seeds []NodeID) (ApproxResult, bool, error) {
	if err := checkIDs("seed", seeds, m.ds.Graph.NumNodes()); err != nil {
		return ApproxResult{}, false, err
	}
	c := m.approx.coll.Load()
	if c == nil {
		return ApproxResult{}, false, nil
	}
	res, err := m.ApproxSpread(seeds, ApproxOptions{MaxSamples: c.NumSets()})
	return res, true, err
}

func (o ApproxOptions) resolved() ApproxOptions {
	if o.Eps <= 0 {
		o.Eps = 0.1
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = DefaultMaxApproxSamples
	}
	return o
}

func approxResult(est ris.Estimate, grown int, start time.Time) ApproxResult {
	return ApproxResult{
		Estimate:    est.Spread,
		CILow:       est.Low,
		CIHigh:      est.High,
		AchievedEps: est.Eps,
		Samples:     est.Samples,
		Grown:       grown,
		Elapsed:     time.Since(start),
	}
}

// ApproxSpread answers a spread query within opts.Eps without drawing a
// sample: from the pool as it stands when that meets opts.Eps or holds
// opts.MaxSamples, else as Spread's exact value, bit for bit, with a
// zero-width interval and AchievedEps and Samples 0 (cheaper than growing
// the pool). The branch depends only on the model, its pool and the seed
// set, never on earlier queries. It is safe for concurrent use.
func (m *Model) ApproxSpread(seeds []NodeID, opts ApproxOptions) (ApproxResult, error) {
	start := time.Now()
	if err := checkIDs("seed", seeds, m.ds.Graph.NumNodes()); err != nil {
		return ApproxResult{}, err
	}
	opts = opts.resolved()
	if c := m.approx.coll.Load(); c != nil {
		if est := c.Estimate(seeds); est.Eps <= opts.Eps || c.NumSets() >= opts.MaxSamples {
			return approxResult(est, 0, start), nil
		}
	}
	exact := m.Spread(seeds)
	return ApproxResult{Estimate: exact, CILow: exact, CIHigh: exact, Elapsed: time.Since(start)}, nil
}

// ApproxSeeds runs greedy maximum-coverage seed selection over the
// RR-sample tier: the returned seeds maximize sample coverage, and the
// result's interval describes the selected set's spread. The pool doubles
// until the selected set's interval meets opts.Eps or another bound binds,
// re-selecting on each step since more samples can change the greedy
// choice. Every sample holds its root, so k >= 1 seeds always hit.
func (m *Model) ApproxSeeds(k int, opts ApproxOptions) ([]NodeID, ApproxResult, error) {
	if k < 1 {
		return nil, ApproxResult{}, fmt.Errorf("credist: k must be at least 1, got %d", k)
	}
	start, opts, had := time.Now(), opts.resolved(), m.ApproxStats().Samples
	var c *ris.Collection
	for size := min(initialApproxSamples, opts.MaxSamples); ; size = min(2*c.NumSets(), opts.MaxSamples) {
		var err error
		if c, err = m.growApprox(size); err != nil {
			return nil, ApproxResult{}, err
		}
		seeds, _ := c.SelectSeeds(k)
		est := c.Estimate(seeds)
		if est.Eps <= opts.Eps || c.NumSets() >= opts.MaxSamples ||
			(opts.Budget > 0 && time.Since(start) >= opts.Budget) {
			return seeds, approxResult(est, c.NumSets()-had, start), nil
		}
	}
}

// BuildApproxSketch grows the tier's sample pool to at least n samples so
// the next Save persists them (`credist learn -ris-samples`): a process
// restarted from that snapshot answers its first approximate query with
// zero sampling work.
func (m *Model) BuildApproxSketch(n int) error {
	if n <= 0 {
		return fmt.Errorf("credist: sketch size %d must be positive", n)
	}
	_, err := m.growApprox(n)
	return err
}

// ApproxStats reports the tier's current pool; see the field docs.
func (m *Model) ApproxStats() ApproxStats {
	t := &m.approx
	s := ApproxStats{Sampled: t.sampled.Load()}
	if c := t.coll.Load(); c != nil {
		s.Samples = c.NumSets()
		s.Bytes = c.Bytes()
	}
	return s
}

// approxSketch hands the tier's pool to the snapshot writer (nil when
// the tier holds nothing, keeping sketchless snapshots at version 3). The
// sketch aliases the collection's immutable arena; nothing is copied.
func (m *Model) approxSketch() *core.RRSketch {
	c := m.approx.coll.Load()
	if c == nil {
		return nil
	}
	offs, nodes := c.Samples()
	return &core.RRSketch{Seed: c.Seed(), Roots: c.Roots(), Offs: offs, Nodes: nodes}
}
