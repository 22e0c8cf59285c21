package credist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"credist/internal/core"
	"credist/internal/ris"
)

// Approximate serving tier: bounded-error, bounded-latency spread answers
// from a shared RR-sample collection of reverse credit walks.
//
// The tier trades the exact evaluator's full credit-DAG walk per query for
// membership counting over pre-drawn samples, and reports an honest
// Wilson confidence interval around the exact sigma_cd value (the walks
// are exactly unbiased for it; see core.CreditWalkSource). Samples are
// drawn once and shared: a query with a tight eps grows the collection,
// and every later query answers from the grown pool for free. Growth is
// striped and per-stream deterministic, so the answer to any query is
// bit-identical regardless of worker count, growth history, or whether
// the collection was restored from a version-5 snapshot or drawn live.

const (
	// defaultApproxSeed is the PCG seed the tier samples with when none
	// was restored from a snapshot. Fixed so two processes serving the
	// same model return bit-identical approximate answers.
	defaultApproxSeed = 0x5eed
	// initialApproxSamples is the collection size the first approximate
	// query starts from before any eps-driven doubling.
	initialApproxSamples = 4 * ris.DefaultStripe
	// DefaultMaxApproxSamples caps adaptive growth when ApproxOptions
	// leaves MaxSamples zero; it matches the RecommendedSamples clamp.
	DefaultMaxApproxSamples = 500000
	// zeroHitStopSamples stops eps-driven growth for a seed set no sample
	// hits: its relative half-width is undefined (+Inf) at any pool size,
	// so past this many samples the tier reports the absolute interval
	// [0, small] instead of growing to the cap chasing an unreachable eps.
	zeroHitStopSamples = 16 * ris.DefaultStripe
)

// ApproxOptions bounds one approximate query. Zero values mean: Eps 0.1,
// no wall-clock budget, DefaultMaxApproxSamples. Eps and Budget may be
// combined; the query stops at whichever bound binds first and reports
// the precision it actually achieved. Sampling fans over GOMAXPROCS
// workers, with bit-identical answers at any count.
type ApproxOptions struct {
	// Eps is the target relative half-width of the confidence interval:
	// the query grows the sample pool until
	// (CIHigh-CILow)/(2*Estimate) <= Eps or another bound binds.
	Eps float64
	// Budget caps the query's wall-clock time. Growth stops once spent;
	// the reply still carries a valid (wider) interval.
	Budget time.Duration
	// MaxSamples caps the collection size this query may grow to.
	MaxSamples int
}

// ApproxResult is one bounded-error answer from the approximate tier.
type ApproxResult struct {
	// Estimate is the RR estimate of sigma_cd, with [CILow, CIHigh] its
	// 99% Wilson confidence interval around the exact value.
	Estimate, CILow, CIHigh float64
	// AchievedEps is the realized relative half-width; +Inf when the
	// estimate is zero. At most Eps when the eps bound is what stopped
	// growth.
	AchievedEps float64
	// Samples is the collection size the answer was computed from; Grown
	// is how many of those were drawn during this call (0 when the pool —
	// possibly snapshot-restored — was already sufficient).
	Samples, Grown int
	// Elapsed is the query's wall-clock time.
	Elapsed time.Duration
}

// ApproxStats describes the tier's current sample pool for /stats.
type ApproxStats struct {
	// Samples and Bytes size the current collection (0 before the first
	// approximate query on a model with no restored sketch).
	Samples int
	Bytes   int64
	// Sampled counts samples drawn by this process; a snapshot-restored
	// pool answers with Sampled 0 until a query outgrows it.
	Sampled int64
}

// approxTier is the per-model state behind ApproxSpread/ApproxSeeds.
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
// alone: ApproxSpread capped at the pool's size, so it never draws a
// sample or builds the credit-walk source. ok is false when the tier
// holds no samples at all (the caller decides how to fail).
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

// ApproxSpread answers a spread query from the RR-sample tier: an
// unbiased estimate of sigma_cd(seeds) with a 99% Wilson confidence
// interval, growing the shared sample pool (doubling, reusing every
// already-drawn stripe) until the interval's relative half-width reaches
// opts.Eps or the time/sample budget is spent. It is safe for concurrent
// use and deterministic: the same model state and seed set yield the same
// answer at any worker count.
func (m *Model) ApproxSpread(seeds []NodeID, opts ApproxOptions) (ApproxResult, error) {
	if err := checkIDs("seed", seeds, m.ds.Graph.NumNodes()); err != nil {
		return ApproxResult{}, err
	}
	_, res, err := m.approxQuery(opts, func(*ris.Collection) []NodeID { return seeds })
	return res, err
}

// ApproxSeeds runs greedy maximum-coverage seed selection over the
// RR-sample tier: the returned seeds maximize sample coverage, and the
// result's interval describes the selected set's spread. The pool grows
// (within the same bounds as ApproxSpread) until the selected set's
// interval meets opts.Eps, re-selecting on each growth step since more
// samples can change the greedy choice.
func (m *Model) ApproxSeeds(k int, opts ApproxOptions) ([]NodeID, ApproxResult, error) {
	return m.approxQuery(opts, func(c *ris.Collection) []NodeID {
		seeds, _ := c.SelectSeeds(k)
		return seeds
	})
}

// approxQuery is the one bounded growth loop behind ApproxSpread and
// ApproxSeeds: pick chooses the seed set from the current pool, and the
// pool doubles until the set's interval meets opts.Eps or a sample, time
// or zero-hit bound binds first. A pool already at opts.MaxSamples answers
// at once, drawing nothing.
func (m *Model) approxQuery(opts ApproxOptions, pick func(*ris.Collection) []NodeID) ([]NodeID, ApproxResult, error) {
	start := time.Now()
	opts = opts.resolved()
	c := m.approx.coll.Load()
	grown := 0
	if c == nil {
		var err error
		if c, err = m.growApprox(min(initialApproxSamples, opts.MaxSamples)); err != nil {
			return nil, ApproxResult{}, err
		}
		grown = c.NumSets()
	}
	for {
		seeds := pick(c)
		est := c.Estimate(seeds)
		if est.Eps <= opts.Eps ||
			(est.Hits == 0 && c.NumSets() >= zeroHitStopSamples) ||
			c.NumSets() >= opts.MaxSamples ||
			(opts.Budget > 0 && time.Since(start) >= opts.Budget) {
			return seeds, ApproxResult{
				Estimate:    est.Spread,
				CILow:       est.Low,
				CIHigh:      est.High,
				AchievedEps: est.Eps,
				Samples:     est.Samples,
				Grown:       grown,
				Elapsed:     time.Since(start),
			}, nil
		}
		next, err := m.growApprox(min(2*c.NumSets(), opts.MaxSamples))
		if err != nil {
			return nil, ApproxResult{}, err
		}
		grown += next.NumSets() - c.NumSets()
		c = next
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
