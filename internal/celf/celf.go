// Package celf is the shared seed-selection engine: lazy-forward greedy
// (CELF, Leskovec et al. — Algorithm 3 of the paper) with a parallel
// first-iteration marginal-gain pass, deterministic tie-breaking, and
// prefix-incremental results.
//
// Every seed-selection path in the repository — internal/seedsel's
// estimator-generic selectors, the credist.Model/Planner facade, serve's
// /seeds endpoint, cmd/experiments' figure drivers, and the RIS baseline —
// routes through this one implementation, so their selections agree bit
// for bit by construction instead of by parallel maintenance of two heaps.
//
// Determinism contract: Seeds and Gains (hence every per-prefix spread,
// the cumulative sum of Gains) are bit-for-bit identical across worker
// counts, runs, and process restarts, because each marginal gain is an
// independent evaluation against a fixed seed set (workers only schedule
// them) and every heap operation follows the total order (gain desc,
// node asc). Lookups/LookupsAt count actual Gain evaluations and may grow
// slightly with Workers: a stale run at the top of the queue is refreshed
// up to Workers entries at a time, and the speculative extras are wasted
// only when the first refresh alone would have surfaced a fresh top.
// Refreshing extra stale entries can never change which node is selected:
// refreshed gains are exact values under the current seed set, and by
// submodularity every stale cached gain is an upper bound, so the fresh
// maximum wins the pop order regardless of how many bounds were tightened
// early. With Workers: 1 the algorithm is exactly the classic serial CELF
// — one stale refresh per heap inspection, no speculation.
//
// Prefix-incremental contract: a Selection never recomputes a committed
// prefix. Grow(k) extends the selection to k seeds, keeping the heap of
// cached bounds across calls, so after Grow(50) the answer for every
// k <= 50 is a slice of the recorded arrays and Grow(60) pays only the
// marginal work. Resume rebuilds a Selection from a previously computed
// prefix (e.g. one restored from a binary model snapshot): the prefix
// seeds are committed to the estimator with Add, without any Gain
// evaluations, and the first growth past the prefix pays one fresh full
// pass to rebuild the heap.
// Seeds and Gains of a resumed selection are bit-identical to a
// continuous run; Lookups differ (the rebuild pass replaces the retained
// bounds a continuous run would have reused).
//
// Add is whatever commit the estimator defines. The CD model's production
// estimator (core.ProbeEstimator) records the seed in a read-only probe
// and replays it onto the rows of the candidates Gain re-prices, so a
// selection never writes the engine it selects over.
package celf

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"time"

	"credist/internal/graph"
	"credist/internal/par"
)

// Estimator is the marginal-gain oracle greedy needs. Implementations
// carry the current seed set as internal state: Gain must be side-effect
// free, Add commits a seed.
type Estimator interface {
	// NumNodes returns the candidate universe size (node ids 0..n-1).
	NumNodes() int
	// Gain returns sigma(S+x) - sigma(S) for the current seed set S.
	Gain(x graph.NodeID) float64
	// Add commits x to the seed set.
	Add(x graph.NodeID)
}

// ConcurrentEstimator marks an Estimator whose Gain is safe to call from
// many goroutines at once between Adds (i.e. Gain reads only state that
// Add-free execution leaves untouched). Only estimators carrying this
// marker are fanned over workers; anything else runs serially no matter
// what Options.Workers says, so a stateful Monte-Carlo or cached
// heuristic estimator can never be raced by accident.
type ConcurrentEstimator interface {
	Estimator
	// ConcurrentGain is a compile-time marker; it is never called.
	ConcurrentGain()
}

// Options configures a selection run.
type Options struct {
	// Workers bounds the gain-evaluation fan-out. 0 means GOMAXPROCS.
	// Ignored (forced to 1) unless the estimator implements
	// ConcurrentEstimator.
	Workers int
	// Candidates restricts the selection to a candidate pool; nil means
	// every node in [0, NumNodes()).
	Candidates []graph.NodeID
	// Costs assigns a positive selection cost to every node (indexed by
	// id, covering the universe); nil means unit costs, which keeps the
	// selection bit-identical to classic gain-ordered CELF. With costs
	// set, the lazy-forward heap orders candidates by gain per unit cost
	// (cost-benefit greedy). Lazy forwarding stays valid: a cached ratio
	// is a stale gain over a fixed cost, hence an upper bound by
	// submodularity, exactly as in the unit-cost case.
	Costs []float64
	// Budget caps the summed cost of the selected seeds; 0 means
	// unlimited. A candidate whose cost exceeds the remaining budget is
	// dropped permanently when it surfaces — the remaining budget only
	// ever shrinks, so it can never become affordable later. With nil
	// Costs every seed costs 1, making Budget a seed-count cap.
	Budget float64
	// Blocked removes nodes from the candidate pool — a rival's committed
	// seed set. Callers that want marginal gains measured against the
	// rival's set commit the blocked nodes to the estimator before
	// selecting; Blocked then keeps them from being picked again.
	Blocked []graph.NodeID
}

// Result reports a selection prefix.
type Result struct {
	// Seeds in selection order.
	Seeds []graph.NodeID
	// Gains[i] is the marginal gain of Seeds[i] when it was selected; the
	// cumulative sum is the (estimated) spread of each prefix.
	Gains []float64
	// Lookups counts Gain evaluations over the whole run so far, the
	// paper's measure of how much work CELF saves over plain greedy.
	Lookups int
	// LookupsAt[i] is the cumulative Gain-evaluation count at the moment
	// Seeds[i] was committed, so any prefix of the selection can report
	// the work that produced it.
	LookupsAt []int64
	// Elapsed[i] is the wall time spent selecting (summed over Grow
	// calls) until Seeds[i] was committed — the series behind the paper's
	// running-time figure. Zero for seeds adopted from a resumed prefix.
	Elapsed []time.Duration
}

// Spread returns the estimated spread of the full seed set (sum of gains).
func (r Result) Spread() float64 {
	total := 0.0
	for _, g := range r.Gains {
		total += g
	}
	return total
}

// Prefix is a previously computed selection prefix — seeds in selection
// order, their marginal gains, and the cumulative gain-evaluation count
// when each was committed. It is the one prefix representation shared by
// the whole repository: persisted in binary model snapshots (the facade
// and core alias it), and used to Resume a Selection without
// recomputing.
type Prefix struct {
	Seeds     []graph.NodeID
	Gains     []float64
	LookupsAt []int64
}

// Validate enforces the structural rules every prefix consumer relies on
// (and the snapshot writer mirrors, so it can never produce a file every
// load refuses): equal-length arrays, unique in-range seeds, finite
// gains, and non-decreasing lookup counts.
func (p *Prefix) Validate(numUsers int) error {
	if len(p.Seeds) != len(p.Gains) || len(p.Seeds) != len(p.LookupsAt) {
		return fmt.Errorf("celf: prefix arrays disagree: %d seeds, %d gains, %d lookup counts",
			len(p.Seeds), len(p.Gains), len(p.LookupsAt))
	}
	seen := make(map[graph.NodeID]struct{}, len(p.Seeds))
	prev := int64(0)
	for i, x := range p.Seeds {
		if x < 0 || int(x) >= numUsers {
			return fmt.Errorf("celf: prefix seed %d out of range [0,%d)", x, numUsers)
		}
		if _, dup := seen[x]; dup {
			return fmt.Errorf("celf: prefix seed %d committed twice", x)
		}
		seen[x] = struct{}{}
		if g := p.Gains[i]; math.IsNaN(g) || math.IsInf(g, 0) {
			return fmt.Errorf("celf: prefix gain %g at %d is not finite", g, i)
		}
		if l := p.LookupsAt[i]; l < prev {
			return fmt.Errorf("celf: prefix lookup counts decrease at %d (%d after %d)", i, l, prev)
		} else {
			prev = l
		}
	}
	return nil
}

// entry is a lazily evaluated candidate: gain was computed when the seed
// set had size round. key is the heap-ordering value — the gain itself
// under unit costs, gain/cost under per-node costs — kept alongside the
// raw gain so the recorded Gains stay marginal spreads either way.
type entry struct {
	node  graph.NodeID
	gain  float64
	key   float64
	round int
}

// gainHeap orders entries by (key desc, node asc) — the deterministic
// tie-break every selection path shares. Under unit costs key equals
// gain, so the order is the classic (gain desc, node asc).
type gainHeap []entry

func (h gainHeap) Len() int { return len(h) }
func (h gainHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key > h[j].key
	}
	return h[i].node < h[j].node
}
func (h gainHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x any)   { *h = append(*h, x.(entry)) }
func (h *gainHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Selection is a growable, prefix-incremental CELF run over one
// estimator. It is not safe for concurrent use; callers that share one
// Selection (the serving layer) serialize Grow externally and answer
// prefix reads from their own published copies.
type Selection struct {
	est        Estimator
	workers    int
	candidates []graph.NodeID // nil = all nodes
	costs      []float64      // nil = unit costs
	budget     float64        // 0 = unlimited
	blocked    map[graph.NodeID]struct{}

	h     gainHeap
	built bool

	seeds     []graph.NodeID
	gains     []float64
	lookupsAt []int64
	elapsed   []time.Duration
	lookups   int64
	spent     time.Duration
	spentCost float64

	// single is the best affordable singleton seen during the budgeted
	// first-iteration pass (gain desc, node asc); Run's best-of rule
	// compares it against the greedy set. node -1 means none.
	single entry

	batch []entry // scratch for stale-run refreshes
}

// NewSelection returns an empty selection over the estimator. Costs, when
// set, must be positive, finite, and cover the universe — the facade and
// serving layers validate user input before it reaches here.
func NewSelection(est Estimator, opts Options) *Selection {
	s := &Selection{
		est:        est,
		workers:    resolveWorkers(est, opts.Workers),
		candidates: opts.Candidates,
		costs:      opts.Costs,
		budget:     opts.Budget,
		single:     entry{node: -1, gain: math.Inf(-1)},
	}
	if len(opts.Blocked) > 0 {
		s.blocked = make(map[graph.NodeID]struct{}, len(opts.Blocked))
		for _, x := range opts.Blocked {
			s.blocked[x] = struct{}{}
		}
	}
	return s
}

// costOf returns x's selection cost (1 under unit costs).
func (s *Selection) costOf(x graph.NodeID) float64 {
	if s.costs == nil {
		return 1
	}
	return s.costs[x]
}

// keyOf returns the heap-ordering value for a candidate with the given
// gain: the gain itself under unit costs, gain per unit cost otherwise.
func (s *Selection) keyOf(x graph.NodeID, gain float64) float64 {
	if s.costs == nil {
		return gain
	}
	return gain / s.costs[x]
}

// affordable reports whether x fits in the remaining budget.
func (s *Selection) affordable(x graph.NodeID) bool {
	return s.budget <= 0 || s.spentCost+s.costOf(x) <= s.budget
}

// Resume rebuilds a selection from a previously computed prefix: the
// prefix seeds are committed to the estimator with Add (no Gain
// evaluations), and the recorded gains and lookup counts are adopted as
// the selection's own. The estimator must be fresh (no committed seeds).
// Growing past the prefix is bit-identical in Seeds and Gains to a
// continuous run that was stopped at the prefix length.
func Resume(est Estimator, prefix Prefix, opts Options) (*Selection, error) {
	if err := prefix.Validate(est.NumNodes()); err != nil {
		return nil, err
	}
	s := NewSelection(est, opts)
	for _, x := range prefix.Seeds {
		est.Add(x)
	}
	s.seeds = slices.Clone(prefix.Seeds)
	s.gains = slices.Clone(prefix.Gains)
	s.lookupsAt = slices.Clone(prefix.LookupsAt)
	s.elapsed = make([]time.Duration, len(prefix.Seeds))
	if n := len(prefix.LookupsAt); n > 0 {
		s.lookups = prefix.LookupsAt[n-1]
	}
	return s, nil
}

// Run selects up to k seeds in one shot: NewSelection + Grow. Under a
// budget it additionally applies the best-of rule: plain cost-benefit
// greedy has no approximation guarantee, but the better of the greedy set
// and the best affordable singleton achieves the (1 - 1/sqrt(e)) bound
// (Khuller, Moss, Naor — the budgeted-max-coverage argument, which
// carries over to any monotone submodular objective). When the singleton
// wins, the estimator's committed state still reflects the greedy path;
// budgeted runs are one-shot, so callers hand in a fresh estimator.
func Run(est Estimator, k int, opts Options) Result {
	s := NewSelection(est, opts)
	res := s.Grow(k)
	if s.budget > 0 && s.single.node >= 0 && s.single.gain > res.Spread() {
		return Result{
			Seeds:     []graph.NodeID{s.single.node},
			Gains:     []float64{s.single.gain},
			Lookups:   int(s.lookups),
			LookupsAt: []int64{s.lookups},
			Elapsed:   []time.Duration{s.spent},
		}
	}
	return res
}

// Len returns the number of committed seeds.
func (s *Selection) Len() int { return len(s.seeds) }

// Exhausted reports whether the candidate pool ran dry: no further Grow
// can add seeds.
func (s *Selection) Exhausted() bool { return s.built && s.h.Len() == 0 }

// Grow extends the selection to at most k seeds and returns the full
// accumulated result (an independent copy; slicing it to any length <=
// Len() yields that prefix's selection). Growing to a k at or below the
// current length does no work.
func (s *Selection) Grow(k int) Result {
	if k <= len(s.seeds) || s.Exhausted() {
		return s.result()
	}
	start := time.Now()
	if !s.built {
		s.buildHeap()
	}
	round := len(s.seeds)
	for len(s.seeds) < k && s.h.Len() > 0 {
		if s.budget > 0 && !s.affordable(s.h[0].node) {
			// Over the remaining budget, which only ever shrinks: drop it
			// for good, fresh or stale (affordability ignores the gain).
			heap.Pop(&s.h)
			continue
		}
		if s.h[0].round == round {
			// Fresh: by submodularity nothing below can beat it.
			top := heap.Pop(&s.h).(entry)
			s.est.Add(top.node)
			s.spentCost += s.costOf(top.node)
			s.seeds = append(s.seeds, top.node)
			s.gains = append(s.gains, top.gain)
			s.lookupsAt = append(s.lookupsAt, s.lookups)
			s.elapsed = append(s.elapsed, s.spent+time.Since(start))
			round++
			continue
		}
		// Stale run at the top: refresh up to Workers entries against the
		// current seed set in parallel and reinsert them. The run is popped
		// in heap order and reinserted in that same order, so the heap
		// layout — and therefore the selection — is deterministic.
		batch := s.batch[:0]
		for len(batch) < s.workers && s.h.Len() > 0 && s.h[0].round != round {
			e := heap.Pop(&s.h).(entry)
			if s.budget > 0 && !s.affordable(e.node) {
				continue // drop without paying a refresh
			}
			batch = append(batch, e)
		}
		par.For(len(batch), s.workers, func(_, i int) {
			batch[i].gain = s.est.Gain(batch[i].node)
			batch[i].key = s.keyOf(batch[i].node, batch[i].gain)
			batch[i].round = round
		})
		s.lookups += int64(len(batch))
		for _, e := range batch {
			heap.Push(&s.h, e)
		}
		s.batch = batch
	}
	s.spent += time.Since(start)
	return s.result()
}

// buildHeap runs the first-iteration marginal-gain pass: every candidate
// outside the committed seed set is evaluated (fanned over the workers,
// written by index so scheduling cannot reorder anything) and the heap is
// initialized from the candidate-ordered slice.
func (s *Selection) buildHeap() {
	var pool []graph.NodeID
	if s.candidates != nil {
		pool = s.candidates
	} else {
		pool = make([]graph.NodeID, s.est.NumNodes())
		for i := range pool {
			pool[i] = graph.NodeID(i)
		}
	}
	if len(s.seeds) > 0 || len(s.blocked) > 0 {
		excluded := make(map[graph.NodeID]struct{}, len(s.seeds)+len(s.blocked))
		for _, x := range s.seeds {
			excluded[x] = struct{}{}
		}
		for x := range s.blocked {
			excluded[x] = struct{}{}
		}
		// The caller's Candidates slice is never mutated and, when no
		// committed or blocked seed appears in it, never copied either —
		// long-lived pools (the RIS tier hands its covered-node index
		// straight in, on every selection) stay zero-allocation here.
		overlap := 0
		for _, x := range pool {
			if _, in := excluded[x]; in {
				overlap++
			}
		}
		if overlap > 0 {
			filtered := make([]graph.NodeID, 0, len(pool)-overlap)
			for _, x := range pool {
				if _, in := excluded[x]; !in {
					filtered = append(filtered, x)
				}
			}
			pool = filtered
		}
	}
	round := len(s.seeds)
	ents := make(gainHeap, len(pool))
	par.For(len(pool), s.workers, func(_, i int) {
		g := s.est.Gain(pool[i])
		ents[i] = entry{node: pool[i], gain: g, key: s.keyOf(pool[i], g), round: round}
	})
	s.lookups += int64(len(pool))
	if s.budget > 0 {
		// Track the best affordable singleton (gain desc, node asc) for
		// Run's best-of rule — serially, after the parallel pass, so the
		// choice cannot depend on worker scheduling.
		for _, e := range ents {
			if s.costOf(e.node) > s.budget {
				continue
			}
			if e.gain > s.single.gain || (e.gain == s.single.gain && e.node < s.single.node) {
				s.single = e
			}
		}
	}
	heap.Init(&ents)
	s.h = ents
	s.built = true
}

// result snapshots the accumulated selection into an independent Result.
func (s *Selection) result() Result {
	return Result{
		Seeds:     slices.Clone(s.seeds),
		Gains:     slices.Clone(s.gains),
		Lookups:   int(s.lookups),
		LookupsAt: slices.Clone(s.lookupsAt),
		Elapsed:   slices.Clone(s.elapsed),
	}
}

// resolveWorkers applies the safety rule: only marked-concurrent
// estimators are fanned out at all. Others get par's worker-count rule,
// unclamped, since the count also sizes the stale-refresh batch.
func resolveWorkers(est Estimator, workers int) int {
	if _, ok := est.(ConcurrentEstimator); !ok {
		return 1
	}
	return par.Workers(math.MaxInt, workers)
}
