package credist

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/seedsel"
)

// Objective describes a campaign-shaped query against a model: who counts
// (a target audience, uniform or weighted), when they count (a time
// window from each action's start), what seeds cost (per-node costs under
// a total budget), and which rival seeds are already committed (blocked).
// The zero value is the default objective — the paper's single global
// sigma_cd — and every evaluation path routes it through the exact
// pre-objective code, so default answers are bit-identical to a build
// without the objective layer; non-default answers are bit-identical
// across worker and partition counts.
//
// Audience, window, and blocked change what a seed set is *worth* and
// apply to SpreadObj, GainsObj, and SelectSeedsObj alike. Costs and
// Budget change which seeds get *picked* and apply only to selection;
// SpreadObj and GainsObj reject them.
type Objective struct {
	// Audience restricts the objective to these users, each with weight 1
	// (everyone else weighs 0). Mutually exclusive with Weights.
	Audience []NodeID
	// Weights gives an explicit per-user audience weight vector covering
	// the whole universe; entries must be finite and non-negative.
	Weights []float64
	// Windowed enables the time window [0, Window]: credit for a
	// participation later than Window after its action's first
	// participation counts for nothing. Window is in the action log's
	// time units and must be finite and non-negative.
	Windowed bool
	Window   float64
	// Costs gives per-user seeding costs (finite, positive, covering the
	// universe); nil means unit costs. With costs, selection orders
	// candidates by gain per unit cost.
	Costs []float64
	// Budget caps the selection's total seed cost; 0 means unlimited.
	// Under nil Costs a positive budget is a seed-count cap.
	Budget float64
	// Blocked is a rival's committed seed set: excluded from selection,
	// and spreads/gains are marginal over it (sigma(S | Blocked)).
	Blocked []NodeID
}

// IsDefault reports whether o is the default objective across every
// dimension — the zero value, for which all Obj entry points take the
// exact pre-objective code paths.
func (o *Objective) IsDefault() bool {
	return o == nil || (o.Audience == nil && o.Weights == nil && !o.Windowed &&
		o.Costs == nil && o.Budget == 0 && len(o.Blocked) == 0)
}

// evalDefault reports whether the objective's evaluation dimensions —
// audience, window, blocked — are default; costs and budget do not
// change what a fixed seed set is worth.
func (o *Objective) evalDefault() bool {
	return o == nil || (o.Audience == nil && o.Weights == nil && !o.Windowed && len(o.Blocked) == 0)
}

// checkIDs rejects out-of-universe node ids with an error naming the
// first offender, so malformed requests fail before reaching an engine
// (where a routing miss is a panic).
func checkIDs(kind string, ids []NodeID, numUsers int) error {
	for _, x := range ids {
		if int(x) < 0 || int(x) >= numUsers {
			return fmt.Errorf("credist: %s %d outside the universe [0,%d)", kind, x, numUsers)
		}
	}
	return nil
}

// validate enforces the objective's structural rules against a universe
// size; selection reports whether costs/budget are legal in this context.
func (o *Objective) validate(numUsers int, selection bool) error {
	if o == nil {
		return nil
	}
	if o.Audience != nil && o.Weights != nil {
		return fmt.Errorf("credist: objective sets both an audience and explicit weights")
	}
	if err := checkIDs("audience user", o.Audience, numUsers); err != nil {
		return err
	}
	if o.Weights != nil && len(o.Weights) != numUsers {
		return fmt.Errorf("credist: objective weights cover %d users, universe has %d", len(o.Weights), numUsers)
	}
	for u, w := range o.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return fmt.Errorf("credist: objective weight %g for user %d (want finite and non-negative)", w, u)
		}
	}
	if o.Windowed && (math.IsNaN(o.Window) || math.IsInf(o.Window, 0) || o.Window < 0) {
		return fmt.Errorf("credist: objective window %g (want finite and non-negative)", o.Window)
	}
	if err := checkIDs("blocked user", o.Blocked, numUsers); err != nil {
		return err
	}
	if !selection && (o.Costs != nil || o.Budget != 0) {
		return fmt.Errorf("credist: costs and budget apply to seed selection, not spread or gain evaluation")
	}
	if o.Costs != nil && len(o.Costs) != numUsers {
		return fmt.Errorf("credist: objective costs cover %d users, universe has %d", len(o.Costs), numUsers)
	}
	for u, c := range o.Costs {
		if math.IsNaN(c) || math.IsInf(c, 0) || c <= 0 {
			return fmt.Errorf("credist: objective cost %g for user %d (want finite and positive)", c, u)
		}
	}
	if math.IsNaN(o.Budget) || math.IsInf(o.Budget, 0) || o.Budget < 0 {
		return fmt.Errorf("credist: objective budget %g (want finite and non-negative)", o.Budget)
	}
	return nil
}

// coreObjective validates o and lowers its evaluation dimensions to the
// core representation, attaching the model's cached delay index when the
// window needs one. The result is nil (the core default) whenever
// audience and window are default — blocked, costs, and budget live
// above the core layer.
func (m *Model) coreObjective(o *Objective, selection bool) (*core.Objective, error) {
	if err := o.validate(m.ds.Graph.NumNodes(), selection); err != nil {
		return nil, err
	}
	if o == nil || (o.Audience == nil && o.Weights == nil && !o.Windowed) {
		return nil, nil
	}
	cobj := &core.Objective{}
	switch {
	case o.Audience != nil:
		w := make([]float64, m.ds.Graph.NumNodes())
		for _, u := range o.Audience {
			w[u] = 1
		}
		cobj.Weights = w
	case o.Weights != nil:
		cobj.Weights = o.Weights
	}
	if o.Windowed {
		cobj.Windowed = true
		cobj.Tau = o.Window
		cobj.Delays = m.delays()
	}
	return cobj, nil
}

// SpreadObj predicts the objective spread sigma_obj(S), conditional on
// the objective's blocked rival set when one is present:
// sigma_obj(S | R) = sigma_obj(R+S) - sigma_obj(R), both terms evaluated
// on the exact per-action credit propagations. The default objective is
// exactly Spread, bit for bit. Costs and budget are rejected here.
func (m *Model) SpreadObj(seeds []NodeID, o *Objective) (float64, error) {
	cobj, err := m.coreObjective(o, false)
	if err != nil {
		return 0, err
	}
	if err := checkIDs("seed", seeds, m.ds.Graph.NumNodes()); err != nil {
		return 0, err
	}
	if o.evalDefault() {
		return m.Spread(seeds), nil
	}
	ev := m.eval()
	if o == nil || len(o.Blocked) == 0 {
		return ev.SpreadObj(seeds, cobj), nil
	}
	union := make([]NodeID, 0, len(o.Blocked)+len(seeds))
	union = append(append(union, o.Blocked...), seeds...)
	return ev.SpreadObj(union, cobj) - ev.SpreadObj(o.Blocked, cobj), nil
}

// GainsObj is Gains under an objective: each candidate's marginal
// objective gain against the base seed set, with the objective's blocked
// rivals committed first so every gain is marginal over the rival set
// too. The default objective is exactly Gains, bit for bit. Costs and
// budget are rejected here.
func (m *Model) GainsObj(base, candidates []NodeID, o *Objective) ([]float64, error) {
	return m.GainsObjOn(&Planner{eng: m.base()}, base, candidates, o)
}

// gainsOn prices candidates under cobj (nil is the default objective)
// against blocked then base committed in order, through a core.Probe over
// eng: the engine is only read — never cloned, written or promoted — and
// every value is bit-for-bit what GainObj returns on a clone after Add-ing
// the same seeds. Candidates fan over the engine's workers.
func gainsOn(eng *core.Engine, blocked, base, candidates []NodeID, cobj *core.Objective) []float64 {
	pr := core.NewProbe(eng)
	for _, set := range [][]NodeID{blocked, base} {
		for _, s := range set {
			pr.Commit(s, nil)
		}
	}
	out := make([]float64, len(candidates))
	fanGains(eng.Workers(), len(candidates), func(i int) {
		out[i] = pr.Gain(candidates[i], cobj)
	})
	return out
}

// fanGains prices n candidates over the engine's worker knob (0 means
// GOMAXPROCS, matching the scan and the CELF fan-out). Probe.Gain is
// read-only, and every result is written by index from an independent
// evaluation, so the floats are identical at every worker count.
func fanGains(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// GainsObjOn is GainsObj evaluated over a caller-supplied scanned planner
// — a serving layer's (possibly ingest-extended) base — instead of the
// model's lazy base, whose first use for an ingest-grown model would be a
// second from-scratch scan of the combined log. The planner is never
// mutated or cloned: the seeds are committed to a read-only probe over it.
func (m *Model) GainsObjOn(p *Planner, base, candidates []NodeID, o *Objective) ([]float64, error) {
	cobj, err := m.coreObjective(o, false)
	if err != nil {
		return nil, err
	}
	n := m.ds.Graph.NumNodes()
	if err := checkIDs("seed", base, n); err != nil {
		return nil, err
	}
	if err := checkIDs("candidate", candidates, n); err != nil {
		return nil, err
	}
	var blocked []NodeID
	if o != nil {
		blocked = o.Blocked
	}
	return gainsOn(p.eng, blocked, base, candidates, cobj), nil
}

// SelectSeedsObjOn is SelectSeedsObj run over a clone of a caller-supplied
// planner (never the receiver itself). Unlike SelectSeedsObj it does not
// route the default objective anywhere special — it always runs a fresh
// one-shot selection — because its caller (the serving layer) routes
// default requests to its memoized growable selection before coming here.
func (m *Model) SelectSeedsObjOn(p *Planner, k int, o *Objective) (seedsel.Result, error) {
	cobj, err := m.coreObjective(o, true)
	if err != nil {
		return seedsel.Result{}, err
	}
	var blocked, costs = []NodeID(nil), []float64(nil)
	budget := 0.0
	if o != nil {
		blocked, costs, budget = o.Blocked, o.Costs, o.Budget
	}
	work := p.Clone()
	seen := make(map[NodeID]bool, len(blocked))
	for _, s := range blocked {
		if !seen[s] {
			seen[s] = true
			work.Add(s)
		}
	}
	opts := celf.Options{Workers: work.eng.Workers(), Costs: costs, Budget: budget, Blocked: blocked}
	if cobj == nil {
		return celf.Run(work.eng, k, opts), nil
	}
	return celf.Run(objEstimator{eng: work.eng, obj: cobj}, k, opts), nil
}

// objEstimator wraps a planner engine so CELF prices candidates under an
// objective. Only Gain changes — seed commits are objective-independent,
// which is what lets the selection machinery (lazy-forward heap,
// copy-on-write clones, parallel first pass) run unchanged.
type objEstimator struct {
	eng *core.Engine
	obj *core.Objective
}

func (e objEstimator) NumNodes() int         { return e.eng.NumNodes() }
func (e objEstimator) Gain(x NodeID) float64 { return e.eng.GainObj(x, e.obj) }
func (e objEstimator) Add(x NodeID)          { e.eng.Add(x) }

// ConcurrentGain marks Gain as safe between Adds: GainObj, like Gain, is
// read-only. Compile-time marker, never called.
func (e objEstimator) ConcurrentGain() {}

// SelectSeedsObj runs seed selection under the full objective: audience
// weights and window reprice every marginal gain, blocked rivals are
// committed up front (and excluded from the pool), and costs/budget turn
// the run into budgeted cost-benefit CELF with the best-affordable-
// singleton fallback (the (1-1/sqrt(e))-approximate rule). The default
// objective is exactly Selection, bit for bit; non-default selections
// are bit-identical at every worker count.
func (m *Model) SelectSeedsObj(k int, o *Objective) (seedsel.Result, error) {
	cobj, err := m.coreObjective(o, true)
	if err != nil {
		return seedsel.Result{}, err
	}
	if o.IsDefault() {
		return m.selection(k), nil
	}
	p := m.NewPlanner()
	seen := make(map[NodeID]bool, len(o.Blocked))
	for _, s := range o.Blocked {
		if !seen[s] {
			seen[s] = true
			p.Add(s)
		}
	}
	opts := celf.Options{Workers: p.eng.Workers(), Costs: o.Costs, Budget: o.Budget, Blocked: o.Blocked}
	if cobj == nil {
		return celf.Run(p.eng, k, opts), nil
	}
	return celf.Run(objEstimator{eng: p.eng, obj: cobj}, k, opts), nil
}

// SpreadObj is Model.SpreadObj served scatter-gather: the conditional
// objective spread as a telescoped sum of owner-priced objective gains.
// Bit-identical across partition and worker counts; the default
// objective routes through Spread. m supplies the objective context
// (universe, delay index) and must be the model these partitions serve.
func (pp *PartitionedPlanner) SpreadObj(m *Model, seeds []NodeID, o *Objective) (float64, error) {
	cobj, err := m.coreObjective(o, false)
	if err != nil {
		return 0, err
	}
	var blocked []NodeID
	if o != nil {
		blocked = o.Blocked
	}
	return pp.coord.SpreadObj(seeds, cobj, blocked)
}

// GainsObj is Model.GainsObj served scatter-gather, every candidate
// priced by its row's owning partition. Bit-identical across partition
// and worker counts; the default objective routes through Gains.
func (pp *PartitionedPlanner) GainsObj(m *Model, base, candidates []NodeID, o *Objective) ([]float64, error) {
	cobj, err := m.coreObjective(o, false)
	if err != nil {
		return nil, err
	}
	var blocked []NodeID
	if o != nil {
		blocked = o.Blocked
	}
	return pp.coord.GainsObj(base, candidates, cobj, blocked)
}

// SelectSeedsObj is Model.SelectSeedsObj served scatter-gather over
// fresh partition clones. Seeds and gains are bit-identical to the
// single-engine objective selection at every partition count.
func (pp *PartitionedPlanner) SelectSeedsObj(m *Model, k int, o *Objective) (seedsel.Result, error) {
	cobj, err := m.coreObjective(o, true)
	if err != nil {
		return seedsel.Result{}, err
	}
	var opts celf.Options
	if o != nil {
		opts = celf.Options{Costs: o.Costs, Budget: o.Budget, Blocked: o.Blocked}
	}
	return pp.coord.SelectObj(cobj, k, opts), nil
}
