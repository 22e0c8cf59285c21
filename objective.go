package credist

import (
	"fmt"
	"math"

	"credist/internal/celf"
	"credist/internal/core"
	"credist/internal/par"
	"credist/internal/seedsel"
)

// Objective describes a campaign-shaped query against a model: who counts
// (a target audience, uniform or weighted), when they count (a time
// window from each action's start), what seeds cost (per-node costs under
// a total budget), and which rival seeds are already committed (blocked).
// The zero value (like a nil *Objective) is the default objective — the
// paper's single global sigma_cd. Every entry point takes the objective
// as an argument and lowers the default to the core's nil objective, so
// default answers are bit-identical to Spread, Gains and SelectSeeds;
// every answer is bit-identical across worker and partition counts.
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

// blocked returns the objective's rival seed set (nil for the default).
func (o *Objective) blocked() []NodeID {
	if o == nil {
		return nil
	}
	return o.Blocked
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
// above the core layer. A nil o needs no model context, so m may be nil.
func (m *Model) coreObjective(o *Objective, selection bool) (*core.Objective, error) {
	if o == nil {
		return nil, nil
	}
	if err := o.validate(m.ds.Graph.NumNodes(), selection); err != nil {
		return nil, err
	}
	if o.Audience == nil && o.Weights == nil && !o.Windowed {
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
// on the exact per-action credit propagations. A nil objective is exactly
// Spread, bit for bit. Costs and budget are rejected here.
func (m *Model) SpreadObj(seeds []NodeID, o *Objective) (float64, error) {
	cobj, err := m.coreObjective(o, false)
	if err != nil {
		return 0, err
	}
	if err := checkIDs("seed", seeds, m.ds.Graph.NumNodes()); err != nil {
		return 0, err
	}
	ev := m.eval()
	if len(o.blocked()) == 0 {
		return ev.Spread(seeds, cobj), nil
	}
	union := make([]NodeID, 0, len(o.Blocked)+len(seeds))
	union = append(append(union, o.Blocked...), seeds...)
	return ev.Spread(union, cobj) - ev.Spread(o.Blocked, cobj), nil
}

// GainsObj is Gains under an objective: each candidate's marginal
// objective gain against the base seed set, with the objective's blocked
// rivals committed first so every gain is marginal over the rival set
// too. The default objective is exactly Gains, bit for bit. Costs and
// budget are rejected here.
func (m *Model) GainsObj(base, candidates []NodeID, o *Objective) ([]float64, error) {
	return m.GainsObjOn(m.NewPlanner(), base, candidates, o)
}

// gainsOn prices candidates under cobj (nil is the default objective)
// against blocked then base, committed in order to pr (which the caller
// hands over): the engine is only read, and every value is bit-for-bit
// the gain after committing the same seeds in place. Candidates fan over
// the engine's workers.
func gainsOn(pr *core.Probe, workers int, blocked, base, candidates []NodeID, cobj *core.Objective) []float64 {
	for _, set := range [][]NodeID{blocked, base} {
		for _, s := range set {
			pr.Commit(s, nil)
		}
	}
	out := make([]float64, len(candidates))
	par.For(len(candidates), workers, func(_, i int) {
		out[i] = pr.Gain(candidates[i], cobj)
	})
	return out
}

// GainsObjOn is GainsObj evaluated over a caller-supplied scanned planner
// — a serving layer's (possibly ingest-extended or partitioned) base —
// instead of the model's lazy base, whose first use for an ingest-grown
// model would be a second from-scratch scan of the combined log. The gains
// are marginal over the planner's committed seeds too; the planner is not
// changed: the seeds are committed to a clone of its probe.
func (m *Model) GainsObjOn(p *Planner, base, candidates []NodeID, o *Objective) ([]float64, error) {
	cobj, err := m.coreObjective(o, false)
	if err != nil {
		return nil, err
	}
	return p.gainsObj(o.blocked(), base, candidates, cobj)
}

// gainsObj checks the ids against the planner's universe and prices the
// candidates under cobj over a clone of its probe (see gainsOn).
func (p *Planner) gainsObj(blocked, base, candidates []NodeID, cobj *core.Objective) ([]float64, error) {
	n := p.NumUsers()
	if err := checkIDs("seed", base, n); err != nil {
		return nil, err
	}
	if err := checkIDs("candidate", candidates, n); err != nil {
		return nil, err
	}
	return gainsOn(p.probe.Clone(), p.workers(), blocked, base, candidates, cobj), nil
}

// SelectSeedsObjOn is SelectSeedsObj run over a caller-supplied scanned
// planner, starting from its committed seeds. The planner is not changed:
// the rivals and the selected seeds are committed to a clone of its
// probe. It always runs a fresh one-shot selection;
// the serving layer routes default requests to its memoized growable
// selection before coming here.
func (m *Model) SelectSeedsObjOn(p *Planner, k int, o *Objective) (seedsel.Result, error) {
	cobj, err := m.coreObjective(o, true)
	if err != nil {
		return seedsel.Result{}, err
	}
	return selectObjOn(p.probe.Clone(), p.workers(), k, cobj, o), nil
}

// selectObjOn runs celf.Run under cobj over an estimator on pr (which the
// caller hands over), with o's blocked rivals committed first (so every
// gain is marginal over them) and excluded from the pool, and o's costs
// and budget applied.
func selectObjOn(pr *core.Probe, workers, k int, cobj *core.Objective, o *Objective) seedsel.Result {
	est := pr.Estimator(cobj)
	for _, s := range o.blocked() {
		est.Add(s)
	}
	opts := selectOptions(o)
	opts.Workers = workers
	return celf.Run(est, k, opts)
}

// selectOptions carries o's costs, budget and blocked rivals into celf.
func selectOptions(o *Objective) celf.Options {
	if o == nil {
		return celf.Options{}
	}
	return celf.Options{Costs: o.Costs, Budget: o.Budget, Blocked: o.Blocked}
}

// SelectSeedsObj runs seed selection under the full objective: audience
// weights and window reprice every marginal gain, blocked rivals are
// committed up front (and excluded from the pool), and costs/budget turn
// the run into budgeted cost-benefit CELF with the best-affordable-
// singleton fallback (the (1-1/sqrt(e))-approximate rule). The default
// objective is exactly Selection, bit for bit; non-default selections
// are bit-identical at every worker count.
func (m *Model) SelectSeedsObj(k int, o *Objective) (seedsel.Result, error) {
	return m.SelectSeedsObjOn(m.NewPlanner(), k, o)
}

// SpreadObj is the planner's telescoped Spread under an objective: the
// objective's blocked rivals are committed to a clone of the planner's
// probe without counting their gains, then each seed's objective gain is
// summed as it is committed in input order, so the result is the
// conditional sigma_obj(S | R) of the lambda-truncated model (duplicate
// seeds contribute 0). Bit-identical across partition and worker counts.
// m supplies the objective context (universe, delay index) and must be
// the model this planner serves; it may be nil when o is nil, the default
// objective. Costs and budget are rejected here.
func (p *Planner) SpreadObj(m *Model, seeds []NodeID, o *Objective) (float64, error) {
	cobj, err := m.coreObjective(o, false)
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
