package credist

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"credist/internal/core"
)

// Objective describes a campaign-shaped query against a model: who counts
// (a target audience, uniform or weighted), when they count (a time
// window from each action's start), what seeds cost (per-node costs under
// a total budget), and which rival seeds are already committed (blocked).
// The zero value (like a nil *Objective) is the default objective — the
// paper's single global sigma_cd. Every entry point takes the objective
// as an argument and lowers the default to the core's nil objective, so
// default answers are bit-identical to Spread, Gains and Select with a
// nil objective; every answer is bit-identical across worker and
// partition counts.
//
// Audience, window, and blocked change what a seed set is *worth* and
// apply to Model.SpreadObj and to Planner.SpreadObj, GainsObj and Select
// alike. Costs and Budget change which seeds get *picked* and apply only
// to Planner.Select; SpreadObj and GainsObj reject them.
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

// ParseCosts expands an "id:cost" list (3:2.5,7:0.5) over implicit unit
// costs into the per-user Costs vector: the listed users cost what the
// list says, everyone else 1. Blank entries are skipped, and an empty list
// returns nil (unit costs). name labels the list in errors (the flag or
// query parameter it came from). Ids are range-checked here; cost values
// are checked where the objective is used (finite, positive).
func ParseCosts(name, raw string, numUsers int) ([]float64, error) {
	if raw == "" {
		return nil, nil
	}
	costs := make([]float64, numUsers)
	for i := range costs {
		costs[i] = 1
	}
	for _, pair := range strings.Split(raw, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, val, ok := strings.Cut(pair, ":")
		if !ok {
			return nil, fmt.Errorf("%s must be id:cost pairs (e.g. 3:2.5,7:0.5), got %q", name, pair)
		}
		id, val = strings.TrimSpace(id), strings.TrimSpace(val)
		u, err := strconv.Atoi(id)
		if err != nil || u < 0 || u >= numUsers {
			return nil, fmt.Errorf("%s: user id %q out of range [0,%d)", name, id, numUsers)
		}
		c, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad cost %q for user %d", name, val, u)
		}
		costs[u] = c
	}
	return costs, nil
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
// above the core layer.
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
