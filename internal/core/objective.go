package core

import (
	"slices"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

// Objective generalizes the single global spread objective sigma_cd into
// the campaign family: per-node audience weights and an optional time
// window measured from each action's first participation. The weighted,
// windowed objective is
//
//	sigma_obj(S) = sum_u w(u) * kappa^tau_{S,u}
//
// where kappa^tau gates every per-action credit term by "u performed a
// within tau of a's start": for u outside S,
// kappa^tau_{S,u} = (1/A_u) * sum_{a in A_u} gate(u,a) * Gamma_{S,u}(a),
// and for a seed s the unit self-credit becomes
// (1/A_s) * sum_{a in A_s} gate(s,a) — gated per action, which is exactly
// what keeps the telescoping identity sigma_obj(S) = sum of objective
// marginal gains intact (Probe.Gain).
//
// Crucially the objective only reweights how credit is *valued*, never how
// it *flows*: UC and SC updates (Lemmas 2 and 3) are untouched, credits
// stay additive across influencer rows, and therefore row-range
// partitioning and the probe's commit replay work unchanged for every
// objective. Costs, budgets, and blocked
// rival sets live above this layer (internal/celf and the facade): they
// change which seeds get picked, not what a seed set is worth.
//
// A nil *Objective — and the zero value — is the default objective
// (uniform weight 1, no window), and every evaluation path routes it
// through the exact pre-objective code path, so default answers are
// bit-identical to a build without this layer at all.
type Objective struct {
	// Weights is the per-node audience weight w(u), indexed by node id and
	// covering the whole universe; nil means uniform weight 1. Weights
	// must be finite and non-negative (the facade's validation enforces
	// it).
	Weights []float64
	// Windowed enables the time window: credit earned for a participation
	// later than Tau after the action's first participation counts for
	// nothing. Tau is in the action log's (arbitrary) time units.
	Windowed bool
	Tau      float64
	// Delays supplies the per-(action, participant) delays the window gate
	// reads on the engine path (the Evaluator reads its own propagation
	// timestamps instead, which hold identical floats). Required when
	// Windowed and evaluating through an Engine; BuildActionDelays builds
	// one from the training log.
	Delays *ActionDelays
}

// IsDefault reports whether o is the default objective — uniform weights
// and no window — for which every caller takes the exact pre-objective
// code path (bit-identity by construction, not by arithmetic accident).
func (o *Objective) IsDefault() bool {
	return o == nil || (o.Weights == nil && !o.Windowed)
}

// weight returns w(u) (1 under uniform weights).
func (o *Objective) weight(u graph.NodeID) float64 {
	if o == nil || o.Weights == nil {
		return 1
	}
	return o.Weights[u]
}

// factor returns w(u) * gate(u, a) on the engine path: the multiplier a
// credit term over (u, a) carries under this objective.
func (o *Objective) factor(a actionlog.ActionID, u graph.NodeID) float64 {
	w := o.weight(u)
	if w == 0 {
		return 0
	}
	if o != nil && o.Windowed {
		if o.Delays == nil {
			panic("core: windowed objective evaluated through an engine without ActionDelays")
		}
		if d, ok := o.Delays.Delay(a, u); !ok || d > o.Tau {
			return 0
		}
	}
	return w
}

// ActionDelays indexes, per action, every participant's delay from the
// action's first participation — the quantity the time-window gate
// compares against tau. It is derived from the action log alone (the
// snapshot format does not change for the objective layer), so a model
// restored from any snapshot version can serve windowed objectives as
// long as its dataset is present, which the lineage check guarantees.
type ActionDelays struct {
	users  [][]int32   // per action: participant ids, ascending
	delays [][]float64 // aligned with users: t(u,a) - min_v t(v,a)
}

// BuildActionDelays scans the log once and returns the delay index.
// Tuples within an action are chronological, so the action's start time
// is its first tuple's timestamp; the per-user rows are re-sorted by id
// for binary-search lookups during gain walks.
func BuildActionDelays(log *actionlog.Log) *ActionDelays {
	n := log.NumActions()
	d := &ActionDelays{
		users:  make([][]int32, n),
		delays: make([][]float64, n),
	}
	for a := 0; a < n; a++ {
		tuples := log.Action(actionlog.ActionID(a))
		if len(tuples) == 0 {
			continue
		}
		t0 := tuples[0].Time
		type ud struct {
			u int32
			d float64
		}
		pairs := make([]ud, len(tuples))
		for i, t := range tuples {
			pairs[i] = ud{u: int32(t.User), d: t.Time - t0}
		}
		slices.SortFunc(pairs, func(x, y ud) int {
			switch {
			case x.u < y.u:
				return -1
			case x.u > y.u:
				return 1
			}
			return 0
		})
		us := make([]int32, len(pairs))
		ds := make([]float64, len(pairs))
		for i, p := range pairs {
			us[i] = p.u
			ds[i] = p.d
		}
		d.users[a] = us
		d.delays[a] = ds
	}
	return d
}

// NumActions returns how many actions the index covers.
func (d *ActionDelays) NumActions() int { return len(d.users) }

// Delay returns u's participation delay in action a and whether u
// participated at all.
func (d *ActionDelays) Delay(a actionlog.ActionID, u graph.NodeID) (float64, bool) {
	if int(a) >= len(d.users) {
		return 0, false
	}
	us := d.users[a]
	i, ok := slices.BinarySearch(us, int32(u))
	if !ok {
		return 0, false
	}
	return d.delays[a][i], true
}
