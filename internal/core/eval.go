package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"credist/internal/actionlog"
	"credist/internal/graph"
	"credist/internal/par"
)

// Evaluator computes the CD spread objective sigma_cd(S) (Eq. 8) for
// arbitrary seed sets directly from the training propagations, without the
// UC structure. It exploits that Gamma_{S,u}(a) is nonzero only where a
// seed reaches u in the propagation DAG of an action some seed performed,
// so evaluating a set walks only the part of those DAGs its members can
// reach. It is the reference implementation the Engine is property-tested
// against, and the tool the experiments use to score seed sets chosen by
// other models (Figure 6) and to predict the spread of test-set initiators
// (Figures 3 and 4).
type Evaluator struct {
	numUsers int
	au       []int32
	acts     [][]userAct // per user: the actions performed, in log order
	dags     []dag       // per action
	maxSize  int         // the largest propagation's participant count
	credit   CreditModel // the rule the gammas were computed with
	scratch  sync.Pool   // *spreadScratch, sized to this evaluator
}

// userAct is one action a user performed and the user's chronological
// participant index in it.
type userAct struct{ a, i int32 }

// dag is one action's propagation DAG, stored flat: participants in
// chronological order, the parents of participant i at
// par[off[i]:off[i+1]] (ascending, with their direct credits gamma in
// gam), and the children derived from them at child[coff[i]:coff[i+1]]
// (ascending).
type dag struct {
	users []graph.NodeID
	times []actionlog.Timestamp
	off   []int32
	par   []int32
	gam   []float64
	coff  []int32
	child []int32
}

// newDAG flattens propagation p, computing every direct credit with model.
func newDAG(p *actionlog.Propagation, model CreditModel) dag {
	n := len(p.Users)
	edges := 0
	for _, ps := range p.Parents {
		edges += len(ps)
	}
	d := dag{
		users: p.Users,
		times: p.Times,
		off:   make([]int32, n+1),
		par:   make([]int32, 0, edges),
		gam:   make([]float64, 0, edges),
		coff:  make([]int32, n+1),
		child: make([]int32, edges),
	}
	for i, ps := range p.Parents {
		for _, j := range ps {
			d.par = append(d.par, j)
			d.gam = append(d.gam, model.Gamma(p, int32(i), j))
			d.coff[j+1]++
		}
		d.off[i+1] = int32(len(d.par))
	}
	for i := 0; i < n; i++ {
		d.coff[i+1] += d.coff[i]
	}
	next := slices.Clone(d.coff[:n])
	for i := 0; i < n; i++ {
		for _, j := range d.par[d.off[i]:d.off[i+1]] {
			d.child[next[j]] = int32(i)
			next[j]++
		}
	}
	return d
}

// NewEvaluator precomputes propagation DAGs and direct credits for the
// training log, fanned over GOMAXPROCS workers. model nil means
// SimpleCredit.
func NewEvaluator(g *graph.Graph, train *actionlog.Log, model CreditModel) *Evaluator {
	if model == nil {
		model = SimpleCredit{}
	}
	ev := &Evaluator{
		numUsers: train.NumUsers(),
		au:       make([]int32, train.NumUsers()),
		acts:     make([][]userAct, train.NumUsers()),
		dags:     make([]dag, train.NumActions()),
		credit:   model,
	}
	for u := 0; u < train.NumUsers(); u++ {
		ev.au[u] = int32(train.ActionCount(graph.NodeID(u)))
	}
	// The DAGs build in parallel, written by index; acts is then filled
	// serially in action order, so nothing depends on scheduling.
	par.For(len(ev.dags), 0, func(_, a int) {
		ev.dags[a] = newDAG(actionlog.BuildPropagation(train, g, actionlog.ActionID(a)), model)
	})
	for a, d := range ev.dags {
		for i, u := range d.users {
			ev.acts[u] = append(ev.acts[u], userAct{int32(a), int32(i)})
		}
	}
	ev.initScratch()
	return ev
}

// NumUsers returns the user-universe size.
func (ev *Evaluator) NumUsers() int { return ev.numUsers }

// NumActions returns how many actions the evaluator covers.
func (ev *Evaluator) NumActions() int { return len(ev.dags) }

// Extend returns a new evaluator over the combined log, computing
// propagation DAGs and direct credits only for the tail
// [from, log.NumActions()): log must contain the evaluator's existing
// actions as [0, from) and from must equal NumActions(). The receiver is
// untouched — prefix DAGs are shared, per-user state is rebuilt — so
// concurrent Spread calls on the old evaluator keep their answers while
// the successor is assembled. Spread on the result is bit-identical to
// NewEvaluator over the combined log with the same credit rule: the
// shared prefix structures are per-action, and the A_u normalizers are
// recomputed from the combined log exactly as NewEvaluator would.
func (ev *Evaluator) Extend(g *graph.Graph, log *actionlog.Log, from actionlog.ActionID) (*Evaluator, error) {
	if int(from) != len(ev.dags) {
		return nil, fmt.Errorf("core: extend from action %d, but evaluator covers %d", from, len(ev.dags))
	}
	if log.NumActions() < int(from) {
		return nil, fmt.Errorf("core: combined log has %d actions, fewer than the %d already covered", log.NumActions(), from)
	}
	if log.NumUsers() > g.NumNodes() {
		return nil, fmt.Errorf("core: log universe (%d users) exceeds the graph (%d nodes)", log.NumUsers(), g.NumNodes())
	}
	if log.NumUsers() < ev.numUsers {
		return nil, fmt.Errorf("core: log universe shrank: %d users, evaluator has %d", log.NumUsers(), ev.numUsers)
	}
	ne := &Evaluator{
		numUsers: log.NumUsers(),
		au:       make([]int32, log.NumUsers()),
		acts:     make([][]userAct, log.NumUsers()),
		dags:     make([]dag, log.NumActions()),
		credit:   ev.credit,
	}
	for u := 0; u < log.NumUsers(); u++ {
		ne.au[u] = int32(log.ActionCount(graph.NodeID(u)))
	}
	copy(ne.acts, ev.acts)
	copy(ne.dags, ev.dags)
	appended := make(map[graph.NodeID][]userAct)
	for a := int(from); a < log.NumActions(); a++ {
		ne.dags[a] = newDAG(actionlog.BuildPropagation(log, g, actionlog.ActionID(a)), ev.credit)
		for i, u := range ne.dags[a].users {
			appended[u] = append(appended[u], userAct{int32(a), int32(i)})
		}
	}
	// Touched users get fresh action lists; everyone else shares the
	// receiver's (never mutated again).
	for u, tail := range appended {
		merged := make([]userAct, 0, len(ne.acts[u])+len(tail))
		ne.acts[u] = append(append(merged, ne.acts[u]...), tail...)
	}
	ne.initScratch()
	return ne, nil
}

// spreadScratch is the per-call working state Spread calls
// borrow from the evaluator's pool. seedAt and seenAt are epoch-marked
// membership over users and actions: bumping the epoch empties both in
// O(1). val and state are indexed by participant and are all zero
// between actions — each walk clears exactly the range it wrote.
type spreadScratch struct {
	epoch  uint32
	seedAt []uint32 // per user: == epoch iff the user is a seed
	seenAt []uint32 // per action: == epoch iff the action is queued
	head   []int32  // per queued action: its newest seed hit, or -1
	hits   []seedHit
	order  []int32 // queued actions, first-seen order
	val    []float64
	state  []uint8
}

// seedHit is one seed's participant index in a queued action, linked to
// the action's previous hit.
type seedHit struct{ i, next int32 }

// Participant states during a walk.
const (
	reached uint8 = 1 << iota // some parent holds positive credit
	isSeed
)

func (ev *Evaluator) initScratch() {
	for _, d := range ev.dags {
		ev.maxSize = max(ev.maxSize, len(d.users))
	}
	ev.scratch.New = func() any { return ev.newScratch() }
}

func (ev *Evaluator) newScratch() *spreadScratch {
	return &spreadScratch{
		seedAt: make([]uint32, ev.numUsers),
		seenAt: make([]uint32, len(ev.dags)),
		head:   make([]int32, len(ev.dags)),
		val:    make([]float64, ev.maxSize),
		state:  make([]uint8, ev.maxSize),
	}
}

// mark starts a new epoch, records the distinct seeds, and queues every
// action they performed — in the order the seeds, then their action lists,
// first reach it — with each seed's participant index linked to its
// action. It returns how many distinct seeds performed any action.
func (sc *spreadScratch) mark(ev *Evaluator, seeds []graph.NodeID) int {
	if sc.epoch == math.MaxUint32 {
		clear(sc.seedAt)
		clear(sc.seenAt)
		sc.epoch = 0
	}
	sc.epoch++
	sc.hits, sc.order = sc.hits[:0], sc.order[:0]
	active := 0
	for _, s := range seeds {
		if sc.seedAt[s] == sc.epoch {
			continue
		}
		sc.seedAt[s] = sc.epoch
		if ev.au[s] > 0 {
			active++
		}
		for _, ua := range ev.acts[s] {
			if sc.seenAt[ua.a] != sc.epoch {
				sc.seenAt[ua.a] = sc.epoch
				sc.head[ua.a] = -1
				sc.order = append(sc.order, ua.a)
			}
			sc.hits = append(sc.hits, seedHit{ua.i, sc.head[ua.a]})
			sc.head[ua.a] = int32(len(sc.hits) - 1)
		}
	}
	return active
}

// Spread computes sigma_obj(S) under obj directly from the training
// propagations; nil (or the default objective) is sigma_cd(S) =
// sum_u kappa_{S,u}. Each seed with at least one training action
// contributes exactly 1 (its own kappa); every other participant u of an
// action some seed performed contributes Gamma_{S,u}(a)/A_u, where Gamma
// is the forward credit DP over the propagation DAG (Eq. 5 generalized to
// sets). Under an objective every contribution is scaled by
// w(u)*gate(u,a): a seed's unit self-credit becomes the per-action gated
// sum (1/A_s)*sum_a gate(s,a)*w(s), and each influenced participant
// contributes gate(u,a)*w(u)*Gamma_{S,u}(a)/A_u.
func (ev *Evaluator) Spread(seeds []graph.NodeID, obj *Objective) float64 {
	if obj.IsDefault() {
		obj = nil
	}
	sc := ev.scratch.Get().(*spreadScratch)
	spread := ev.spread(sc, seeds, obj)
	ev.scratch.Put(sc)
	return spread
}

// spread evaluates seeds on sc. obj nil is plain sigma_cd: one unit per
// active seed, then each action's credit. Under an objective the seeds'
// self-credit is gated per action inside the walk instead. Actions are
// walked in first-seen order, so the summation order — and hence the
// result — is a deterministic function of the seed slice.
func (ev *Evaluator) spread(sc *spreadScratch, seeds []graph.NodeID, obj *Objective) float64 {
	spread := 0.0
	if active := sc.mark(ev, seeds); obj == nil {
		spread = float64(active)
	}
	for _, a := range sc.order {
		spread += ev.walk(sc, a, obj)
	}
	return spread
}

// walk returns action a's share of the spread: sum over non-seed
// participants u of f(u)*Gamma_{S,u}(a)/A_u, plus f(s)/A_s per seed when
// obj is set, where f is the objective's weight and window gate (1 when
// obj is nil). It is the forward credit DP restricted to what the seeds
// reach: nobody before the earliest seed holds credit, and a participant
// none of whose parents holds credit gets none, so the walk visits only
// seeds and the children of credited participants, ascending. Every
// visited participant sums its credited parents in the same order the full
// DP would and everyone skipped contributes exactly zero there, so the
// result is bit-identical to the full DP.
func (ev *Evaluator) walk(sc *spreadScratch, a int32, obj *Objective) float64 {
	d := &ev.dags[a]
	val, state := sc.val, sc.state
	lo, end := int32(len(d.users)), int32(-1)
	for h := sc.head[a]; h >= 0; h = sc.hits[h].next {
		i := sc.hits[h].i
		state[i] = isSeed
		lo, end = min(lo, i), max(end, i)
	}
	total := 0.0
	for i := lo; i <= end; i++ {
		st := state[i]
		if st == 0 {
			continue
		}
		state[i] = 0
		u := d.users[i]
		f := 1.0
		if obj != nil {
			f = obj.weight(u)
			if f != 0 && obj.Windowed && d.times[i]-d.times[0] > obj.Tau {
				f = 0
			}
		}
		if st&isSeed != 0 {
			val[i] = 1
			if obj != nil && f != 0 {
				total += f / float64(ev.au[u])
			}
		} else {
			sum := 0.0
			for k := d.off[i]; k < d.off[i+1]; k++ {
				if v := val[d.par[k]]; v > 0 {
					sum += v * d.gam[k]
				}
			}
			if sum <= 0 {
				continue
			}
			val[i] = sum
			switch {
			case obj == nil:
				total += sum / float64(ev.au[u])
			case f != 0:
				total += f * sum / float64(ev.au[u])
			}
		}
		kids := d.child[d.coff[i]:d.coff[i+1]]
		for _, c := range kids {
			state[c] |= reached
		}
		if len(kids) > 0 {
			end = max(end, kids[len(kids)-1])
		}
	}
	if lo <= end {
		clear(val[lo : end+1])
	}
	return total
}

// index returns u's participant index in action a, or -1.
func (ev *Evaluator) index(a actionlog.ActionID, u graph.NodeID) int32 {
	acts := ev.acts[u]
	if k, ok := slices.BinarySearchFunc(acts, a, func(ua userAct, a int32) int { return cmp.Compare(ua.a, a) }); ok {
		return acts[k].i
	}
	return -1
}

// SetCredit returns Gamma_{S,u}(a) for diagnostics and tests.
func (ev *Evaluator) SetCredit(a actionlog.ActionID, seeds []graph.NodeID, u graph.NodeID) float64 {
	if slices.Contains(seeds, u) {
		return 1
	}
	target := ev.index(a, u)
	if target < 0 {
		return 0
	}
	d := &ev.dags[a]
	val := make([]float64, target+1)
	seed := make([]bool, target+1)
	for _, s := range seeds {
		if i := ev.index(a, s); i >= 0 && i < target {
			seed[i] = true
		}
	}
	for i := int32(0); i <= target; i++ {
		if seed[i] {
			val[i] = 1
			continue
		}
		sum := 0.0
		for k := d.off[i]; k < d.off[i+1]; k++ {
			sum += val[d.par[k]] * d.gam[k]
		}
		val[i] = sum
	}
	return val[target]
}

// PairCredit returns kappa_{v,u}: the total credit v earns for influencing
// u across the log, normalized by A_u (Eq. 6). Used by diagnostics.
func (ev *Evaluator) PairCredit(v, u graph.NodeID) float64 {
	if ev.au[u] == 0 {
		return 0
	}
	seeds := []graph.NodeID{v}
	total := 0.0
	for _, ua := range ev.acts[v] {
		total += ev.SetCredit(ua.a, seeds, u)
	}
	return total / float64(ev.au[u])
}
