package actionlog

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"credist/internal/graph"
)

// Propagation is the propagation graph G(a) of one action: the DAG over
// the users who performed a, with an edge v->u whenever (v,u) is a social
// tie and v performed a strictly before u.
type Propagation struct {
	Action ActionID
	// Users lists participants in chronological order (ties broken by id,
	// matching the log's scan order).
	Users []graph.NodeID
	// Times[i] is when Users[i] performed the action.
	Times []Timestamp
	// Parents[i] lists the indices (into Users) of the potential
	// influencers N_in(Users[i], a), ascending; nil when there are none.
	// All of a propagation's lists share one backing array.
	Parents [][]int32
}

// Size returns the number of participants, the paper's "propagation size".
func (p *Propagation) Size() int { return len(p.Users) }

// InDegree returns d_in(u, a) for the i-th participant.
func (p *Propagation) InDegree(i int32) int { return len(p.Parents[i]) }

// Initiators returns the participants with no potential influencers —
// the users the paper treats as the "seed set" of a test propagation.
func (p *Propagation) Initiators() []graph.NodeID {
	var out []graph.NodeID
	for i, parents := range p.Parents {
		if len(parents) == 0 {
			out = append(out, p.Users[i])
		}
	}
	return out
}

// UserIndex maps user ids to their chronological index in one
// propagation at a time. It is dense over the user universe and
// epoch-stamped: loading the next propagation bumps the epoch instead of
// clearing, so a load costs O(participants).
type UserIndex struct {
	epoch uint32
	at    []uint32 // per user: == epoch iff the user is in the loaded propagation
	idx   []int32
	// BuildPropagation's parent lists before they are copied out, and
	// the end of each participant's list in par.
	par, ends []int32
}

// NewUserIndex returns an index over users [0, numUsers).
func NewUserIndex(numUsers int) *UserIndex {
	return &UserIndex{at: make([]uint32, numUsers), idx: make([]int32, numUsers)}
}

// Load makes users (a propagation's Users) the indexed participants.
func (x *UserIndex) Load(users []graph.NodeID) {
	if x.epoch == math.MaxUint32 {
		clear(x.at)
		x.epoch = 0
	}
	x.epoch++
	for i, u := range users {
		x.at[u] = x.epoch
		x.idx[u] = int32(i)
	}
}

// Of returns the chronological index of user u in the loaded propagation,
// or -1 if u did not participate.
func (x *UserIndex) Of(u graph.NodeID) int32 {
	if x.at[u] != x.epoch {
		return -1
	}
	return x.idx[u]
}

var indexPool sync.Pool // *UserIndex, BuildPropagation's scratch

// BuildPropagation constructs G(a) for action a over social graph g.
// Parents are predecessors in g (edge v->u means v can influence u) that
// acted strictly earlier; simultaneous actions never influence each other,
// which keeps the graph acyclic even with tied timestamps.
func BuildPropagation(l *Log, g *graph.Graph, a ActionID) *Propagation {
	tuples := l.Action(a)
	p := &Propagation{
		Action:  a,
		Users:   make([]graph.NodeID, len(tuples)),
		Times:   make([]Timestamp, len(tuples)),
		Parents: make([][]int32, len(tuples)),
	}
	for i, t := range tuples {
		p.Users[i] = t.User
		p.Times[i] = t.Time
	}
	x, _ := indexPool.Get().(*UserIndex)
	if n := max(g.NumNodes(), l.NumUsers()); x == nil || len(x.at) < n {
		x = NewUserIndex(n)
	}
	x.Load(p.Users)
	x.par, x.ends = x.par[:0], x.ends[:0]
	for _, t := range tuples {
		for _, v := range g.In(t.User) {
			if j := x.Of(v); j >= 0 && p.Times[j] < t.Time {
				x.par = append(x.par, j)
			}
		}
		x.ends = append(x.ends, int32(len(x.par)))
	}
	par := slices.Clone(x.par)
	lo := int32(0)
	for i, hi := range x.ends {
		if hi > lo {
			p.Parents[i] = par[lo:hi:hi]
			slices.Sort(p.Parents[i])
		}
		lo = hi
	}
	indexPool.Put(x)
	return p
}

// Split divides the log's actions into training and test sets following
// the paper's protocol: actions are ranked by propagation size and every
// fifth action in that ranking goes to the test set, so both sets keep
// similar size distributions at an 80/20 ratio. The returned logs have
// densely renumbered actions; the third and fourth results map new action
// ids back to original ids.
func Split(l *Log) (train, test *Log, trainOrig, testOrig []ActionID) {
	ranked := make([]ActionID, l.NumActions())
	for a := range ranked {
		ranked[a] = ActionID(a)
	}
	// Larger propagations first, ties by id.
	slices.SortFunc(ranked, func(x, y ActionID) int { return cmp.Or(l.Size(y)-l.Size(x), cmp.Compare(x, y)) })
	for i, a := range ranked {
		if (i+1)%5 == 0 {
			testOrig = append(testOrig, a)
		} else {
			trainOrig = append(trainOrig, a)
		}
	}
	return l.Restrict(trainOrig), l.Restrict(testOrig), trainOrig, testOrig
}

// Stats summarizes a log for Table 1-style reporting.
type Stats struct {
	NumUsers      int
	NumActions    int
	NumTuples     int
	MaxSize       int
	MeanSize      float64
	ActiveUsers   int // users with at least one tuple
	MeanPerUser   float64
	MedianPerUser int
}

// Summarize computes log statistics.
func Summarize(l *Log) Stats {
	s := Stats{NumUsers: l.NumUsers(), NumActions: l.NumActions(), NumTuples: l.NumTuples()}
	for a := 0; a < l.NumActions(); a++ {
		size := l.Size(ActionID(a))
		if size > s.MaxSize {
			s.MaxSize = size
		}
	}
	if s.NumActions > 0 {
		s.MeanSize = float64(s.NumTuples) / float64(s.NumActions)
	}
	var counts []int
	for u := 0; u < l.NumUsers(); u++ {
		if c := l.ActionCount(graph.NodeID(u)); c > 0 {
			s.ActiveUsers++
			counts = append(counts, c)
		}
	}
	if s.ActiveUsers > 0 {
		s.MeanPerUser = float64(s.NumTuples) / float64(s.ActiveUsers)
		sort.Ints(counts)
		s.MedianPerUser = counts[len(counts)/2]
	}
	return s
}
