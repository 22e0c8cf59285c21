// Package actionlog implements the paper's data model: an action log
// L(User, Action, Time) holding one tuple per (user, action), the
// propagation DAGs induced by the log over a social graph, and the
// train/test splitting protocol used throughout the evaluation.
package actionlog

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"credist/internal/graph"
)

// ActionID is a dense action index in [0, NumActions).
type ActionID = int32

// maxActionID is the largest action id a log holds: the action offsets
// take maxAction+2 int32 slots, so a larger id would wrap their length.
const maxActionID = math.MaxInt32 - 2

// Timestamp is the time a user performed an action, in arbitrary units.
// Only the ordering and differences of timestamps matter.
type Timestamp = float64

// Tuple records that User performed Action at Time.
type Tuple struct {
	User   graph.NodeID
	Action ActionID
	Time   Timestamp
}

// Log is an immutable action log: tuples sorted first by action, then by
// time (the scan order required by Algorithm 2), with per-action offsets.
// A user appears at most once per action.
type Log struct {
	tuples     []Tuple
	actionIdx  []int32 // len numActions+1, offsets into tuples
	numUsers   int
	userCounts []int32 // Au: number of actions performed by each user
}

// NumActions returns the number of distinct actions (propagations).
func (l *Log) NumActions() int { return len(l.actionIdx) - 1 }

// NumTuples returns the total number of (user, action, time) tuples.
func (l *Log) NumTuples() int { return len(l.tuples) }

// NumUsers returns the node-universe size the log was built against.
func (l *Log) NumUsers() int { return l.numUsers }

// ActionCount returns Au, the number of actions user u performed.
func (l *Log) ActionCount(u graph.NodeID) int { return int(l.userCounts[u]) }

// Action returns the tuples of action a in chronological order. The slice
// aliases internal storage and must not be modified.
func (l *Log) Action(a ActionID) []Tuple {
	return l.tuples[l.actionIdx[a]:l.actionIdx[a+1]]
}

// Size returns the propagation size of action a: the number of users who
// performed it.
func (l *Log) Size(a ActionID) int {
	return int(l.actionIdx[a+1] - l.actionIdx[a])
}

// Tuples returns all tuples in (action, time) order. The slice aliases
// internal storage and must not be modified.
func (l *Log) Tuples() []Tuple { return l.tuples }

// PerformedAt returns the time u performed a and whether it did at all
// (the paper's partial function t(u, a)).
func (l *Log) PerformedAt(u graph.NodeID, a ActionID) (Timestamp, bool) {
	tuples := l.Action(a)
	for _, t := range tuples {
		if t.User == u {
			return t.Time, true
		}
	}
	return 0, false
}

// Builder accumulates tuples and produces a Log. If the same (user,
// action) pair is added more than once, the earliest time wins, enforcing
// the paper's "a user performs an action at most once" assumption.
type Builder struct {
	numUsers int
	tuples   []Tuple
}

// NewBuilder returns a Builder for a log over numUsers users.
func NewBuilder(numUsers int) *Builder {
	return &Builder{numUsers: numUsers}
}

// Add records that user u performed action a at time t.
func (b *Builder) Add(u graph.NodeID, a ActionID, t Timestamp) error {
	tu := Tuple{User: u, Action: a, Time: t}
	if err := check(b.numUsers, tu); err != nil {
		return err
	}
	b.tuples = append(b.tuples, tu)
	return nil
}

// check is Add's rule for a tuple of a log over numUsers users.
func check(numUsers int, t Tuple) error {
	switch {
	case t.User < 0 || int(t.User) >= numUsers:
		return fmt.Errorf("actionlog: user %d out of range [0,%d)", t.User, numUsers)
	case t.Action < 0 || t.Action > maxActionID:
		return fmt.Errorf("actionlog: action id %d outside [0,%d]", t.Action, maxActionID)
	case math.IsNaN(t.Time) || math.IsInf(t.Time, 0):
		return fmt.Errorf("actionlog: user %d action %d has non-finite time %v", t.User, t.Action, t.Time)
	}
	return nil
}

// canonical orders tuples by action, then time, then user: the log's scan
// order, and the order Write emits.
func canonical(x, y Tuple) int {
	return cmp.Or(cmp.Compare(x.Action, y.Action), cmp.Compare(x.Time, y.Time), cmp.Compare(x.User, y.User))
}

// Build produces the immutable Log and leaves the Builder empty. Action
// ids are kept as given; actions with no tuples in [0, maxAction] simply
// have empty ranges. Tuples already in canonical order (a log read back
// from Write) are not sorted again; otherwise the sort is stable, so of
// two equal keys (times +0 and -0) the first added survives. Within an
// action the first occurrence of a user is then its earliest, so one
// per-user stamp of the last action kept drops every later duplicate.
func (b *Builder) Build() *Log {
	tuples := b.tuples
	b.tuples = nil
	if !slices.IsSortedFunc(tuples, canonical) {
		slices.SortStableFunc(tuples, canonical)
	}
	l := &Log{numUsers: b.numUsers, userCounts: make([]int32, b.numUsers)}
	maxAction := ActionID(-1)
	if len(tuples) > 0 {
		maxAction = tuples[len(tuples)-1].Action
	}
	l.actionIdx = make([]int32, maxAction+2)
	lastAction := make([]ActionID, b.numUsers) // action id + 1 of the user's last kept tuple
	kept := tuples[:0]
	for _, t := range tuples {
		if lastAction[t.User] == t.Action+1 {
			continue
		}
		lastAction[t.User] = t.Action + 1
		kept = append(kept, t)
		l.actionIdx[t.Action+1]++
		l.userCounts[t.User]++
	}
	l.tuples = kept[:len(kept):len(kept)]
	for i := 1; i < len(l.actionIdx); i++ {
		l.actionIdx[i] += l.actionIdx[i-1]
	}
	return l
}

// FromTuples builds a Log directly from a tuple slice.
func FromTuples(numUsers int, tuples []Tuple) (*Log, error) {
	b := NewBuilder(numUsers)
	for _, t := range tuples {
		if err := b.Add(t.User, t.Action, t.Time); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// Append returns a new Log extended with a batch of complete new
// propagations; the receiver is never modified, so readers of the old log
// (and engines scanned from it) keep working while the successor is built.
// The batch must be in the log's canonical scan order — sorted by action,
// then time, then user — and its action ids must continue the log
// contiguously from NumActions(): appending to an already-scanned action
// would retroactively rewrite its propagation DAG, and skipped ids would
// let one bad tuple size every per-action structure downstream.
// Out-of-order timestamps, non-finite times, negative users, and
// duplicate (user, action) pairs are rejected. Users with ids beyond the
// current universe are registered: NumUsers grows to cover them.
func (l *Log) Append(batch []Tuple) (*Log, error) {
	return l.appendTuples(batch, 0, math.MaxInt)
}

// AppendWithin is Append over a bounded universe, for logs tied to a
// social graph of maxUsers nodes: minUsers floors the new user count (the
// header ParseTuples returns may grow the universe), and a floor above
// maxUsers or a user id at or above it is rejected before anything is
// allocated, so no single tuple can size the successor's per-user arrays.
func (l *Log) AppendWithin(batch []Tuple, minUsers, maxUsers int) (*Log, error) {
	if minUsers > maxUsers {
		return nil, fmt.Errorf("actionlog: tail header declares %d users, but the graph has %d nodes", minUsers, maxUsers)
	}
	return l.appendTuples(batch, minUsers, maxUsers)
}

// appendTuples validates the batch and builds the successor log. minUsers
// is a floor for the new universe size (from an explicit header); the
// largest appended user id can raise it further. Every user id must be
// below maxUsers, which is checked before anything is allocated.
func (l *Log) appendTuples(batch []Tuple, minUsers, maxUsers int) (*Log, error) {
	nUsers := max(l.numUsers, minUsers)
	for i, t := range batch {
		if int(t.User) >= maxUsers {
			return nil, fmt.Errorf("actionlog: append tuple %d has user %d, which exceeds the graph (%d nodes)", i, t.User, maxUsers)
		}
		nUsers = max(nUsers, int(t.User)+1)
	}
	first := ActionID(l.NumActions())
	// lastAction[u] is the 1-based ordinal, within the batch, of the
	// action u last appeared in, so a repeat within one action is a hit.
	lastAction := make([]int32, nUsers)
	stamp := int32(0)
	for i, t := range batch {
		switch {
		case t.Action < first:
			return nil, fmt.Errorf("actionlog: append tuple %d targets existing action %d (new actions start at %d)", i, t.Action, first)
		case t.User < 0:
			return nil, fmt.Errorf("actionlog: append tuple %d has negative user %d", i, t.User)
		case math.IsNaN(t.Time) || math.IsInf(t.Time, 0):
			return nil, fmt.Errorf("actionlog: append tuple %d has non-finite time %v", i, t.Time)
		}
		if i == 0 && t.Action != first {
			return nil, fmt.Errorf("actionlog: append must start at action %d, got %d", first, t.Action)
		}
		if i > 0 {
			prev := batch[i-1]
			switch {
			case t.Action < prev.Action:
				return nil, fmt.Errorf("actionlog: append tuple %d out of order: action %d after %d", i, t.Action, prev.Action)
			case t.Action > prev.Action+1:
				return nil, fmt.Errorf("actionlog: append tuple %d skips action ids: %d after %d", i, t.Action, prev.Action)
			case t.Action == prev.Action && t.Time < prev.Time:
				return nil, fmt.Errorf("actionlog: append tuple %d out of order: time %g after %g within action %d", i, t.Time, prev.Time, t.Action)
			case t.Action == prev.Action && t.Time == prev.Time && t.User < prev.User:
				return nil, fmt.Errorf("actionlog: append tuple %d out of order: user %d after %d on a timestamp tie", i, t.User, prev.User)
			}
		}
		if i == 0 || t.Action != batch[i-1].Action {
			stamp++
		}
		if lastAction[t.User] == stamp {
			return nil, fmt.Errorf("actionlog: user %d appears twice in appended action %d", t.User, t.Action)
		}
		lastAction[t.User] = stamp
	}

	maxAction := first - 1
	if len(batch) > 0 {
		maxAction = batch[len(batch)-1].Action
	}
	nl := &Log{
		tuples:     make([]Tuple, 0, len(l.tuples)+len(batch)),
		actionIdx:  make([]int32, maxAction+2),
		numUsers:   nUsers,
		userCounts: make([]int32, nUsers),
	}
	nl.tuples = append(append(nl.tuples, l.tuples...), batch...)
	// Offsets [0, first] carry over; the appended range starts as raw
	// per-action counts and a prefix sum seeded by actionIdx[first] (the
	// old tuple count) turns them into offsets.
	copy(nl.actionIdx, l.actionIdx)
	copy(nl.userCounts, l.userCounts)
	for _, t := range batch {
		nl.actionIdx[t.Action+1]++
		nl.userCounts[t.User]++
	}
	for a := int(first); a <= int(maxAction); a++ {
		nl.actionIdx[a+1] += nl.actionIdx[a]
	}
	return nl, nil
}

// Prefix returns the log restricted to its first n actions — the head
// side of a streaming hold-out split. Action and user ids are unchanged;
// tuple storage is shared with the receiver (both logs are immutable).
func (l *Log) Prefix(n int) *Log {
	if n < 0 || n > l.NumActions() {
		panic(fmt.Sprintf("actionlog: prefix of %d actions from a log of %d", n, l.NumActions()))
	}
	nl := &Log{
		tuples:     l.tuples[:l.actionIdx[n]:l.actionIdx[n]],
		actionIdx:  l.actionIdx[: n+1 : n+1],
		numUsers:   l.numUsers,
		userCounts: make([]int32, l.numUsers),
	}
	for _, t := range nl.tuples {
		nl.userCounts[t.User]++
	}
	return nl
}

// Restrict returns a new Log containing only the given actions, renumbered
// densely 0..len(actions)-1 in the order given. User ids are unchanged.
func (l *Log) Restrict(actions []ActionID) *Log {
	b := NewBuilder(l.numUsers)
	for newID, a := range actions {
		for _, t := range l.Action(a) {
			// Errors impossible: tuples come from a valid log.
			_ = b.Add(t.User, ActionID(newID), t.Time)
		}
	}
	return b.Build()
}
