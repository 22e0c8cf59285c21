package actionlog

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"credist/internal/graph"
)

// This file keeps the hash-map implementations the dense log load and
// propagation build replaced, as the oracle FuzzReadMatchesReference holds
// them to: a Builder that dedups through a map keyed by (user, action)
// and sorts the survivors, the Read loop over it, and a BuildPropagation
// that finds participants through a per-action map. The reference Read
// carries the three input checks the dense one added — a negative user
// count, a non-finite time and an action id past maxActionID are errors —
// and is otherwise unchanged.

type refTupleKey struct {
	user   graph.NodeID
	action ActionID
}

type refBuilder struct {
	numUsers int
	tuples   map[refTupleKey]Timestamp
}

func newRefBuilder(numUsers int) *refBuilder {
	return &refBuilder{numUsers: numUsers, tuples: make(map[refTupleKey]Timestamp)}
}

func (b *refBuilder) add(u graph.NodeID, a ActionID, t Timestamp) error {
	if u < 0 || int(u) >= b.numUsers {
		return fmt.Errorf("actionlog: user %d out of range [0,%d)", u, b.numUsers)
	}
	if a < 0 || a > maxActionID {
		return fmt.Errorf("actionlog: action id %d outside [0,%d]", a, maxActionID)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("actionlog: non-finite time %v", t)
	}
	key := refTupleKey{u, a}
	if prev, ok := b.tuples[key]; !ok || t < prev {
		b.tuples[key] = t
	}
	return nil
}

func (b *refBuilder) build() *Log {
	tuples := make([]Tuple, 0, len(b.tuples))
	maxAction := ActionID(-1)
	for k, t := range b.tuples {
		tuples = append(tuples, Tuple{User: k.user, Action: k.action, Time: t})
		if k.action > maxAction {
			maxAction = k.action
		}
	}
	sort.Slice(tuples, func(i, j int) bool {
		if tuples[i].Action != tuples[j].Action {
			return tuples[i].Action < tuples[j].Action
		}
		if tuples[i].Time != tuples[j].Time {
			return tuples[i].Time < tuples[j].Time
		}
		return tuples[i].User < tuples[j].User
	})
	l := &Log{
		tuples:     tuples,
		numUsers:   b.numUsers,
		userCounts: make([]int32, b.numUsers),
	}
	l.actionIdx = make([]int32, maxAction+2)
	for _, t := range tuples {
		l.actionIdx[t.Action+1]++
		l.userCounts[t.User]++
	}
	for i := 1; i < len(l.actionIdx); i++ {
		l.actionIdx[i] += l.actionIdx[i-1]
	}
	return l
}

func refRead(r io.Reader, maxUsers int) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var b *refBuilder
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if b == nil {
			n, err := strconv.Atoi(line)
			if err != nil || n < 0 || n > maxUsers {
				return nil, fmt.Errorf("actionlog: line %d: expected user count", lineNo)
			}
			b = newRefBuilder(n)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("actionlog: line %d: expected 'user action time', got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("actionlog: line %d: bad user: %w", lineNo, err)
		}
		a, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("actionlog: line %d: bad action: %w", lineNo, err)
		}
		t, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("actionlog: line %d: bad time: %w", lineNo, err)
		}
		if err := b.add(graph.NodeID(u), ActionID(a), t); err != nil {
			return nil, fmt.Errorf("actionlog: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("actionlog: empty input")
	}
	return b.build(), nil
}

func refBuildPropagation(l *Log, g *graph.Graph, a ActionID) *Propagation {
	tuples := l.Action(a)
	p := &Propagation{
		Action:  a,
		Users:   make([]graph.NodeID, len(tuples)),
		Times:   make([]Timestamp, len(tuples)),
		Parents: make([][]int32, len(tuples)),
	}
	pos := make(map[graph.NodeID]int32, len(tuples))
	for i, t := range tuples {
		p.Users[i] = t.User
		p.Times[i] = t.Time
		pos[t.User] = int32(i)
	}
	for i, t := range tuples {
		var parents []int32
		for _, v := range g.In(t.User) {
			j, ok := pos[v]
			if ok && p.Times[j] < t.Time {
				parents = append(parents, j)
			}
		}
		sort.Slice(parents, func(x, y int) bool { return parents[x] < parents[y] })
		p.Parents[i] = parents
	}
	return p
}
