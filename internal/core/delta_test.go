package core

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"credist/internal/actionlog"
	"credist/internal/graph"
	"credist/internal/seedsel"
)

// TestAppendActionsBitIdenticalToRescan is the streaming engine's core
// guarantee: scanning a prefix and appending the held-out ~5% tail yields
// an engine whose gains, CELF seed sequence (with gains), spreads, and
// entry counts are bit-for-bit those of a from-scratch NewEngine over the
// combined log with the same frozen credit rule.
func TestAppendActionsBitIdenticalToRescan(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 7))
	for trial := 0; trial < 5; trial++ {
		g, log := randomInstance(rng, 50+rng.IntN(20), 40+rng.IntN(10))
		credit := LearnTimeAware(g, log)
		opts := Options{Lambda: 0.001, Credit: credit}
		headN := log.NumActions() - (log.NumActions()+19)/20 // hold out ~5%
		head := log.Prefix(headN)

		full := NewEngine(g, log, opts)
		inc, err := NewEngine(g, head, opts).AppendActions(g, log, actionlog.ActionID(headN))
		if err != nil {
			t.Fatalf("trial %d: AppendActions: %v", trial, err)
		}

		if full.Entries() != inc.Entries() {
			t.Fatalf("trial %d: entries %d vs %d", trial, full.Entries(), inc.Entries())
		}
		if inc.NumActions() != log.NumActions() {
			t.Fatalf("trial %d: NumActions %d, want %d", trial, inc.NumActions(), log.NumActions())
		}
		for u := 0; u < g.NumNodes(); u++ {
			gf, gi := NewProbe(full).Gain(graph.NodeID(u), nil), NewProbe(inc).Gain(graph.NodeID(u), nil)
			if gf != gi {
				t.Fatalf("trial %d: Gain(%d) not bit-identical: %b vs %b", trial, u, gf, gi)
			}
		}

		rf := seedsel.CELF(NewProbe(full).Estimator(nil), 8)
		ri := seedsel.CELF(NewProbe(inc).Estimator(nil), 8)
		if len(rf.Seeds) != len(ri.Seeds) {
			t.Fatalf("trial %d: CELF lengths %d vs %d", trial, len(rf.Seeds), len(ri.Seeds))
		}
		for i := range rf.Seeds {
			if rf.Seeds[i] != ri.Seeds[i] || rf.Gains[i] != ri.Gains[i] {
				t.Fatalf("trial %d: CELF diverged at %d: (%d, %b) vs (%d, %b)",
					trial, i, rf.Seeds[i], rf.Gains[i], ri.Seeds[i], ri.Gains[i])
			}
		}

		// The extended evaluator agrees with a from-scratch one, bit for bit.
		evHead := NewEvaluator(g, head, credit)
		evInc, err := evHead.Extend(g, log, actionlog.ActionID(headN))
		if err != nil {
			t.Fatalf("trial %d: Extend: %v", trial, err)
		}
		evFull := NewEvaluator(g, log, credit)
		if a, b := evFull.Spread(rf.Seeds, nil), evInc.Spread(rf.Seeds, nil); a != b {
			t.Fatalf("trial %d: Spread not bit-identical: %b vs %b", trial, a, b)
		}
	}
}

// TestAppendActionsParallelDeterministic: the tail scan shards per action,
// so serial and fully parallel appends agree exactly.
func TestAppendActionsParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(72, 8))
	g, log := randomInstance(rng, 60, 40)
	credit := LearnTimeAware(g, log)
	headN := 30
	head := log.Prefix(headN)
	serial, err := NewEngine(g, head, Options{Lambda: 0.001, Credit: credit, Workers: 1}).AppendActions(g, log, actionlog.ActionID(headN))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewEngine(g, head, Options{Lambda: 0.001, Credit: credit, Workers: runtime.GOMAXPROCS(0)}).AppendActions(g, log, actionlog.ActionID(headN))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Entries() != parallel.Entries() {
		t.Fatalf("entries %d vs %d", serial.Entries(), parallel.Entries())
	}
	for u := 0; u < g.NumNodes(); u++ {
		if gs, gp := NewProbe(serial).Gain(graph.NodeID(u), nil), NewProbe(parallel).Gain(graph.NodeID(u), nil); gs != gp {
			t.Fatalf("Gain(%d): %b vs %b", u, gs, gp)
		}
	}
}

// TestAppendActionsLeavesBaseFrozen: deriving a successor engine with
// AppendActions must leave the base — which may be serving queries
// concurrently — untouched, per-user action lists included, while the
// successor's selections stay exact. Two successors appended from one
// engine (itself appended, so its action lists may carry spare capacity)
// must not see each other's tails.
func TestAppendActionsLeavesBaseFrozen(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 9))
	g, log := randomInstance(rng, 50, 30)
	credit := LearnTimeAware(g, log)
	opts := Options{Lambda: 0.001, Credit: credit}
	headN := 24
	head := log.Prefix(headN)

	base := NewEngine(g, head, opts)
	actionsOf := make([][]int32, len(base.actionsOf))
	for u, row := range base.actionsOf {
		actionsOf[u] = slices.Clone(row)
	}
	baseline := make([]float64, g.NumNodes())
	for u := range baseline {
		baseline[u] = NewProbe(base).Gain(graph.NodeID(u), nil)
	}
	baseEntries := base.Entries()

	succ, err := base.AppendActions(g, log, actionlog.ActionID(headN))
	if err != nil {
		t.Fatal(err)
	}
	// Selection on the successor reads both shared base shards and the
	// successor's own delta shards.
	sel := seedsel.CELF(NewProbe(succ).Estimator(nil), 6)
	ref := seedsel.CELF(NewProbe(NewEngine(g, log, opts)).Estimator(nil), 6)
	for i := range ref.Seeds {
		if sel.Seeds[i] != ref.Seeds[i] || sel.Gains[i] != ref.Gains[i] {
			t.Fatalf("successor CELF diverged at %d: (%d, %b) vs (%d, %b)",
				i, sel.Seeds[i], sel.Gains[i], ref.Seeds[i], ref.Gains[i])
		}
	}

	// The base is bit-exactly as it was.
	if base.Entries() != baseEntries {
		t.Fatalf("base entries changed: %d -> %d", baseEntries, base.Entries())
	}
	if base.NumActions() != headN {
		t.Fatalf("base action count changed: %d", base.NumActions())
	}
	for u := range baseline {
		if got := NewProbe(base).Gain(graph.NodeID(u), nil); got != baseline[u] {
			t.Fatalf("base Gain(%d) changed: %b -> %b", u, baseline[u], got)
		}
		if !slices.Equal(base.actionsOf[u], actionsOf[u]) || int(base.au[u]) != len(actionsOf[u]) {
			t.Fatalf("base actions of %d changed: %v -> %v", u, actionsOf[u], base.actionsOf[u])
		}
	}

	// Two different tails appended onto one appended engine.
	midN := headN + 3
	mid, err := base.AppendActions(g, log.Prefix(midN), actionlog.ActionID(headN))
	if err != nil {
		t.Fatal(err)
	}
	tail := func(shift int) []actionlog.Tuple {
		var out []actionlog.Tuple
		for _, tp := range log.Tuples() {
			if int(tp.Action) == midN+shift {
				tp.Action = actionlog.ActionID(midN)
				out = append(out, tp)
			}
		}
		return out
	}
	logA, err := log.Prefix(midN).Append(tail(0))
	if err != nil {
		t.Fatal(err)
	}
	logB, err := log.Prefix(midN).Append(tail(1))
	if err != nil {
		t.Fatal(err)
	}
	succA, err := mid.AppendActions(g, logA, actionlog.ActionID(midN))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mid.AppendActions(g, logB, actionlog.ActionID(midN)); err != nil {
		t.Fatal(err)
	}
	wantA := NewEngine(g, logA, opts)
	for u := 0; u < g.NumNodes(); u++ {
		if !slices.Equal(succA.actionsOf[u], wantA.actionsOf[u]) {
			t.Fatalf("successor A's actions of %d = %v after appending B, rescan has %v", u, succA.actionsOf[u], wantA.actionsOf[u])
		}
		if got, want := NewProbe(succA).Gain(graph.NodeID(u), nil), NewProbe(wantA).Gain(graph.NodeID(u), nil); got != want {
			t.Fatalf("successor A's Gain(%d) = %b after appending B, rescan gives %b", u, got, want)
		}
	}
}

// TestAppendActionsRegistersUnseenUsers: a tail may introduce users the
// prefix never saw (the log universe grows); the engine registers them as
// long as the graph covers them, and matches a full rescan.
func TestAppendActionsRegistersUnseenUsers(t *testing.T) {
	b := graph.NewBuilder(6)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}} {
		_ = b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	lb := actionlog.NewBuilder(4) // users 4 and 5 unseen in the head
	_ = lb.Add(0, 0, 1)
	_ = lb.Add(1, 0, 2)
	_ = lb.Add(2, 1, 1)
	_ = lb.Add(3, 1, 2)
	head := lb.Build()
	combined, err := head.Append([]actionlog.Tuple{
		{User: 4, Action: 2, Time: 1}, {User: 5, Action: 2, Time: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	inc, err := NewEngine(g, head, Options{}).AppendActions(g, combined, 2)
	if err != nil {
		t.Fatalf("AppendActions: %v", err)
	}
	if inc.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d, want 6", inc.NumNodes())
	}
	full := NewEngine(g, combined, Options{})
	for u := 0; u < 6; u++ {
		if gf, gi := NewProbe(full).Gain(graph.NodeID(u), nil), NewProbe(inc).Gain(graph.NodeID(u), nil); gf != gi {
			t.Fatalf("Gain(%d): %b vs %b", u, gf, gi)
		}
	}
	if inc.ActionCount(4) != 1 || inc.ActionCount(5) != 1 {
		t.Fatalf("A_4=%d A_5=%d, want 1/1", inc.ActionCount(4), inc.ActionCount(5))
	}
}

// TestAppendActionsErrors pins the guard rails. Engines hold no seeds,
// so appending after a commit is refused at the planner level
// (credist's TestIngestAfterAddRejected).
func TestAppendActionsErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(75, 2))
	g, log := randomInstance(rng, 20, 10)
	head := log.Prefix(8)

	e := NewEngine(g, head, Options{})
	if _, err := e.AppendActions(g, log, 5); err == nil {
		t.Error("from mismatch accepted")
	}
	if _, err := e.AppendActions(g, head, 8); err != nil {
		t.Errorf("no-op append rejected: %v", err)
	}

	// A universe beyond the graph is rejected.
	grown, err := head.Append([]actionlog.Tuple{{User: graph.NodeID(g.NumNodes()), Action: 8, Time: 1}})
	if err != nil {
		t.Fatal(err)
	}
	e3 := NewEngine(g, head, Options{})
	if _, err := e3.AppendActions(g, grown, 8); err == nil {
		t.Error("universe beyond graph accepted")
	}

	ev := NewEvaluator(g, head, nil)
	if _, err := ev.Extend(g, log, 5); err == nil {
		t.Error("evaluator from mismatch accepted")
	}
	if _, err := ev.Extend(g, grown, 8); err == nil {
		t.Error("evaluator universe beyond graph accepted")
	}
}
