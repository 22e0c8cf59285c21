package core

import (
	"testing"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

// Edge-case coverage: degenerate logs and graphs must not panic and must
// return sane zero values.

func emptyInstance(t *testing.T) (*graph.Graph, *actionlog.Log) {
	t.Helper()
	g := graph.NewBuilder(3).Build()
	return g, actionlog.NewBuilder(3).Build()
}

func TestEngineEmptyLog(t *testing.T) {
	g, log := emptyInstance(t)
	e := NewEngine(g, log, Options{})
	if e.Entries() != 0 {
		t.Fatalf("entries = %d", e.Entries())
	}
	if got := NewProbe(e).Gain(0, nil); got != 0 {
		t.Fatalf("gain on empty log = %g", got)
	}
	NewProbe(e).Commit(0, nil) // must not panic
	if got := e.NumActions(); got != 0 {
		t.Fatalf("actions = %d", got)
	}
}

func TestEvaluatorEmptyLog(t *testing.T) {
	g, log := emptyInstance(t)
	ev := NewEvaluator(g, log, nil)
	if got := ev.Spread([]graph.NodeID{0, 1}, nil); got != 0 {
		t.Fatalf("spread on empty log = %g", got)
	}
	if got := ev.Spread(nil, nil); got != 0 {
		t.Fatalf("spread of empty set = %g", got)
	}
}

func TestEvaluatorDuplicateSeeds(t *testing.T) {
	g, log := figure1(t)
	ev := NewEvaluator(g, log, nil)
	once := ev.Spread([]graph.NodeID{nodeV}, nil)
	twice := ev.Spread([]graph.NodeID{nodeV, nodeV, nodeV}, nil)
	if once != twice {
		t.Fatalf("duplicates changed spread: %g vs %g", once, twice)
	}
}

func TestSingleUserAction(t *testing.T) {
	// One user performing one action alone: spread of that user is 1,
	// everything else 0.
	b := graph.NewBuilder(2)
	_ = b.AddEdge(0, 1)
	g := b.Build()
	lb := actionlog.NewBuilder(2)
	_ = lb.Add(0, 0, 5)
	log := lb.Build()
	e := NewEngine(g, log, Options{})
	if got := NewProbe(e).Gain(0, nil); !almostEqual(got, 1) {
		t.Fatalf("lone actor gain = %g, want 1", got)
	}
	if got := NewProbe(e).Gain(1, nil); got != 0 {
		t.Fatalf("bystander gain = %g, want 0", got)
	}
	ev := NewEvaluator(g, log, nil)
	if got := ev.Spread([]graph.NodeID{0}, nil); !almostEqual(got, 1) {
		t.Fatalf("lone actor spread = %g", got)
	}
}

func TestEngineLambdaDropsEverything(t *testing.T) {
	g, log := figure1(t)
	e := NewEngine(g, log, Options{Lambda: 2}) // above any possible credit
	if e.Entries() != 0 {
		t.Fatalf("entries = %d with lambda above max credit", e.Entries())
	}
	// Gains reduce to self-credit only.
	if got := NewProbe(e).Gain(nodeV, nil); !almostEqual(got, 1) {
		t.Fatalf("gain = %g, want pure self credit 1", got)
	}
}

func TestAddSameSeedTwice(t *testing.T) {
	g, log := figure1(t)
	e := newCommitOracle(NewEngine(g, log, Options{}))
	e.Add(nodeV)
	gainAfter := e.Gain(nodeV)
	// After committing, x's row/column are gone; its gain is its
	// (1 - SC) * self-credit, which reflects it already being a seed via
	// SC only if SC[x] was set. The selection layer never re-adds a seed;
	// this just checks no panic and a bounded value.
	if gainAfter < 0 || gainAfter > 1 {
		t.Fatalf("gain of committed seed = %g", gainAfter)
	}
	e.Add(nodeV) // must not panic or corrupt entries
	if e.Entries() < 0 {
		t.Fatalf("entries corrupted: %d", e.Entries())
	}
}

func TestEvaluatorSeedWithNoActions(t *testing.T) {
	g, log := figure1(t)
	// Extend universe with inactive user 6.
	b := graph.NewBuilder(7)
	for _, e := range g.Edges() {
		_ = b.AddEdge(e.From, e.To)
	}
	g2 := b.Build()
	lb := actionlog.NewBuilder(7)
	for _, tp := range log.Tuples() {
		_ = lb.Add(tp.User, tp.Action, tp.Time)
	}
	log2 := lb.Build()
	ev := NewEvaluator(g2, log2, nil)
	// An inactive seed contributes nothing (kappa undefined -> 0).
	withInactive := ev.Spread([]graph.NodeID{nodeV, 6}, nil)
	without := ev.Spread([]graph.NodeID{nodeV}, nil)
	if withInactive != without {
		t.Fatalf("inactive seed changed spread: %g vs %g", withInactive, without)
	}
}
