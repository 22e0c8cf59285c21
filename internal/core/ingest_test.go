package core

import (
	"math/rand/v2"
	"strings"
	"testing"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

// TestIngestMatchesFullScan: scanning a log of n actions must equal, bit
// for bit, scanning a prefix and then appending the rest one action at a
// time, for every gain and the entry count.
func TestIngestMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 41))
	for trial := 0; trial < 10; trial++ {
		g, log := randomInstance(rng, 15+rng.IntN(10), 6+rng.IntN(4))
		full := NewEngine(g, log, Options{})

		// Prefix log: first half of the actions.
		half := log.NumActions() / 2
		if half == 0 {
			continue
		}
		partial := NewEngine(g, log.Prefix(half), Options{})
		for a := half; a < log.NumActions(); a++ {
			var err error
			if partial, err = partial.AppendActions(g, log.Prefix(a+1), actionlog.ActionID(a)); err != nil {
				t.Fatal(err)
			}
		}

		if full.Entries() != partial.Entries() {
			t.Fatalf("trial %d: entries %d != %d", trial, full.Entries(), partial.Entries())
		}
		if full.NumActions() != partial.NumActions() {
			t.Fatalf("trial %d: actions %d != %d", trial, full.NumActions(), partial.NumActions())
		}
		for u := 0; u < g.NumNodes(); u++ {
			if gf, gp := NewProbe(full).Gain(graph.NodeID(u), nil), NewProbe(partial).Gain(graph.NodeID(u), nil); gf != gp {
				t.Fatalf("trial %d: Gain(%d) %b != %b", trial, u, gf, gp)
			}
		}
	}
}

// TestIngestGrowsActionCount appends a copy of Figure 1's one action, and
// then a tuple whose user lies outside the graph, which is rejected.
func TestIngestGrowsActionCount(t *testing.T) {
	g, log := figure1(t)
	e := NewEngine(g, log, Options{})
	before := e.ActionCount(nodeV)
	var again []actionlog.Tuple
	for _, tp := range log.Tuples() {
		tp.Action = 1
		again = append(again, tp)
	}
	twice, err := log.Append(again)
	if err != nil {
		t.Fatal(err)
	}
	e, err = e.AppendActions(g, twice, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.ActionCount(nodeV) != before+1 {
		t.Fatalf("A_v = %d, want %d", e.ActionCount(nodeV), before+1)
	}
	if e.NumActions() != 2 {
		t.Fatalf("NumActions = %d, want 2", e.NumActions())
	}
	// Ingesting the same propagation again halves every per-action share
	// but doubles the action count: spread gains stay finite and positive.
	if gain := NewProbe(e).Gain(nodeV, nil); gain <= 0 {
		t.Fatalf("gain after ingest = %g", gain)
	}

	outside, err := twice.Append([]actionlog.Tuple{{User: graph.NodeID(g.NumNodes()), Action: 2, Time: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendActions(g, outside, 2); err == nil || !strings.Contains(err.Error(), "exceeds the graph") {
		t.Fatalf("append of a user outside the graph: err = %v", err)
	}
}
