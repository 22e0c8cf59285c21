package credist

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// seededPlanner returns a model over a small generated dataset and a
// planner of it holding two committed seeds.
func seededPlanner(t *testing.T, seed uint64) (*Model, *Planner, []NodeID) {
	t.Helper()
	m := Learn(Generate(tinyConfig(seed)), Options{Lambda: 0.001})
	picks, _ := selectSeeds(m, 2)
	p := m.NewPlanner()
	for _, s := range picks {
		p.Add(s)
	}
	return m, p, picks
}

// TestIngestAfterAddRejected: a planner that holds seeds cannot be
// extended by an ingest (its seeds were priced over the old log), while a
// seedless planner of the same model extends fine.
func TestIngestAfterAddRejected(t *testing.T) {
	full := Generate(tinyConfig(31))
	n := full.Log.NumActions()
	headN := n - n/20
	model := Learn(&Dataset{Name: "head", Graph: full.Graph, Log: full.Log.Prefix(headN)}, Options{Lambda: 0.001})
	var tail []Tuple
	for a := headN; a < n; a++ {
		tail = append(tail, full.Log.Action(ActionID(a))...)
	}
	grown, err := model.Ingest(tail)
	if err != nil {
		t.Fatal(err)
	}
	p := model.NewPlanner()
	p.Add(3)
	if _, err := grown.ExtendPlanner(p); err == nil || !strings.Contains(err.Error(), "committed seeds") {
		t.Fatalf("ExtendPlanner of a planner with seeds: err = %v", err)
	}
	if _, err := grown.ExtendPlanner(p.Clone()); err == nil {
		t.Fatal("ExtendPlanner of a clone holding the seeds accepted")
	}
	if _, err := grown.ExtendPlanner(model.NewPlanner()); err != nil {
		t.Fatalf("ExtendPlanner of a seedless planner: %v", err)
	}
}

// TestPartitionAfterAddRejected: partitions serve the scanned model from
// an empty seed set, so a planner holding seeds is not split.
func TestPartitionAfterAddRejected(t *testing.T) {
	m, p, _ := seededPlanner(t, 32)
	if _, err := p.Partition(2); err == nil || !strings.Contains(err.Error(), "committed seeds") {
		t.Fatalf("Partition of a planner with seeds: err = %v", err)
	}
	if _, err := m.NewPlanner().Partition(2); err != nil {
		t.Fatalf("Partition of a seedless planner: %v", err)
	}
}

// TestSnapshotRefusesCommittedSeeds: every snapshot writer refuses a
// planner holding seeds — a snapshot stores the scanned model, and a
// seed prefix is stored as data beside it — and writes nothing.
func TestSnapshotRefusesCommittedSeeds(t *testing.T) {
	m, p, _ := seededPlanner(t, 33)
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf, p, nil); err == nil || !strings.Contains(err.Error(), "committed seeds") {
		t.Errorf("WriteSnapshot: err = %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("refused writes left %d bytes", buf.Len())
	}
	dir := t.TempDir()
	if err := m.SaveOn(filepath.Join(dir, "model.bin"), p, nil); err == nil || !strings.Contains(err.Error(), "committed seeds") {
		t.Errorf("SaveOn: err = %v", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("refused SaveOn left %d files (%v)", len(entries), err)
	}
	if err := m.WriteSnapshot(io.Discard, m.NewPlanner(), nil); err != nil {
		t.Errorf("WriteSnapshot of a seedless planner: %v", err)
	}
}

// TestExplainReachOnSeededPlanner: over a planner holding seeds, a
// committed seed pushes no credit and a committed target receives none,
// though both carry credit on a seedless planner; the shares fold to the
// total and a clone explains identically; a seed listed twice is refused
// on either. Bit-identity to committing in place is pinned in
// internal/core (TestExplainReachMatchesCommitOracle).
func TestExplainReachOnSeededPlanner(t *testing.T) {
	m, p, picks := seededPlanner(t, 34)
	seeds := []NodeID{picks[0], 1, 5, 9, 40}
	targets := []NodeID{picks[1], 3, 14, 77}
	fresh := m.NewPlanner()
	reach := func(p *Planner, seeds []NodeID, v NodeID) ReachExplanation {
		return mustExplainReach(t, p, seeds, v, 10)
	}
	for _, q := range []*Planner{fresh, p} {
		if _, err := q.ExplainReach(append(seeds, picks[0]), targets[1], 10); err == nil {
			t.Fatalf("repeated seed %d accepted", picks[0])
		}
	}
	if ex := reach(fresh, seeds, picks[1]); ex.Total == 0 {
		t.Fatalf("instance too weak: no credit reaches %d without seeds", picks[1])
	}
	pushes := false
	for _, v := range targets {
		pushes = pushes || reach(fresh, seeds[:1], v).Total > 0
	}
	if !pushes {
		t.Fatalf("instance too weak: seed %d pushes no credit to %v without seeds", picks[0], targets)
	}
	for _, v := range targets {
		ex := reach(p, seeds, v)
		if again := reach(p.Clone(), seeds, v); !reflect.DeepEqual(ex, again) {
			t.Fatalf("target %d: a clone explains %+v, the planner %+v", v, again, ex)
		}
		sum := 0.0
		for i, ps := range ex.PerSeed {
			if ps.Seed != seeds[i] {
				t.Fatalf("target %d: share %d names seed %d, want %d", v, i, ps.Seed, seeds[i])
			}
			if ps.Seed == picks[0] && ps.Share != 0 {
				t.Errorf("target %d: committed seed %d pushes %g", v, ps.Seed, ps.Share)
			}
			sum += ps.Share
		}
		if sum != ex.Total {
			t.Errorf("target %d: shares fold to %b, Total = %b", v, sum, ex.Total)
		}
		if v == picks[1] && (ex.Total != 0 || ex.TotalPaths != 0) {
			t.Errorf("committed target %d receives %+v", v, ex)
		}
	}
}
