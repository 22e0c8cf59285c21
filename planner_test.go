package credist

import (
	"fmt"
	"strings"
	"testing"
)

// plannerShapes returns a model over a small generated dataset and its
// planner as one full engine and as 4 row-range partitions.
func plannerShapes(t *testing.T, seed uint64) (*Model, map[string]*Planner) {
	t.Helper()
	m := Learn(Generate(tinyConfig(seed)), Options{Lambda: 0.001})
	pp, err := m.NewPlanner().Partition(4)
	if err != nil {
		t.Fatalf("Partition(4): %v", err)
	}
	return m, map[string]*Planner{"engine": m.NewPlanner(), "4 partitions": pp}
}

// TestQueryFormsRejectOutOfRangeIDs: every query form that returns an
// error refuses an id outside [0, NumUsers) with an error naming the id,
// wherever the id appears, at 1 engine and at 4 partitions; none panics.
func TestQueryFormsRejectOutOfRangeIDs(t *testing.T) {
	m, planners := plannerShapes(t, 41)
	n := m.Dataset().NumUsers()
	for shape, p := range planners {
		for _, id := range []NodeID{NodeID(n), -1} {
			ids := []NodeID{id}
			forms := map[string]func() error{
				"Planner.Spread": func() error { _, err := p.Spread(ids); return err },
				"Planner.SpreadObj": func() error {
					_, err := p.SpreadObj(ids, &Objective{Windowed: true, Window: 5})
					return err
				},
				"Planner.SpreadObj blocked": func() error {
					_, err := p.SpreadObj([]NodeID{0}, &Objective{Blocked: ids})
					return err
				},
				"Planner.Gains candidate": func() error { _, err := p.Gains(nil, ids); return err },
				"Planner.Gains base":      func() error { _, err := p.Gains(ids, []NodeID{0}); return err },
				"Planner.GainsObj audience": func() error {
					_, err := p.GainsObj(nil, []NodeID{0}, &Objective{Audience: ids})
					return err
				},
				"Planner.Select blocked":  func() error { _, err := p.Select(3, &Objective{Blocked: ids}); return err },
				"Planner.Select audience": func() error { _, err := p.Select(3, &Objective{Audience: ids}); return err },
				"Planner.ExplainSeed":     func() error { _, err := p.ExplainSeed(id, 3); return err },
				"Planner.ExplainReach seed": func() error {
					_, err := p.ExplainReach(ids, 0, 3)
					return err
				},
				"Planner.ExplainReach target": func() error {
					_, err := p.ExplainReach([]NodeID{0}, id, 3)
					return err
				},
				"Planner.ResumeSelection": func() error {
					_, err := p.ResumeSelection(&SeedPrefix{Seeds: ids, Gains: []float64{1}, LookupsAt: []int64{1}})
					return err
				},
				"Model.SpreadObj":     func() error { _, err := m.SpreadObj(ids, nil); return err },
				"Model.ExplainSeedOn": func() error { _, err := m.ExplainSeedOn(p, id, 3); return err },
				"Model.ApproxSpread": func() error {
					_, err := m.ApproxSpread(ids, ApproxOptions{MaxSamples: 64})
					return err
				},
				"Model.ApproxSpreadFixed": func() error { _, _, err := m.ApproxSpreadFixed(ids); return err },
			}
			for name, call := range forms {
				t.Run(fmt.Sprintf("%s/%s/%d", shape, name, id), func(t *testing.T) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panicked: %v", r)
						}
					}()
					err := call()
					if err == nil {
						t.Fatal("accepted")
					}
					if want := fmt.Sprintf(" %d ", id); !strings.Contains(err.Error(), want) {
						t.Fatalf("error %q does not name id %d", err, id)
					}
				})
			}
		}
	}
}

// TestExplainReachRefusesRepeatedSeed: a seed listed twice would count
// its credit twice, so ExplainReach refuses it with an error naming the
// seed, at 1 engine and at 4 partitions, while the same seed listed once
// is answered.
func TestExplainReachRefusesRepeatedSeed(t *testing.T) {
	_, planners := plannerShapes(t, 42)
	for shape, p := range planners {
		for _, seeds := range [][]NodeID{{1, 1}, {1, 5, 9, 5}} {
			_, err := p.ExplainReach(seeds, 2, 10)
			if err == nil {
				t.Fatalf("%s: ExplainReach(%v) accepted a repeated seed", shape, seeds)
			}
			if want := fmt.Sprintf("seed %d repeated", seeds[len(seeds)-1]); !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: ExplainReach(%v) error %q does not name the repeated seed", shape, seeds, err)
			}
		}
		if _, err := p.ExplainReach([]NodeID{1}, 2, 10); err != nil {
			t.Fatalf("%s: ExplainReach({1}): %v", shape, err)
		}
	}
}
