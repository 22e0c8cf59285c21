package partition_test

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"credist"
	"credist/internal/actionlog"
	"credist/internal/core"
	"credist/internal/graph"
	"credist/internal/partition"
)

func TestSplitRanges(t *testing.T) {
	cases := []struct {
		users, n int
		want     []partition.Range
	}{
		{10, 1, []partition.Range{{0, 10}}},
		{10, 2, []partition.Range{{0, 5}, {5, 10}}},
		{10, 3, []partition.Range{{0, 4}, {4, 7}, {7, 10}}},
		{7, 7, []partition.Range{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}}},
		{3, 9, []partition.Range{{0, 1}, {1, 2}, {2, 3}}}, // clamped to numUsers
		{5, 0, []partition.Range{{0, 5}}},                 // clamped to 1
		{0, 4, []partition.Range{{0, 0}}},
	}
	for _, c := range cases {
		got := partition.SplitRanges(c.users, c.n)
		if len(got) != len(c.want) {
			t.Errorf("SplitRanges(%d,%d) = %v, want %v", c.users, c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitRanges(%d,%d)[%d] = %v, want %v", c.users, c.n, i, got[i], c.want[i])
			}
		}
		if err := partition.ValidateRanges(got, c.users); err != nil {
			t.Errorf("SplitRanges(%d,%d) fails its own validation: %v", c.users, c.n, err)
		}
	}
}

// TestValidateRangesMalformed is the satellite-1 table: every malformed
// shape a mis-assembled slice set can take is rejected with an error
// naming the offending ranges, so operators can diagnose from the
// message alone.
func TestValidateRangesMalformed(t *testing.T) {
	cases := []struct {
		name   string
		ranges []partition.Range
		users  int
		want   []string // substrings the error must contain
	}{
		{"empty", nil, 10, []string{"no row ranges"}},
		{"overlap", []partition.Range{{0, 6}, {4, 10}}, 10, []string{"[4,10)", "overlaps", "[0,6)"}},
		{"contained", []partition.Range{{0, 10}, {3, 7}}, 10, []string{"[3,7)", "overlaps", "[0,10)"}},
		{"duplicate", []partition.Range{{0, 5}, {0, 5}, {5, 10}}, 10, []string{"[0,5)", "overlaps", "[0,5)"}},
		{"gap", []partition.Range{{0, 4}, {6, 10}}, 10, []string{"gap", "[0,4)", "[6,10)", "[4,6)"}},
		{"missing head", []partition.Range{{2, 10}}, 10, []string{"[0,2)", "uncovered", "[2,10)"}},
		{"missing tail", []partition.Range{{0, 4}, {4, 8}}, 10, []string{"[8,10)", "uncovered", "[4,8)"}},
		{"inverted", []partition.Range{{6, 2}}, 10, []string{"[6,2)", "outside the universe"}},
		{"negative", []partition.Range{{-2, 5}, {5, 10}}, 10, []string{"[-2,5)", "outside the universe"}},
		{"beyond universe", []partition.Range{{0, 12}}, 10, []string{"[0,12)", "outside the universe"}},
	}
	for _, c := range cases {
		err := partition.ValidateRanges(c.ranges, c.users)
		if err == nil {
			t.Errorf("%s: ValidateRanges(%v, %d) accepted", c.name, c.ranges, c.users)
			continue
		}
		for _, sub := range c.want {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not name %q", c.name, err, sub)
			}
		}
	}
	// Order independence: a valid cover passed out of order still passes.
	if err := partition.ValidateRanges([]partition.Range{{5, 10}, {0, 5}}, 10); err != nil {
		t.Errorf("out-of-order valid cover rejected: %v", err)
	}
}

// TestNewRejectsMalformedPartitionSets drives the malformed shapes
// through LoadPartitions with real snapshot-slice files, heap-read and
// memory-mapped: every refusal names its cause, and a lone file covering
// the universe — a whole model or a full-range slice — loads.
func TestNewRejectsMalformedPartitionSets(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 44))
	g, raw := randomInstance(rng, 30, 12)
	// User 29 never acts, so a log over the 30-user universe and one over
	// 29 users hold the same tuples: a slice of the narrow model passes
	// the lineage check but spans another universe.
	wide, narrow := actionlog.NewBuilder(30), actionlog.NewBuilder(29)
	for _, tp := range raw.Tuples() {
		if int(tp.User) < 29 {
			_ = wide.Add(tp.User, tp.Action, tp.Time)
			_ = narrow.Add(tp.User, tp.Action, tp.Time)
		}
	}
	log, small := wide.Build(), narrow.Build()
	ds := &credist.Dataset{Name: "malformed", Graph: g, Log: log}
	full := core.NewEngine(g, log, core.Options{})
	lin := core.DatasetLineage(ds.Name, g, log)
	dir := t.TempDir()
	write := func(name string, w func(io.Writer) error) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w(f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	slice := func(lo, hi int) string {
		return write(fmt.Sprintf("slice-%d-%d.bin", lo, hi), func(w io.Writer) error { return full.WriteSlice(w, lin, nil, lo, hi) })
	}
	whole := write("model.bin", func(w io.Writer) error { return full.WriteSnapshot(w, lin, nil, nil) })
	other := write("narrow.bin", func(w io.Writer) error {
		return core.NewEngine(g, small, core.Options{}).WriteSlice(w, core.DatasetLineage(ds.Name, g, small), nil, 20, 29)
	})

	cases := []struct {
		name  string
		paths []string
		want  string
	}{
		{"none", nil, "no slice paths"},
		{"overlap", []string{slice(0, 20), slice(15, 30)}, "overlaps"},
		{"gap", []string{slice(0, 10), slice(15, 30)}, "gap"},
		{"missing head", []string{slice(5, 30)}, "uncovered"},
		{"missing tail", []string{slice(0, 25)}, "uncovered"},
		{"full model among slices", []string{whole, slice(0, 30)}, "full model"},
		{"mismatched universes", []string{slice(0, 20), other}, "29-user universe"},
	}
	for _, mmap := range []bool{false, true} {
		for _, c := range cases {
			_, p, err := credist.LoadPartitions(ds, c.paths, mmap, credist.Options{})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("mmap=%t %s: LoadPartitions = %v, want error containing %q", mmap, c.name, err, c.want)
			}
			if err == nil {
				p.Close()
			}
		}
		// A lone file covering the universe is the trivial cover.
		for _, path := range []string{whole, slice(0, 30)} {
			_, p, err := credist.LoadPartitions(ds, []string{path}, mmap, credist.Options{})
			if err != nil {
				t.Errorf("mmap=%t %s alone rejected: %v", mmap, filepath.Base(path), err)
				continue
			}
			if p.NumPartitions() != 1 || p.Entries() != full.Entries() {
				t.Errorf("mmap=%t %s alone: %d partitions, %d entries; want 1, %d", mmap, filepath.Base(path), p.NumPartitions(), p.Entries(), full.Entries())
			}
			p.Close()
		}
	}
}

// TestCoordinatorSpreadMatchesEvaluatorAtLambdaZero pins what the
// partitioned planner's spread is: with no truncation (lambda = 0) the
// telescoped gains over the UC structure equal the evaluator's exact
// sigma_cd to 1e-9 relative, at every partition count. The two never
// agree to the bit (the planner sums per seed, the evaluator per action),
// and at lambda > 0 the planner reads the truncated model's lower spread,
// so no tolerance is promised there.
func TestCoordinatorSpreadMatchesEvaluatorAtLambdaZero(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 2011))
	g, log := randomInstance(rng, 60, 40)
	m := credist.Learn(&credist.Dataset{Name: "lambda-zero", Graph: g, Log: log}, credist.Options{})
	for _, nparts := range []int{1, 3} {
		pp, err := m.NewPlanner().Partition(nparts)
		if err != nil {
			t.Fatalf("Partition(%d): %v", nparts, err)
		}
		for q := 0; q < 30; q++ {
			seeds := make([]graph.NodeID, 1+rng.IntN(6))
			for i := range seeds {
				seeds[i] = graph.NodeID(rng.IntN(g.NumNodes()))
			}
			got, err := pp.Spread(seeds)
			if err != nil {
				t.Fatalf("Spread(%v): %v", seeds, err)
			}
			want := m.Spread(seeds)
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("%d partitions, seeds %v: planner %.17g, evaluator %.17g", nparts, seeds, got, want)
			}
		}
	}
}
