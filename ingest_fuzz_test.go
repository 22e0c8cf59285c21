package credist

import (
	"math"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"credist/internal/actionlog"
	"credist/internal/core"
	"credist/internal/graph"
)

// checkIngestMatchesRescan draws a random graph and log, learns a model
// on a random head of it (a prefix of the actions, over a possibly
// smaller user universe), opens it from a heap-read or mapped model file,
// splits its planner into nparts partitions, and ingests the rest of the
// log in random batches, extending the planner after each. The final
// planner must hold every UC cell, the entry count and every gain of a
// NewEngine scan over the ingested log, bit for bit, and its partition
// ranges must still tile the grown universe with matching accounting.
func checkIngestMatchesRescan(t *testing.T, seed uint64, nparts int, mmap bool) {
	rng := rand.New(rand.NewPCG(seed, 0xa0761d6478bd642f))
	nUsers := 8 + rng.IntN(16)
	b := graph.NewBuilder(nUsers)
	for u := 0; u < nUsers; u++ {
		for d := 1 + rng.IntN(4); d > 0; d-- {
			if v := rng.IntN(nUsers); v != u {
				_ = b.AddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	g := b.Build()
	nActions := 4 + rng.IntN(14)
	headN := 1 + rng.IntN(nActions-1)
	headUsers := nUsers - rng.IntN(4)
	// Head actions involve only the head universe; the tail may register
	// the users past it.
	lb := actionlog.NewBuilder(nUsers)
	for a := 0; a < nActions; a++ {
		users := nUsers
		if a < headN {
			users = headUsers
		}
		for _, u := range rng.Perm(users)[:2+rng.IntN(users-1)] {
			_ = lb.Add(NodeID(u), ActionID(a), float64(rng.IntN(6)))
		}
	}
	combined := lb.Build()
	var headTuples []Tuple
	for a := 0; a < headN; a++ {
		headTuples = append(headTuples, combined.Action(ActionID(a))...)
	}
	headLog, err := actionlog.FromTuples(headUsers, headTuples)
	if err != nil {
		t.Fatal(err)
	}

	opts := Options{Lambda: []float64{0, 0.001, 0.05}[rng.IntN(3)], SimpleCredit: headUsers < nUsers || rng.IntN(2) == 0}
	learned := Learn(&Dataset{Name: "ingest-fuzz", Graph: g, Log: headLog}, opts)
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := learned.Save(path); err != nil {
		t.Fatal(err)
	}
	m, err := loadSnapshotModel(learned.Dataset(), path, mmap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	p, err := m.NewPlanner().Partition(nparts)
	if err != nil {
		t.Fatal(err)
	}
	for a := headN; a < nActions; {
		end := a + 1 + rng.IntN(nActions-a)
		var batch []Tuple
		for ; a < end; a++ {
			batch = append(batch, combined.Action(ActionID(a))...)
		}
		if m, err = m.Ingest(batch); err != nil {
			t.Fatalf("seed=%d: Ingest: %v", seed, err)
		}
		if p, err = m.ExtendPlanner(p); err != nil {
			t.Fatalf("seed=%d: ExtendPlanner: %v", seed, err)
		}
	}

	// The ingested log registers only the users its tail names, so the
	// rescan runs over it, after checking it holds the combined tuples.
	grown := m.Dataset().Log
	if core.HashLogPrefix(grown, nActions) != core.HashLogPrefix(combined, nActions) {
		t.Fatalf("seed=%d: the ingested log differs from the combined one", seed)
	}
	nUsers = grown.NumUsers()
	ref := core.NewEngine(g, grown, core.Options{Lambda: opts.Lambda, Credit: m.credit})
	if p.NumUsers() != nUsers || p.NumActions() != nActions || p.Entries() != ref.Entries() {
		t.Fatalf("seed=%d: extended planner %d users/%d actions/%d entries, rescan %d/%d/%d",
			seed, p.NumUsers(), p.NumActions(), p.Entries(), nUsers, nActions, ref.Entries())
	}
	next, entries := 0, int64(0)
	for _, s := range p.Stats() {
		if s.Range.Lo != next {
			t.Fatalf("seed=%d: partition %v follows row %d", seed, s.Range, next)
		}
		next, entries = s.Range.Hi, entries+s.Entries
	}
	if len(p.Stats()) != min(nparts, headUsers) || next != nUsers || entries != ref.Entries() {
		t.Fatalf("seed=%d: %d partitions cover rows [0,%d) with %d entries; want %d covering [0,%d) with %d",
			seed, len(p.Stats()), next, entries, min(nparts, headUsers), nUsers, ref.Entries())
	}
	for a := 0; a < nActions; a++ {
		for v := 0; v < nUsers; v++ {
			for u := 0; u < nUsers; u++ {
				got, want := p.eng.Credit(ActionID(a), NodeID(v), NodeID(u)), ref.Credit(ActionID(a), NodeID(v), NodeID(u))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed=%d: UC[%d][%d][%d] = %b, rescan %b", seed, v, u, a, got, want)
				}
			}
		}
	}
	pr := core.NewProbe(ref)
	for x := 0; x < nUsers; x++ {
		if got, want := p.Gain(NodeID(x)), pr.Gain(NodeID(x), nil); got != want {
			t.Fatalf("seed=%d: Gain(%d) = %b, rescan %b", seed, x, got, want)
		}
	}
}

// FuzzIngestMatchesRescan drives checkIngestMatchesRescan over instance
// seeds at 1, 2 and 4 partitions over heap-read and mapped model files;
// the seed corpus, which plain go test runs, covers every cell of that
// matrix twice.
func FuzzIngestMatchesRescan(f *testing.F) {
	seed := uint64(0)
	for parts := uint8(0); parts < 3; parts++ {
		for _, mmap := range []bool{false, true} {
			for i := 0; i < 2; i++ {
				f.Add(seed, parts, mmap)
				seed++
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, parts uint8, mmap bool) {
		checkIngestMatchesRescan(t, seed, []int{1, 2, 4}[parts%3], mmap)
	})
}
