package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

// scanActionReference is the cell-by-cell scan the participant-space
// kernel replaced, kept as its oracle: it walks every participant's
// parents in order and accumulates each credit into a sorted shard with a
// binary search and a sorted insert per cell, walking columns through
// the commit oracle's column mirror. It returns the shard and the number
// of cells it created.
func scanActionReference(p *actionlog.Propagation, model CreditModel, lambda float64) (*oracleShard, int64) {
	ua := &oracleShard{}
	var entries int64
	add := func(v, u int32, delta float64) {
		cr, created := ua.cell(v, u)
		if created {
			entries++
		}
		*cr += delta
	}
	for i, u := range p.Users {
		for _, j := range p.Parents[i] {
			v := p.Users[j]
			gamma := model.Gamma(p, int32(i), j)
			if gamma < lambda || gamma <= 0 {
				continue
			}
			add(v, u, gamma)
			// Transitive credit: everyone with credit over v extends it
			// to u, scaled by gamma (Eq. 5), subject to truncation. The
			// adds below only touch u's column, so the snapshot of v's
			// column stays valid.
			for _, w := range ua.col(v) {
				c, _ := ua.get(w, v)
				c *= gamma
				if c >= lambda && c > 0 {
					add(w, u, c)
				}
			}
		}
	}
	return ua, entries
}

// cell returns a pointer to the credit of entry (v,u), creating the entry
// (and mirroring it in the column index) when absent; created reports
// whether it did. The pointer is valid until the next structural change.
func (ua *oracleShard) cell(v, u int32) (cr *float64, created bool) {
	ri, ok := slices.BinarySearch(ua.rowKey, v)
	if !ok {
		ua.rowKey = slices.Insert(ua.rowKey, ri, v)
		ua.rows = slices.Insert(ua.rows, ri, []ucEntry(nil))
	}
	ei, found := searchRow(ua.rows[ri], u)
	if !found {
		ua.rows[ri] = slices.Insert(ua.rows[ri], ei, ucEntry{u: u})
		ua.colInsert(u, v)
	}
	return &ua.rows[ri][ei].c, !found
}

// colInsert mirrors a new entry (v,u) into the column index.
func (ua *oracleShard) colInsert(u, v int32) {
	ci, ok := slices.BinarySearch(ua.colKey, u)
	if !ok {
		ua.colKey = slices.Insert(ua.colKey, ci, u)
		ua.cols = slices.Insert(ua.cols, ci, []int32(nil))
	}
	if vi, found := slices.BinarySearch(ua.cols[ci], v); !found {
		ua.cols[ci] = slices.Insert(ua.cols[ci], vi, v)
	}
}

// scanInstance draws a random graph and log with more spread in size,
// degree and timestamp ties than the shared test instances, so long
// transitive chains and truncation both occur.
func scanInstance(rng *rand.Rand) (*graph.Graph, *actionlog.Log) {
	nUsers := 2 + rng.IntN(40)
	b := graph.NewBuilder(nUsers)
	for u := 0; u < nUsers; u++ {
		for deg := 1 + rng.IntN(6); deg > 0; deg-- {
			if v := graph.NodeID(rng.IntN(nUsers)); v != graph.NodeID(u) {
				_ = b.AddEdge(v, graph.NodeID(u))
			}
		}
	}
	lb := actionlog.NewBuilder(nUsers)
	span := 1 + rng.IntN(30)
	for a, nActions := 0, 1+rng.IntN(12); a < nActions; a++ {
		perm := rng.Perm(nUsers)
		for _, u := range perm[:1+rng.IntN(nUsers)] {
			_ = lb.Add(graph.NodeID(u), actionlog.ActionID(a), float64(rng.IntN(span)))
		}
	}
	return b.Build(), lb.Build()
}

// sameShard reports the first difference between a shard and its
// reference: row keys and row cells (credits by bit pattern).
func sameShard(t *testing.T, what string, got *shard, want *oracleShard) {
	t.Helper()
	if len(got.dir) != len(want.rowKey) {
		t.Fatalf("%s: %d rows, reference %d", what, len(got.dir), len(want.rowKey))
	}
	for r, row := range want.rows {
		if got.dir[r].key != want.rowKey[r] {
			t.Fatalf("%s: row key %d = %d, reference %d", what, r, got.dir[r].key, want.rowKey[r])
		}
		if !slices.EqualFunc(got.rowAt(r), row, func(a, b ucEntry) bool {
			return a.u == b.u && math.Float64bits(a.c) == math.Float64bits(b.c)
		}) {
			t.Fatalf("%s: row of %d = %v, reference %v", what, want.rowKey[r], got.rowAt(r), row)
		}
	}
}

// checkExactCaps fails unless the shard is carved at exact size in the
// canonical block order: cap == len on the directory and the cells, and
// every row's cells right after the previous row's.
func checkExactCaps(t *testing.T, what string, s *shard) {
	t.Helper()
	if cap(s.dir) != len(s.dir) || cap(s.cells) != len(s.cells) {
		t.Fatalf("%s: directory or cells carry slack", what)
	}
	next := s.first
	for r, d := range s.dir {
		if d.off != next {
			t.Fatalf("%s: row %d cells at offset %d, canonical %d", what, r, d.off, next)
		}
		next += uint64(d.count) * 16
	}
	if want := s.first + uint64(len(s.cells))*16; next != want {
		t.Fatalf("%s: rows end at offset %d, cells at %d", what, next, want)
	}
}

// oracleOf copies a shard's rows into the reference representation.
func oracleOf(s *shard) *oracleShard {
	o := &oracleShard{}
	for ri := 0; ri < len(s.dir); ri++ {
		o.rowKey = append(o.rowKey, s.dir[ri].key)
		o.rows = append(o.rows, s.rowAt(ri))
	}
	return o
}

// scanLambdas are the truncation thresholds the scan fuzz picks from.
var scanLambdas = []float64{0, 0.001, 0.01, 0.05, 0.2}

// checkScanMatchesReference scans every action of a random instance
// three ways — one scratch reused across the actions in a shuffled order,
// scanShards over 1–3 workers, and NewEngine — and requires each shard to
// equal the reference scan's bit for bit, with the same entry tally and
// cap == len on every slice.
func checkScanMatchesReference(t *testing.T, seed uint64, timeAware bool, lambdaSel uint8) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	g, log := scanInstance(rng)
	var model CreditModel = SimpleCredit{}
	if timeAware {
		model = LearnTimeAware(g, log)
	}
	lambda := scanLambdas[int(lambdaSel)%len(scanLambdas)]
	n := log.NumActions()
	want := make([]*oracleShard, n)
	var wantTotal int64
	for a := range want {
		var entries int64
		want[a], entries = scanActionReference(actionlog.BuildPropagation(log, g, actionlog.ActionID(a)), model, lambda)
		wantTotal += entries
	}

	var scratch scanScratch
	for _, a := range rng.Perm(n) {
		got, entries := scratch.scan(actionlog.BuildPropagation(log, g, actionlog.ActionID(a)), model, lambda)
		what := fmt.Sprintf("scratch scan of action %d", a)
		sameShard(t, what, got, want[a])
		checkExactCaps(t, what, got)
		if entries != got.entryCount() {
			t.Fatalf("action %d: tally %d, shard holds %d cells", a, entries, got.entryCount())
		}
	}

	shards, _, total := scanShards(g, log, 0, n, model, lambda, 1+rng.IntN(3))
	if total != wantTotal {
		t.Fatalf("scanShards tally %d, reference %d", total, wantTotal)
	}
	for a, got := range shards {
		sameShard(t, "scanShards", got, want[a])
		checkExactCaps(t, "scanShards", got)
	}
	if e := NewEngine(g, log, Options{Lambda: lambda, Credit: model}); e.Entries() != wantTotal {
		t.Fatalf("NewEngine entries %d, reference %d", e.Entries(), wantTotal)
	}
}

// FuzzScanMatchesReference drives checkScanMatchesReference over instance
// seeds, both credit rules and the truncation thresholds. The seed corpus,
// which plain go test runs, covers every credit rule and threshold.
func FuzzScanMatchesReference(f *testing.F) {
	seed := uint64(0)
	for _, timeAware := range []bool{false, true} {
		for sel := range scanLambdas {
			for i := 0; i < 3; i++ {
				f.Add(seed, timeAware, uint8(sel))
				seed++
			}
		}
	}
	f.Fuzz(checkScanMatchesReference)
}

// TestFilterShardCarvesExactly: a partition appending a tail keeps a copy
// of exactly its rows of each scanned shard, carved at exact size, equal
// cell for cell to the rows of a full rescan in its range.
func TestFilterShardCarvesExactly(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	g, log := randomInstance(rng, 30, 12)
	headN := 6
	full := NewEngine(g, log, Options{})
	part, err := NewEngine(g, log.Prefix(headN), Options{}).Slice(8, 21)
	if err != nil {
		t.Fatal(err)
	}
	succ, err := part.AppendActions(g, log, actionlog.ActionID(headN))
	if err != nil {
		t.Fatal(err)
	}
	for a := headN; a < log.NumActions(); a++ {
		got := succ.uc[a]
		what := fmt.Sprintf("action %d", a)
		checkExactCaps(t, what, got)
		sameShard(t, what, got, oracleOf(full.uc[a].slice(8, 21)))
	}
}
