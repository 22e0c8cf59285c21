package core

import (
	"cmp"
	"slices"

	"credist/internal/actionlog"
	"credist/internal/graph"
	"credist/internal/par"
)

// This file holds the one-pass scan of Algorithm 2: the worker fan-out
// over actions and the per-action kernel that builds one UC shard.

// scanShards builds the UC shards (and propagation DAGs) of actions
// [from, to) of the log, fanned over a worker pool with one scanScratch
// per worker. Shards are written by index, so the result is independent
// of scheduling.
func scanShards(g *graph.Graph, log *actionlog.Log, from, to int, model CreditModel, lambda float64, workers int) ([]*shard, []*actionlog.Propagation, int64) {
	n := to - from
	workers = par.Workers(n, workers)
	shards := make([]*shard, n)
	props := make([]*actionlog.Propagation, n)
	scratch := make([]scanScratch, workers)
	perWorker := make([]int64, workers)
	par.For(n, workers, func(w, i int) {
		p := actionlog.BuildPropagation(log, g, actionlog.ActionID(from+i))
		props[i] = p
		var entries int64
		shards[i], entries = scratch[w].scan(p, model, lambda)
		perWorker[w] += entries
	})
	var entries int64
	for _, c := range perWorker {
		entries += c
	}
	return shards, props, entries
}

// pcell is one finished credit cell in participant space: participant k
// holds credit c over the column's participant.
type pcell struct {
	k int32
	c float64
}

// scanScratch is one scan worker's state, reused across actions and grown
// to the largest propagation met. Indexes are chronological participant
// indexes of the action being scanned, not user ids.
type scanScratch struct {
	acc     []float64 // per participant: credit over the column being built
	hit     []bool    // per participant: acc holds a cell
	touched []int32   // participants with hit set, in first-credit order
	colOff  []int32   // column i's cells are cells[colOff[i]:colOff[i+1]]
	cells   []pcell   // finished columns, in participant order
	rowLen  []int32   // per participant: cells in its row
	rowPos  []int32   // per participant: its row's fill cursor in the cells
	order   []int32   // participants by ascending user id
}

// grow sizes the per-participant arrays for n participants.
func (s *scanScratch) grow(n int) {
	if len(s.acc) >= n {
		return
	}
	s.acc = make([]float64, n)
	s.hit = make([]bool, n)
	s.colOff = make([]int32, n+1)
	s.rowLen = make([]int32, n)
	s.rowPos = make([]int32, n)
	s.order = make([]int32, n)
}

// credit adds delta to participant k's cell in the column being built.
func (s *scanScratch) credit(k int32, delta float64) {
	if !s.hit[k] {
		s.hit[k] = true
		s.touched = append(s.touched, k)
	}
	s.acc[k] += delta
}

// scan processes one propagation chronologically (the per-action body of
// Algorithm 2) and returns its UC shard and entry count.
//
// The kernel works in participant space. Participant i's column — the
// credits every earlier participant holds over i — is accumulated densely
// in acc: each parent j adds its direct credit gamma, then extends every
// credit in j's column by gamma (Eq. 5), subject to truncation. Parents
// act strictly earlier, so j's column was final when j was done and is
// read as a flat cell list. Each cell receives its additions in ascending
// parent order, exactly as a walk over sorted rows would, so every credit
// is bit-identical to one accumulated cell by cell (scanActionReference in
// the tests). A last counting pass maps participants to user ids and
// carves the sorted rows in the snapshot's base-section layout.
func (s *scanScratch) scan(p *actionlog.Propagation, model CreditModel, lambda float64) (*shard, int64) {
	n := len(p.Users)
	s.grow(n)
	s.cells = s.cells[:0]
	s.colOff[0] = 0
	for i := range n {
		s.touched = s.touched[:0]
		for _, j := range p.Parents[i] {
			if int(j) >= i {
				panic("core: scan: propagation parent does not precede its child")
			}
			gamma := model.Gamma(p, int32(i), j)
			if gamma < lambda || gamma <= 0 {
				continue
			}
			s.credit(j, gamma)
			for _, cl := range s.cells[s.colOff[j]:s.colOff[j+1]] {
				if c := cl.c * gamma; c >= lambda && c > 0 {
					s.credit(cl.k, c)
				}
			}
		}
		for _, k := range s.touched {
			s.cells = append(s.cells, pcell{k, s.acc[k]})
			s.rowLen[k]++
			s.acc[k], s.hit[k] = 0, false
		}
		s.colOff[i+1] = int32(len(s.cells))
	}
	sh := s.carve(p.Users)
	clear(s.rowLen[:n])
	return sh, int64(len(s.cells))
}

// carve builds the shard from the finished columns: the directory in
// ascending user id, each row's cells in ascending influenced id, all
// cells in one array in directory order — the canonical on-disk block
// order — with no per-row sort. Offsets count bytes from cells[0].
func (s *scanScratch) carve(users []graph.NodeID) *shard {
	n, total := len(users), len(s.cells)
	if total == 0 {
		return &shard{}
	}
	order := s.order[:n]
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(users[a], users[b]) })
	nRows := 0
	for _, k := range order {
		if s.rowLen[k] > 0 {
			nRows++
		}
	}
	sh := &shard{dir: make([]mdirEntry, 0, nRows), cells: make([]ucEntry, total)}
	next := int32(0)
	for _, k := range order {
		if m := s.rowLen[k]; m > 0 {
			sh.dir = append(sh.dir, mdirEntry{key: users[k], count: uint32(m), off: uint64(next) * 16})
			s.rowPos[k] = next
			next += m
		}
	}
	// Rows fill column by column in ascending influenced id, so each
	// row's cells land sorted.
	for _, i := range order {
		for _, cl := range s.cells[s.colOff[i]:s.colOff[i+1]] {
			sh.cells[s.rowPos[cl.k]] = ucEntry{u: users[i], c: cl.c}
			s.rowPos[cl.k]++
		}
	}
	return sh
}
