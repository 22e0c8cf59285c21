package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"credist"
	"credist/internal/serve"
)

// reference is the offline answer key: a second instance of the same
// deployment shape, built in-process after the run, with the run's ingest
// generations replayed onto it in the order the server installed them.
// gens[i] answers for the server's snapshot ID i+1.
type reference struct {
	gens    []*serve.Snapshot
	batches [][]credist.Tuple
	aud     *credist.Objective
	// batchOf records which batch produced each generation, so two runs
	// that installed the same generation from different batches are caught.
	batchOf map[int64]int
}

func newReference(src serve.Source, batches [][]credist.Tuple, aud []credist.NodeID) (*reference, error) {
	sn, err := serve.Build(src)
	if err != nil {
		return nil, fmt.Errorf("reference build: %w", err)
	}
	if err := sn.PartitionErr(); err != nil {
		return nil, fmt.Errorf("reference build: %w", err)
	}
	return &reference{
		gens:    []*serve.Snapshot{sn},
		batches: batches,
		aud:     &credist.Objective{Audience: aud},
		batchOf: map[int64]int{},
	}, nil
}

// extend replays the ingests the samples report, in snapshot-ID order. A
// gap or a conflicting batch for one ID is an error: the server installed
// generations the reference cannot reproduce.
func (ref *reference) extend(samples []*sample) error {
	type inst struct {
		id    int64
		batch int
	}
	var ins []inst
	for _, s := range samples {
		if s.req.kind != kIngest || !s.ok() {
			continue
		}
		var got serve.IngestResponse
		if err := json.Unmarshal(s.body, &got); err != nil {
			return fmt.Errorf("ingest %d: %w", s.req.id, err)
		}
		ins = append(ins, inst{got.Snapshot, s.req.batch})
	}
	sort.Slice(ins, func(a, b int) bool { return ins[a].id < ins[b].id })
	for _, in := range ins {
		if b, ok := ref.batchOf[in.id]; ok {
			if b != in.batch {
				return fmt.Errorf("snapshot %d came from batch %d and from batch %d", in.id, b, in.batch)
			}
			continue
		}
		if int(in.id) != len(ref.gens)+1 {
			return fmt.Errorf("snapshot %d installed after %d generations", in.id, len(ref.gens))
		}
		next, err := ref.gens[len(ref.gens)-1].Ingest(ref.batches[in.batch], false)
		if err != nil {
			return fmt.Errorf("reference ingest of batch %d: %w", in.batch, err)
		}
		ref.gens = append(ref.gens, next)
		ref.batchOf[in.id] = in.batch
	}
	return nil
}

func (ref *reference) gen(id int64) (*serve.Snapshot, error) {
	if id < 1 || int(id) > len(ref.gens) {
		return nil, fmt.Errorf("answer from unknown snapshot %d", id)
	}
	return ref.gens[id-1], nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameIDs(a, b []credist.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// check compares one answered request with the reference: bit-exact for
// spread, gain, seeds, explain and ingest shape, interval containment for
// the approximate tier (each side's estimate inside the other's interval).
func (ref *reference) check(s *sample) error {
	r := s.req
	var id struct {
		Snapshot int64 `json:"snapshot"`
	}
	if err := json.Unmarshal(s.body, &id); err != nil {
		return fmt.Errorf("undecodable answer: %w", err)
	}
	sn, err := ref.gen(id.Snapshot)
	if err != nil {
		return err
	}
	switch r.kind {
	case kSpread, kSpreadAudience:
		var got serve.SpreadResponse
		if err := json.Unmarshal(s.body, &got); err != nil {
			return err
		}
		var want float64
		if r.kind == kSpread {
			want, err = sn.Spread(r.seeds)
		} else {
			want, err = sn.SpreadObj(r.seeds, ref.aud)
		}
		if err != nil {
			return err
		}
		if !sameBits(got.Spread, want) || !sameIDs(got.Seeds, r.seeds) {
			return fmt.Errorf("spread %v: got %v, want %v", r.seeds, got.Spread, want)
		}
	case kSpreadEps:
		var got serve.ApproxSpreadResponse
		if err := json.Unmarshal(s.body, &got); err != nil {
			return err
		}
		want, err := sn.ApproxSpread(r.seeds, credist.ApproxOptions{Eps: 0.1})
		if err != nil {
			return err
		}
		if want.Estimate < got.CILow || want.Estimate > got.CIHigh ||
			got.Estimate < want.CILow || got.Estimate > want.CIHigh {
			return fmt.Errorf("approx spread %v: got %v [%v,%v], reference %v [%v,%v]",
				r.seeds, got.Estimate, got.CILow, got.CIHigh, want.Estimate, want.CILow, want.CIHigh)
		}
	case kGain:
		var got serve.GainResponse
		if err := json.Unmarshal(s.body, &got); err != nil {
			return err
		}
		want, err := sn.Gains(r.seeds, r.cands)
		if err != nil {
			return err
		}
		if !sameFloats(got.Gains, want) || !sameIDs(got.Candidates, r.cands) {
			return fmt.Errorf("gain %v|%v: got %v, want %v", r.seeds, r.cands, got.Gains, want)
		}
	case kSeeds:
		var got serve.SeedsResponse
		if err := json.Unmarshal(s.body, &got); err != nil {
			return err
		}
		want, _, err := sn.SelectSeeds(r.k)
		if err != nil {
			return err
		}
		if !sameIDs(got.Seeds, want.Seeds) || !sameFloats(got.Gains, want.Gains) || !sameBits(got.Spread, want.Spread) {
			return fmt.Errorf("seeds k=%d: got %v %v, want %v %v", r.k, got.Seeds, got.Gains, want.Seeds, want.Gains)
		}
	case kExplain:
		var got serve.ExplainSeedResponse
		if err := json.Unmarshal(s.body, &got); err != nil {
			return err
		}
		want, err := sn.ExplainSeed(r.seeds[0], 10)
		if err != nil {
			return err
		}
		if !sameBits(got.Gain, want.Gain) || got.TotalPaths != want.TotalPaths || len(got.Paths) != len(want.Paths) {
			return fmt.Errorf("explain %d: got gain %v over %d paths, want %v over %d", r.seeds[0], got.Gain, got.TotalPaths, want.Gain, want.TotalPaths)
		}
		for i, p := range want.Paths {
			g := got.Paths[i]
			if g.Influencer != p.Influencer || g.Influenced != p.Influenced || g.Action != p.Action || !sameBits(g.Credit, p.Credit) {
				return fmt.Errorf("explain %d: path %d differs", r.seeds[0], i)
			}
		}
	case kIngest:
		var got serve.IngestResponse
		if err := json.Unmarshal(s.body, &got); err != nil {
			return err
		}
		if got.AppendedTuples != len(ref.batches[r.batch]) || got.Entries != sn.Entries() ||
			got.DeltaEntries != sn.DeltaEntries() || got.Actions != sn.Dataset().Log.NumActions() {
			return fmt.Errorf("ingest batch %d: got %d entries over %d actions, want %d over %d",
				r.batch, got.Entries, got.Actions, sn.Entries(), sn.Dataset().Log.NumActions())
		}
	}
	return nil
}

// verify checks every answered sample against the reference in parallel
// and returns how many were wrong, with the first few mismatches.
func (ref *reference) verify(samples []*sample) (int, []string) {
	var wrong atomic.Int64
	var mu sync.Mutex
	var msgs []string
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(samples) {
					return
				}
				s := samples[i]
				if !s.ok() {
					continue
				}
				if err := ref.check(s); err != nil {
					wrong.Add(1)
					mu.Lock()
					if len(msgs) < 5 {
						msgs = append(msgs, fmt.Sprintf("request %d (%s): %v", s.req.id, s.req.kind, err))
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return int(wrong.Load()), msgs
}
