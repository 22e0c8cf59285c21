package core

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"credist/internal/actionlog"
	"credist/internal/graph"
)

func TestFigure1ExplainSeed(t *testing.T) {
	g, log := figure1(t)
	e := NewEngine(g, log, Options{})

	ex := NewProbe(e).ExplainSeed(nodeV, 10)
	if ex.Gain != NewProbe(e).Gain(nodeV, nil) {
		t.Fatalf("ExplainSeed(v).Gain = %b, Gain(v) = %b", ex.Gain, NewProbe(e).Gain(nodeV, nil))
	}
	// v's gain decomposes into its self-activation plus its credit over
	// t, w, z, u — five paths for the single action.
	if ex.TotalPaths != 5 || len(ex.Paths) != 5 {
		t.Fatalf("ExplainSeed(v) paths = %d (total %d), want 5", len(ex.Paths), ex.TotalPaths)
	}
	want := map[graph.NodeID]float64{nodeV: 1, nodeT: 0.5, nodeW: 1, nodeZ: 0.5, nodeU: 0.75}
	for _, p := range ex.Paths {
		if p.Influencer != nodeV || p.Action != 0 {
			t.Fatalf("unexpected path %+v", p)
		}
		if w, ok := want[p.Influenced]; !ok || !almostEqual(p.Credit, w) {
			t.Fatalf("path to %d credit %g, want %g", p.Influenced, p.Credit, want[p.Influenced])
		}
		delete(want, p.Influenced)
	}
	if len(want) != 0 {
		t.Fatalf("paths missing targets %v", want)
	}
	// Truncation keeps the top paths by credit.
	top2 := NewProbe(e).ExplainSeed(nodeV, 2)
	if len(top2.Paths) != 2 || top2.TotalPaths != 5 {
		t.Fatalf("top-2 kept %d of %d paths", len(top2.Paths), top2.TotalPaths)
	}
	for _, p := range top2.Paths {
		if !almostEqual(p.Credit, 1) {
			t.Fatalf("top-2 path credit %g, want 1", p.Credit)
		}
	}

	// After commits to a probe the explained gain still matches bit for
	// bit — and the oracle's explanation after the same commits in place —
	// and a committed seed explains as zero with no paths.
	pr := NewProbe(e)
	o := newCommitOracle(e)
	for _, s := range []graph.NodeID{nodeT, nodeZ} {
		pr.Commit(s, nil)
		o.Add(s)
	}
	for cand := graph.NodeID(0); cand < 6; cand++ {
		ex := pr.ExplainSeed(cand, 10)
		if ex.Gain != pr.Gain(cand, nil) {
			t.Fatalf("after commits ExplainSeed(%d).Gain = %b, Gain = %b", cand, ex.Gain, pr.Gain(cand, nil))
		}
		if want := o.ExplainSeed(cand, 10); !reflect.DeepEqual(ex, want) {
			t.Fatalf("after commits ExplainSeed(%d) = %+v, the oracle %+v", cand, ex, want)
		}
	}
	if ex := pr.ExplainSeed(nodeT, 10); ex.Gain != 0 || ex.TotalPaths != 0 {
		t.Fatalf("committed seed explains as %+v, want zero", ex)
	}
}

// TestExplainSeedBitExact is the tentpole contract on the seed side: the
// explanation's gain is bit-identical to the probe's Gain at any worker
// count, with and without truncation/learned credit, before and after
// commits.
func TestExplainSeedBitExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 17))
	for trial := 0; trial < 10; trial++ {
		g, log := randomInstance(rng, 14+rng.IntN(8), 5+rng.IntN(5))
		var credit CreditModel
		lambda := 0.0
		if trial%2 == 1 {
			credit = LearnTimeAware(g, log)
			lambda = 0.001
		}
		serial := NewProbe(NewEngine(g, log, Options{Workers: 1, Lambda: lambda, Credit: credit}))
		parallel := NewProbe(NewEngine(g, log, Options{Workers: runtime.GOMAXPROCS(0), Lambda: lambda, Credit: credit}))
		for round := 0; round < 3; round++ {
			for cand := 0; cand < g.NumNodes(); cand++ {
				c := graph.NodeID(cand)
				exS := serial.ExplainSeed(c, 8)
				exP := parallel.ExplainSeed(c, 8)
				if exS.Gain != serial.Gain(c, nil) {
					t.Fatalf("trial %d round %d: ExplainSeed(%d).Gain %b != Gain %b",
						trial, round, c, exS.Gain, serial.Gain(c, nil))
				}
				if !reflect.DeepEqual(exS, exP) {
					t.Fatalf("trial %d round %d: explanations differ across worker counts for %d", trial, round, c)
				}
			}
			next := graph.NodeID(rng.IntN(g.NumNodes()))
			serial.Commit(next, nil)
			parallel.Commit(next, nil)
		}
	}
}

func TestFigure1ExplainReach(t *testing.T) {
	g, log := figure1(t)
	e := NewEngine(g, log, Options{})

	share, paths := NewProbe(e).reachPaths(nodeV, nodeU)
	if !almostEqual(share, 0.75) {
		t.Fatalf("reachPaths(v,u) share = %g, want 0.75", share)
	}
	if len(paths) != 1 || paths[0].Action != 0 || !almostEqual(paths[0].Credit, 0.75) {
		t.Fatalf("reachPaths(v,u) paths = %+v", paths)
	}

	ex := NewProbe(e).ExplainReach([]graph.NodeID{nodeV, nodeZ}, nodeU, 10)
	if len(ex.PerSeed) != 2 || !almostEqual(ex.PerSeed[0].Share, 0.75) || !almostEqual(ex.PerSeed[1].Share, 0.25) {
		t.Fatalf("ExplainReach per-seed = %+v", ex.PerSeed)
	}
	if sum := ex.PerSeed[0].Share + ex.PerSeed[1].Share; ex.Total != sum {
		t.Fatalf("Total %b != fold of shares %b", ex.Total, sum)
	}
	// A node that performed nothing reaches nothing.
	lb2 := NewProbe(e).ExplainReach([]graph.NodeID{nodeU}, nodeV, 10)
	if lb2.Total != 0 || lb2.TotalPaths != 0 {
		t.Fatalf("reach from sink = %+v, want zero", lb2)
	}
}

// TestExplainReachMatchesPairCredit cross-checks the walk against the
// evaluator's independent recursive computation of kappa_{v,u} on
// truncation-free engines.
func TestExplainReachMatchesPairCredit(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 19))
	for trial := 0; trial < 8; trial++ {
		g, log := randomInstance(rng, 10+rng.IntN(6), 4+rng.IntN(4))
		pr := NewProbe(NewEngine(g, log, Options{}))
		ev := NewEvaluator(g, log, nil)
		for s := 0; s < g.NumNodes(); s++ {
			for v := 0; v < g.NumNodes(); v++ {
				if s == v {
					continue
				}
				share, _ := pr.reachPaths(graph.NodeID(s), graph.NodeID(v))
				if want := ev.PairCredit(graph.NodeID(s), graph.NodeID(v)); !almostEqual(share, want) {
					t.Fatalf("trial %d reachPaths(%d,%d) = %g, evaluator kappa = %g", trial, s, v, share, want)
				}
			}
		}
	}
}

// reachAllActions is ExplainReach with the reach walk visiting every
// action of each seed, not just the actions the target shares with it:
// the oracle the intersected walk must match bit for bit.
func reachAllActions(p *Probe, seeds []graph.NodeID, v graph.NodeID, top int) ReachExplanation {
	ex := ReachExplanation{Target: v, PerSeed: make([]ReachShare, 0, len(seeds))}
	var paths []ProvPath
	for _, s := range seeds {
		share := 0.0
		if e := p.owner(s); e.au[v] != 0 && !p.committed(s) {
			for _, a := range e.actionsOf[s] {
				row, _ := p.replay(e, int32(s), a)
				if i, ok := searchRow(row, int32(v)); ok {
					c := row[i].c / float64(e.au[v])
					share += c
					paths = append(paths, ProvPath{Influencer: s, Influenced: v, Action: a, Credit: c})
				}
			}
		}
		ex.PerSeed = append(ex.PerSeed, ReachShare{Seed: s, Share: share})
		ex.Total += share
	}
	ex.TotalPaths = len(paths)
	ex.Paths = TopProvPaths(paths, top)
	return ex
}

// TestExplainReachMatchesAllActionsWalk pins the intersected reach walk
// to the all-actions walk, bit for bit, on freshly scanned, heap-opened,
// mmap-opened and ingest-grown engines, at 1, 2 and 4 partitions, against
// probes holding 0 to 3 committed seeds, for seed lists that name
// committed seeds and duplicates and every target. Every engine also
// answers exactly as the freshly scanned one.
func TestExplainReachMatchesAllActionsWalk(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 23))
	for trial := 0; trial < 8; trial++ {
		g, log := probeInstance(rng)
		opts := Options{Lambda: []float64{0, 0.001, 0.05}[trial%3]}
		if trial%2 == 1 {
			opts.Credit = LearnTimeAware(g, log)
		}
		fresh := NewEngine(g, log, opts)
		path := writeSnapshotFile(t, fresh, DatasetLineage("reach", g, log), nil)
		head := log.NumActions() / 2
		grown, err := NewEngine(g, log.Prefix(head), opts).AppendActions(g, log, actionlog.ActionID(head))
		if err != nil {
			t.Fatal(err)
		}
		n := fresh.NumNodes()
		commits := make([]graph.NodeID, 3)
		queries := make([][]graph.NodeID, len(commits)+1)
		for k := range queries {
			if k < len(commits) {
				commits[k] = graph.NodeID(rng.IntN(n))
			}
			seeds := []graph.NodeID{commits[0], graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n))}
			queries[k] = append(seeds, seeds[1], commits[max(k-1, 0)])
		}
		var first [][]ReachExplanation
		engines := []struct {
			name string
			e    *Engine
		}{
			{"scanned", fresh},
			{"heap", openSnapshot(t, path, false).Engine},
			{"mmap", openSnapshot(t, path, true).Engine},
			{"ingested", grown},
		}
		for _, eng := range engines {
			for _, nparts := range []int{1, 2, 4} {
				pr := NewProbe(rowPartitions(t, eng.e, nparts)...)
				var answers [][]ReachExplanation
				for k, seeds := range queries {
					if k > 0 {
						pr.Commit(commits[k-1], nil)
					}
					var row []ReachExplanation
					for v := 0; v < n; v++ {
						got := pr.ExplainReach(seeds, graph.NodeID(v), 5)
						if want := reachAllActions(pr, seeds, graph.NodeID(v), 5); !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d %s parts=%d commits %v seeds %v target %d: %+v, all-actions walk %+v",
								trial, eng.name, nparts, pr.Seeds(), seeds, v, got, want)
						}
						row = append(row, got)
					}
					answers = append(answers, row)
				}
				if first == nil {
					first = answers
				} else if !reflect.DeepEqual(answers, first) {
					t.Fatalf("trial %d %s parts=%d: answers differ from the scanned single engine's", trial, eng.name, nparts)
				}
			}
		}
	}
}

// TestExplainPartitionedBitIdentical is the acceptance criterion at
// partition counts {1, 4}: a partition explains its rows exactly as the
// full engine does, per-partition reach shares folded in seed order
// reproduce the full answer bit for bit, and after commits a probe over
// the partitions explains exactly as the in-place commit oracle.
func TestExplainPartitionedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 29))
	g, log := randomInstance(rng, 24, 9)
	base := NewEngine(g, log, Options{Lambda: 0.001, Credit: LearnTimeAware(g, log)})
	n := g.NumNodes()
	seeds := []graph.NodeID{1, 9, 20, 9}
	for _, parts := range []int{1, 4} {
		var slices []*Engine
		var ranges [][2]int
		for i := 0; i < parts; i++ {
			lo, hi := i*n/parts, (i+1)*n/parts
			p, err := base.Slice(lo, hi)
			if err != nil {
				t.Fatalf("Slice(%d,%d): %v", lo, hi, err)
			}
			slices = append(slices, p)
			ranges = append(ranges, [2]int{lo, hi})
		}
		owner := func(x graph.NodeID) *Engine {
			for i, r := range ranges {
				if int(x) >= r[0] && int(x) < r[1] {
					return slices[i]
				}
			}
			t.Fatalf("no owner for %d", x)
			return nil
		}
		for cand := 0; cand < n; cand++ {
			c := graph.NodeID(cand)
			if got, want := NewProbe(owner(c)).ExplainSeed(c, 7), NewProbe(base).ExplainSeed(c, 7); !reflect.DeepEqual(got, want) {
				t.Fatalf("parts=%d: partition ExplainSeed(%d) differs from full", parts, cand)
			}
		}
		for v := 0; v < n; v += 5 {
			wantEx := NewProbe(base).ExplainReach(seeds, graph.NodeID(v), 8)
			// Gather: each seed's share and paths come wholly from its
			// owner; fold shares in input order, concatenate and re-sort
			// paths — the partitioned serving path in miniature.
			got := ReachExplanation{Target: graph.NodeID(v)}
			var paths []ProvPath
			for _, s := range seeds {
				share, ps := NewProbe(owner(s)).reachPaths(s, graph.NodeID(v))
				got.PerSeed = append(got.PerSeed, ReachShare{Seed: s, Share: share})
				got.Total += share
				paths = append(paths, ps...)
			}
			got.TotalPaths = len(paths)
			got.Paths = TopProvPaths(paths, 8)
			if wantEx.Total != got.Total || !reflect.DeepEqual(wantEx.PerSeed, got.PerSeed) ||
				!reflect.DeepEqual(wantEx.Paths, got.Paths) {
				t.Fatalf("parts=%d target %d: merged reach differs from full", parts, v)
			}
		}

		pr := NewProbe(slices...)
		oracle := newCommitOracle(base)
		for _, seed := range []graph.NodeID{3, 17} {
			pr.Commit(seed, nil)
			oracle.Add(seed)
			for cand := 0; cand < n; cand++ {
				c := graph.NodeID(cand)
				if got, want := pr.ExplainSeed(c, 7), oracle.ExplainSeed(c, 7); !reflect.DeepEqual(got, want) {
					t.Fatalf("parts=%d seeds %v: probe ExplainSeed(%d) differs from the oracle", parts, pr.Seeds(), cand)
				}
			}
			for v := 0; v < n; v += 5 {
				if got, want := pr.ExplainReach(seeds, graph.NodeID(v), 8), oracle.ExplainReach(seeds, graph.NodeID(v), 8); !reflect.DeepEqual(got, want) {
					t.Fatalf("parts=%d seeds %v target %d: probe reach %+v, the oracle %+v", parts, pr.Seeds(), v, got, want)
				}
			}
		}
	}
}

func TestTopProvPathsDeterministic(t *testing.T) {
	paths := []ProvPath{
		{Influencer: 2, Influenced: 1, Action: 0, Credit: 0.5},
		{Influencer: 1, Influenced: 3, Action: 2, Credit: 0.5},
		{Influencer: 1, Influenced: 3, Action: 1, Credit: 0.5},
		{Influencer: 0, Influenced: 4, Action: 0, Credit: 0.9},
	}
	got := TopProvPaths(append([]ProvPath(nil), paths...), 10)
	want := []ProvPath{paths[3], paths[2], paths[1], paths[0]}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopProvPaths order = %+v", got)
	}
	if n := len(TopProvPaths(append([]ProvPath(nil), paths...), -1)); n != 0 {
		t.Fatalf("negative n kept %d paths", n)
	}
}

// TestExplainReachMatchesCommitOracle: a probe holding seeds explains
// reach bit-identically to the in-place commit oracle followed by
// ExplainReach — with seed lists that name committed seeds (whose rows
// the commit removed) and duplicates, every target including committed
// ones (whose columns it removed), on full engines and on row-range
// partitions. The replay alone does not drop a committed seed's own row;
// the probe must.
func TestExplainReachMatchesCommitOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 37))
	for trial := 0; trial < 12; trial++ {
		g, log := probeInstance(rng)
		opts := Options{Lambda: []float64{0, 0.001, 0.05}[trial%3]}
		if trial%2 == 1 {
			opts.Credit = LearnTimeAware(g, log)
		}
		full := NewEngine(g, log, opts)
		n := full.NumNodes()
		pr := NewProbe(rowPartitions(t, full, 1+trial%4)...)
		oracle := newCommitOracle(full)
		var committed []graph.NodeID
		for k := 0; k < 3; k++ {
			s := graph.NodeID(rng.IntN(n))
			pr.Commit(s, nil)
			oracle.Add(s)
			committed = append(committed, s)
			seeds := []graph.NodeID{committed[0], graph.NodeID(rng.IntN(n)), s, graph.NodeID(rng.IntN(n)), committed[0]}
			for v := 0; v < n; v++ {
				got := pr.ExplainReach(seeds, graph.NodeID(v), 5)
				want := oracle.ExplainReach(seeds, graph.NodeID(v), 5)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d committed %v seeds %v target %d: probe %+v, oracle %+v", trial, committed, seeds, v, got, want)
				}
			}
		}
	}
}
