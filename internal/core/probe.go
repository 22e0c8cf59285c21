package core

import (
	"fmt"
	"slices"

	"credist/internal/graph"
)

// Probe answers marginal-gain queries as if a sequence of seeds had been
// committed (Algorithm 5), without writing any engine: engines are
// immutable, and a probe is where seeds live.
//
// Theorem 3 prices x from x's own UC rows and SC[x] alone, and Lemmas 2
// and 3 change those only through the cells of the seeds committed before
// x: committing s in an action a both performed subtracts c_xs*c_su from
// every cell (x,u) with u in s's row (when x holds credit over s), drops
// the cell (x,s), and raises SC[x][a] by c_sx*(1-SC[s][a]). So a probe
// records, per action, each committed seed's row and SC factor as they
// stood at its commit, and prices x by replaying those records onto a
// private copy of x's rows only, in commit order. The answers are
// bit-identical to committing each seed into the credit structure itself,
// as the paper's Algorithm 5 does (FuzzProbeMatchesCommit pins this
// against an in-place commit kept in the tests).
//
// Rows are read from the engine owning them, so a probe over row-range
// partitions answers exactly like one over the full engine. Commit mutates the probe and must not race with anything;
// Gain and the Explain methods only read it and are safe for concurrent
// use.
type Probe struct {
	parts   []*Engine
	commits map[int32][]seedCommit // per action, in commit order
	seeds   []graph.NodeID         // in commit order
}

// seedCommit is one committed seed's footprint in one of its actions.
type seedCommit struct {
	s    int32
	row  []ucEntry // s's credit row at its commit; never written
	keep float64   // 1 - SC[s][a] at its commit
}

// creditFloor is the Lemma 2 removal threshold: a credit cell whose value
// falls to it or below after a seed commit is deleted.
const creditFloor = 1e-15

// NewProbe returns a probe with nothing committed over engines that tile
// the row universe: one full engine, or row-range partitions.
func NewProbe(engines ...*Engine) *Probe {
	if len(engines) == 0 {
		panic("core: NewProbe with no engines")
	}
	return &Probe{parts: engines}
}

// Clone returns an independent probe over the same engines holding the
// same commits: later commits to either do not reach the other. The
// commit records are shared, never copied; they are never written.
func (p *Probe) Clone() *Probe {
	c := &Probe{parts: p.parts, seeds: slices.Clip(p.seeds)}
	if p.commits != nil {
		c.commits = make(map[int32][]seedCommit, len(p.commits))
		for a, cs := range p.commits {
			// Clipped, so an append on either side reallocates instead of
			// writing into the other's spare capacity.
			c.commits[a] = slices.Clip(cs)
		}
	}
	return c
}

// Seeds returns the committed seeds in commit order.
func (p *Probe) Seeds() []graph.NodeID { return slices.Clone(p.seeds) }

// owner returns the engine holding x's row.
func (p *Probe) owner(x graph.NodeID) *Engine {
	for _, e := range p.parts {
		if e.ownsRow(x) {
			return e
		}
	}
	panic(fmt.Sprintf("core: probe has no engine owning row %d", x))
}

// committed reports whether x is a seed of the probe.
func (p *Probe) committed(x graph.NodeID) bool { return slices.Contains(p.seeds, x) }

// Gain returns the marginal gain of x under obj (nil is the default
// objective) against every seed committed to the probe. A committed seed
// gains exactly 0: sigma(S+x) = sigma(S) when x is already in S.
func (p *Probe) Gain(x graph.NodeID, obj *Objective) float64 {
	if p.committed(x) {
		return 0
	}
	e := p.owner(x)
	xi := int32(x)
	return e.gainSum(x, obj, func(_ int, a int32) ([]ucEntry, float64) {
		return p.replay(e, xi, a)
	})
}

// Commit adds s to the probe's seed set and returns the marginal gain
// under obj that s had just before. Committing a node that is already a
// seed changes nothing and returns 0.
func (p *Probe) Commit(s graph.NodeID, obj *Objective) float64 {
	if p.committed(s) {
		return 0
	}
	e := p.owner(s)
	si := int32(s)
	acts := e.actionsOf[s]
	rows := make([][]ucEntry, len(acts))
	scs := make([]float64, len(acts))
	for i, a := range acts {
		rows[i], scs[i] = p.replay(e, si, a)
	}
	gain := e.gainSum(s, obj, func(i int, _ int32) ([]ucEntry, float64) {
		return rows[i], scs[i]
	})
	if p.commits == nil {
		p.commits = make(map[int32][]seedCommit)
	}
	for i, a := range acts {
		p.commits[a] = append(p.commits[a], seedCommit{s: si, row: rows[i], keep: 1 - scs[i]})
	}
	p.seeds = append(p.seeds, s)
	return gain
}

// replay returns x's credit row and SC[x][a] in action a after the
// probe's commits in a, applied in commit order with Algorithm 5's
// arithmetic: Lemma 3 raises SC[x][a] when x is in the seed's row; Lemma
// 2 lowers the cells of x's row that the seed's row shares, removing any
// that fall to creditFloor, and the seed's column cell (x,s) goes. The
// engine's row is copied on the first change only. A committed x's own
// row is not dropped here; callers check committed first.
func (p *Probe) replay(e *Engine, x, a int32) ([]ucEntry, float64) {
	row := e.uc[a].row(x)
	scx := 0.0
	private := false
	for _, c := range p.commits[a] {
		if i, ok := searchRow(c.row, x); ok {
			scx += c.row[i].c * c.keep
		}
		j, ok := searchRow(row, c.s)
		if !ok {
			continue // x holds no credit over the seed
		}
		cxs := row[j].c
		out := row[:0]
		if !private {
			out = make([]ucEntry, 0, len(row)-1)
			private = true
		}
		k := 0
		for i, en := range row {
			if i == j {
				continue
			}
			for k < len(c.row) && c.row[k].u < en.u {
				k++
			}
			if k < len(c.row) && c.row[k].u == en.u {
				value := en.c - cxs*c.row[k].c
				if !(value > creditFloor) {
					continue
				}
				en.c = value
			}
			out = append(out, en)
		}
		row = out
	}
	return row, scx
}

// ProbeEstimator is CELF's marginal-gain oracle over a Probe: Gain prices
// a candidate under the objective by replaying the committed seeds onto
// the candidate's rows alone, and Add commits a seed to the probe. A
// selection over it never writes an engine, and its seeds, gains and
// lookup counts are bit-identical to the same selection run over a credit
// structure that commits each seed in place. It implements
// celf.ConcurrentEstimator.
type ProbeEstimator struct {
	probe *Probe
	obj   *Objective
}

// Estimator returns an estimator over p itself, pricing gains under obj:
// it starts from p's commits, and every seed it adds is committed to p.
func (p *Probe) Estimator(obj *Objective) *ProbeEstimator {
	return &ProbeEstimator{probe: p, obj: obj}
}

// NumNodes returns the user-universe size.
func (pe *ProbeEstimator) NumNodes() int { return pe.probe.parts[0].numUsers }

// Gain returns x's marginal gain under the objective against every seed
// committed so far.
func (pe *ProbeEstimator) Gain(x graph.NodeID) float64 { return pe.probe.Gain(x, pe.obj) }

// Add commits x to the probe; a repeat changes nothing.
func (pe *ProbeEstimator) Add(x graph.NodeID) { pe.probe.Commit(x, pe.obj) }

// ConcurrentGain marks Gain as safe for concurrent calls between Adds:
// Probe.Gain only reads. Compile-time marker, never called.
func (pe *ProbeEstimator) ConcurrentGain() {}
