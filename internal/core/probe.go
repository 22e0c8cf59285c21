package core

import (
	"fmt"
	"slices"

	"credist/internal/graph"
)

// Probe answers marginal-gain queries as if a sequence of seeds had been
// committed with Add, without mutating, cloning or promoting any engine.
//
// Theorem 3 prices x from x's own UC rows and SC[x] alone, and Lemmas 2
// and 3 change those only through the cells of the seeds committed before
// x: committing s in an action a both performed subtracts c_xs*c_su from
// every cell (x,u) with u in s's row (when x holds credit over s), drops
// the cell (x,s), and raises SC[x][a] by c_sx*(1-SC[s][a]). So a probe
// records, per action, each committed seed's row and SC factor as they
// stood at its commit, and prices x by replaying those records onto a
// private copy of x's rows only — in commit order, with CommitSeedRow's
// arithmetic — which makes every answer bit-identical to Clone, Add each
// seed, then Gain or GainObj.
//
// Rows are read from the engine owning them, so a probe over a
// coordinator's row-range partitions answers exactly like one over the
// full engine. The engines must not change while the probe is in use.
// Commit mutates the probe and must not race with anything; Gain only
// reads it and is safe for concurrent use.
type Probe struct {
	parts   []*Engine
	commits map[int32][]seedCommit // per action, in commit order
	seeds   []graph.NodeID         // committed through the probe
}

// seedCommit is one committed seed's footprint in one of its actions.
type seedCommit struct {
	s    int32
	row  []ucEntry // s's credit row at its commit; never written
	keep float64   // 1 - SC[s][a] at its commit
}

// NewProbe returns a probe with nothing committed over engines that tile
// the row universe: one full engine, or row-range partitions sharing one
// seed set (as a coordinator's do).
func NewProbe(engines ...*Engine) *Probe {
	if len(engines) == 0 {
		panic("core: NewProbe with no engines")
	}
	return &Probe{parts: engines}
}

// owner returns the engine holding x's row.
func (p *Probe) owner(x graph.NodeID) *Engine {
	for _, e := range p.parts {
		if e.ownsRow(x) {
			return e
		}
	}
	panic(fmt.Sprintf("core: probe has no engine owning row %d", x))
}

// committed reports whether x is a seed, of the engines or of the probe.
func (p *Probe) committed(e *Engine, x graph.NodeID) bool {
	return slices.Contains(e.seeds, x) || slices.Contains(p.seeds, x)
}

// Gain returns the marginal gain of x under obj (nil is the default
// objective) against the engines' seeds plus every seed committed to the
// probe: bit for bit the value GainObj returns on a clone after Add-ing
// those seeds in the same order.
func (p *Probe) Gain(x graph.NodeID, obj *Objective) float64 {
	e := p.owner(x)
	if p.committed(e, x) {
		return 0
	}
	xi := int32(x)
	return e.gainSum(x, obj, func(_ int, a int32) ([]ucEntry, float64) {
		return p.replay(e, xi, a)
	})
}

// Commit adds s to the probe's seed set, as Add would, and returns the
// marginal gain under obj that s had just before. Committing a node that
// is already a seed changes nothing and returns 0, as does Add.
func (p *Probe) Commit(s graph.NodeID, obj *Objective) float64 {
	e := p.owner(s)
	if p.committed(e, s) {
		return 0
	}
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
// probe's commits in a, applied in commit order exactly as CommitSeedRow
// applies them to the engine: Lemma 3 raises SC[x][a] when x is in the
// seed's row; Lemma 2 lowers the cells of x's row that the seed's row
// shares, removing any that fall to creditFloor, and the seed's column
// cell (x,s) goes. The engine's row is copied on the first change only.
func (p *Probe) replay(e *Engine, x, a int32) ([]ucEntry, float64) {
	row := e.uc[a].row(x)
	scx := e.seedCredit(a, x)
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
