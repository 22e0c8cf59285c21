package core

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"

	"credist/internal/graph"
	"credist/internal/textrec"
)

// WriteTimeAware serializes learned time-aware credit parameters:
//
//	numUsers <n>
//	infl <user> <value>        (nonzero entries only)
//	tau <from> <to> <value>
//
// so a model learned once can be reused across processes without
// re-scanning the training log. Values use %g (Go's shortest decimal that
// parses back to the same float64), so a write/read round trip is exact,
// and tau records are sorted by edge so identical models produce
// byte-identical files.
func WriteTimeAware(w io.Writer, c *TimeAwareCredit) error {
	// bufio.Writer keeps its first write error and Flush returns it.
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "numUsers %d\n", len(c.infl))
	for u, v := range c.infl {
		if v != 0 {
			fmt.Fprintf(bw, "infl %d %g\n", u, v)
		}
	}
	c.eachTau(func(v, u graph.NodeID, tau float64) {
		fmt.Fprintf(bw, "tau %d %d %g\n", v, u, tau)
	})
	return bw.Flush()
}

// ReadTimeAware parses the format written by WriteTimeAware. maxUsers
// bounds the numUsers header: parameters are learned over a graph and
// sized by its node count, so the caller passes that count, and a larger
// header is rejected before the influenceability table is allocated.
// Every other allocation grows with the input's length. Malformed input
// is rejected with a line-numbered error; that includes a repeated
// numUsers header (which would silently discard every previously parsed
// infl entry), duplicate infl or tau records (where last-wins would mask
// a corrupted or concatenated file), and tau edges with an endpoint
// outside the influenceability table.
func ReadTimeAware(r io.Reader, maxUsers int) (*TimeAwareCredit, error) {
	var infl []float64
	type tauRec struct {
		from, to graph.NodeID
		tau      float64
		line     int
	}
	c, err := textrec.Read(r, "core")
	if err != nil {
		return nil, err
	}
	var taus []tauRec
	seenInfl := make(map[int]struct{})
	for c.Next() {
		f0 := c.Field()
		switch string(f0) {
		case "numUsers":
			f1 := c.Field()
			if f1 == nil || c.Field() != nil {
				return nil, c.Errorf("malformed numUsers")
			}
			if infl != nil {
				return nil, c.Errorf("duplicate numUsers header (would discard %d parsed infl entries)", len(seenInfl))
			}
			n, err := strconv.Atoi(string(f1))
			if err != nil || n < 0 {
				return nil, c.Errorf("bad numUsers %q", f1)
			}
			if n > maxUsers {
				return nil, c.Errorf("numUsers %d exceeds the graph (%d nodes)", n, maxUsers)
			}
			infl = make([]float64, n)
		case "infl":
			f1, f2 := c.Field(), c.Field()
			if f2 == nil || c.Field() != nil || infl == nil {
				return nil, c.Errorf("malformed infl (numUsers must come first)")
			}
			u, err := textrec.ParseInt32(f1)
			if err != nil || u < 0 || int(u) >= len(infl) {
				return nil, c.Errorf("bad user %q", f1)
			}
			if _, dup := seenInfl[int(u)]; dup {
				return nil, c.Errorf("duplicate infl record for user %d", u)
			}
			seenInfl[int(u)] = struct{}{}
			if infl[u], err = textrec.ParseFloat(f2); err != nil {
				return nil, c.Errorf("bad infl value: %w", err)
			}
		case "tau":
			f1, f2, f3 := c.Field(), c.Field(), c.Field()
			if f3 == nil || c.Field() != nil {
				return nil, c.Errorf("malformed tau")
			}
			from, err := textrec.ParseInt32(f1)
			if err != nil {
				return nil, c.Errorf("bad from: %w", err)
			}
			to, err := textrec.ParseInt32(f2)
			if err != nil {
				return nil, c.Errorf("bad to: %w", err)
			}
			v, err := textrec.ParseFloat(f3)
			if err != nil {
				return nil, c.Errorf("bad tau value: %w", err)
			}
			taus = append(taus, tauRec{from, to, v, c.Line()})
		default:
			return nil, c.Errorf("unknown record %q", f0)
		}
	}
	if infl == nil {
		return nil, fmt.Errorf("core: missing numUsers header")
	}
	slices.SortFunc(taus, func(x, y tauRec) int {
		return cmp.Or(cmp.Compare(x.from, y.from), cmp.Compare(x.to, y.to), cmp.Compare(x.line, y.line))
	})
	ta := newTimeAware(infl, len(taus))
	for i, t := range taus {
		switch {
		case t.from < 0 || t.to < 0 || int(t.from) >= len(infl) || int(t.to) >= len(infl):
			return nil, fmt.Errorf("core: line %d: tau edge (%d,%d) outside the %d-user influenceability table", t.line, t.from, t.to, len(infl))
		case i > 0 && t.from == taus[i-1].from && t.to == taus[i-1].to:
			return nil, fmt.Errorf("core: line %d: duplicate tau record for edge (%d,%d)", t.line, t.from, t.to)
		}
		ta.addTau(t.from, t.to, t.tau)
	}
	ta.sealTau()
	return ta, nil
}
