package eval

import (
	"fmt"
	"io"

	"credist/internal/core"
	"credist/internal/datagen"
	"credist/internal/seedsel"
)

// TopologyPoint scores the CD model against the structural baselines on
// one graph topology.
type TopologyPoint struct {
	Topology string
	CDSpread float64
	HDSpread float64
	PRSpread float64
	// Lift is CDSpread / max(HDSpread, PRSpread) - how much knowing the
	// traces buys over knowing only the structure.
	Lift float64
}

// TopologyRobustness is an extension experiment: regenerate the dataset
// on different random-graph families (preferential attachment,
// Erdos-Renyi, Watts-Strogatz) holding the cascade process fixed, and
// check that the CD model's advantage over structural heuristics is not
// an artifact of one topology.
func TopologyRobustness(w io.Writer, base datagen.Config, opts ExpOptions) []TopologyPoint {
	opts = opts.withDefaults()
	var points []TopologyPoint
	for _, topo := range []string{"pa", "er", "ws"} {
		cfg := base
		cfg.Topology = topo
		cfg.Name = base.Name + "-" + topo
		env := NewEnv(datagen.Generate(cfg))

		credit := core.LearnTimeAware(env.Graph, env.Train)
		scorer := core.NewEvaluator(env.Graph, env.Train, credit)

		cd := SelectCD(env, opts)
		hd := seedsel.HighDegree(env.Graph, opts.K)
		pr := seedsel.PageRankSeeds(env.Graph, opts.K)

		pt := TopologyPoint{
			Topology: topo,
			CDSpread: scorer.Spread(cd.Seeds, nil),
			HDSpread: scorer.Spread(hd, nil),
			PRSpread: scorer.Spread(pr, nil),
		}
		baseline := pt.HDSpread
		if pt.PRSpread > baseline {
			baseline = pt.PRSpread
		}
		if baseline > 0 {
			pt.Lift = pt.CDSpread / baseline
		}
		points = append(points, pt)
	}

	fmt.Fprintf(w, "Topology robustness (k=%d, CD-scored spread):\n", opts.K)
	fmt.Fprintf(w, "%6s %10s %10s %10s %8s\n", "topo", "CD", "HighDeg", "PageRank", "lift")
	for _, p := range points {
		fmt.Fprintf(w, "%6s %10.1f %10.1f %10.1f %7.2fx\n",
			p.Topology, p.CDSpread, p.HDSpread, p.PRSpread, p.Lift)
	}
	return points
}
