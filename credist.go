// Package credist is a from-scratch reproduction of the system described
// in "A Data-Based Approach to Social Influence Maximization" (Goyal,
// Bonchi, Lakshmanan; PVLDB 5(1), 2011): influence maximization under the
// credit distribution (CD) model, which learns how influence flows from a
// log of past action propagations instead of assuming edge probabilities
// and running Monte-Carlo simulations.
//
// The package is a thin facade over the building blocks in internal/:
// load or synthesize a Dataset, Learn a Model from its training traces,
// then predict spreads and select seed sets. A Planner answers every
// gain, selection and explanation; a nil *Objective is the paper's
// global spread:
//
//	ds, _ := credist.GeneratePreset("flixster-small")
//	model := credist.Learn(ds, credist.Options{})
//	res, _ := model.NewPlanner().Select(50, nil)
//	spread := model.Spread(res.Seeds)
//
// All results are deterministic: the credit store keeps its entries in
// sorted sparse rows, so spreads, marginal gains, and selected seed sets
// are bit-for-bit identical across runs, scan worker counts, and
// Save/LoadModel round trips. A saved model is one binary snapshot file,
// the learned parameters and the scanned credit structure checked against
// the lineage of the graph and log they came from.
//
// The cmd/ tools and examples/ programs demonstrate the full surface,
// internal/eval regenerates every table and figure of the paper, and
// internal/serve (exposed as `credist serve`) answers the same queries
// online over HTTP from immutable model snapshots.
package credist

import (
	"fmt"
	"io"
	"os"
	"strings"

	"credist/internal/actionlog"
	"credist/internal/datagen"
	"credist/internal/graph"
)

// NodeID identifies a user; ids are dense in [0, NumUsers).
type NodeID = graph.NodeID

// ActionID identifies an action (one propagation) in an action log.
type ActionID = actionlog.ActionID

// Tuple records that User performed Action at Time — one line of the
// action log, and the unit Model.Ingest streams in.
type Tuple = actionlog.Tuple

// ReadTuples parses a tuple stream in the action-log text format (an
// optional leading user-count line, then "user action time" lines), the
// shape cmd/datagen's -stream mode writes for held-out action tails. The
// tuples are returned in file order, ready for Model.Ingest. The
// user-count header is parsed and dropped: model ingestion bounds the
// universe by the social graph, so a header can only matter for
// standalone log use — Log.AppendWithin honors it there, and the
// serving layer rejects headers exceeding the graph.
func ReadTuples(r io.Reader) ([]Tuple, error) {
	tuples, _, err := actionlog.ParseTuples(r)
	return tuples, err
}

// Dataset couples a social graph with an action log over its users.
type Dataset struct {
	Name  string
	Graph *graph.Graph
	Log   *actionlog.Log
}

// NumUsers returns the social-graph size.
func (d *Dataset) NumUsers() int { return d.Graph.NumNodes() }

// Stats summarizes the action log (Table 1 statistics).
func (d *Dataset) Stats() actionlog.Stats { return actionlog.Summarize(d.Log) }

// Split divides the dataset 80/20 into training and test datasets using
// the paper's size-stratified protocol: actions are ranked by propagation
// size and every fifth goes to the test set.
func (d *Dataset) Split() (train, test *Dataset) {
	tr, te, _, _ := actionlog.Split(d.Log)
	return &Dataset{Name: d.Name + "-train", Graph: d.Graph, Log: tr},
		&Dataset{Name: d.Name + "-test", Graph: d.Graph, Log: te}
}

// PresetNames lists the built-in dataset presets accepted by
// GeneratePreset, in declaration order.
func PresetNames() []string { return datagen.Names() }

// GeneratePreset synthesizes one of the built-in paper-shaped datasets:
// "flixster-small", "flickr-small", "flixster-large", or "flickr-large".
func GeneratePreset(name string) (*Dataset, error) {
	cfg, ok := datagen.PresetByName(name)
	if !ok {
		return nil, fmt.Errorf("credist: unknown preset %q (valid presets: %s)",
			name, strings.Join(datagen.Names(), ", "))
	}
	ds := datagen.Generate(cfg)
	return &Dataset{Name: ds.Name, Graph: ds.Graph, Log: ds.Log}, nil
}

// Generate synthesizes a dataset from an explicit configuration.
func Generate(cfg datagen.Config) *Dataset {
	ds := datagen.Generate(cfg)
	return &Dataset{Name: ds.Name, Graph: ds.Graph, Log: ds.Log}
}

// LoadDataset reads a graph edge list and an action log from files in the
// formats written by SaveDataset (and cmd/datagen).
func LoadDataset(name, graphPath, logPath string) (*Dataset, error) {
	gf, err := os.Open(graphPath)
	if err != nil {
		return nil, fmt.Errorf("credist: open graph: %w", err)
	}
	defer gf.Close()
	g, err := graph.ReadEdgeList(gf)
	if err != nil {
		return nil, err
	}
	lf, err := os.Open(logPath)
	if err != nil {
		return nil, fmt.Errorf("credist: open log: %w", err)
	}
	defer lf.Close()
	l, err := actionlog.Read(lf, g.NumNodes())
	if err != nil {
		return nil, err
	}
	if l.NumUsers() != g.NumNodes() {
		return nil, fmt.Errorf("credist: log has %d users but graph has %d nodes",
			l.NumUsers(), g.NumNodes())
	}
	return &Dataset{Name: name, Graph: g, Log: l}, nil
}

// SaveDataset writes the graph and log to the given paths.
func SaveDataset(d *Dataset, graphPath, logPath string) error {
	gf, err := os.Create(graphPath)
	if err != nil {
		return fmt.Errorf("credist: create graph file: %w", err)
	}
	if err := graph.WriteEdgeList(gf, d.Graph); err != nil {
		gf.Close()
		return err
	}
	if err := gf.Close(); err != nil {
		return err
	}
	lf, err := os.Create(logPath)
	if err != nil {
		return fmt.Errorf("credist: create log file: %w", err)
	}
	if err := actionlog.Write(lf, d.Log); err != nil {
		lf.Close()
		return err
	}
	return lf.Close()
}
