// Command credist selects influence-maximizing seed sets from a social
// graph and an action log using the credit-distribution model, scores
// given seed sets, persists learned models as binary snapshots, or runs a
// long-lived influence-query HTTP service:
//
//	credist -preset flixster-small -k 50
//	credist -graph data/d.graph -log data/d.log -k 20 -method cd
//	credist -preset flixster-small -eval 12,99,340
//	credist -preset flixster-small -k 20 -audience 5,9,13 -window 30
//	credist -preset flixster-small -k 20 -costs 3:2.5,7:0.5 -budget 10
//	credist learn -preset flixster-small -o model.bin
//	credist serve -preset flixster-small -model model.bin -addr :8632
//	credist explain -preset flixster-small -seed 42
//	credist explain -preset flixster-small -set 1,2,3 -reach 99
//	credist ingest -tail data/flixster-small.tail.log
//
// Selection output: one line per seed with its marginal gain, then the
// predicted total spread. Run `credist -h`, `credist learn -h`, `credist
// serve -h`, `credist explain -h`, or `credist ingest -h` for the full
// flag reference.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"credist"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "learn":
			runLearn(os.Args[2:])
			return
		case "serve":
			runServe(os.Args[2:])
			return
		case "explain":
			runExplain(os.Args[2:])
			return
		case "ingest":
			runIngest(os.Args[2:])
			return
		}
	}
	runSelect(os.Args[1:])
}

// presetList renders the valid preset names for help text and errors.
func presetList() string { return strings.Join(credist.PresetNames(), ", ") }

func runSelect(args []string) {
	fs := flag.NewFlagSet("credist", flag.ExitOnError)
	var (
		preset    = fs.String("preset", "", "generate a built-in dataset instead of loading files; one of: "+presetList())
		graphPath = fs.String("graph", "", "graph edge-list file (one \"from to\" pair per line, as written by datagen); requires -log")
		logPath   = fs.String("log", "", "action log file (one \"user action time\" tuple per line, as written by datagen); requires -graph")
		k         = fs.Int("k", 10, "number of seeds to select")
		method    = fs.String("method", "cd", "selection method: cd (credit distribution, CELF), highdeg (top out-degree), pagerank (top PageRank on the reversed graph)")
		lambda    = fs.Float64("lambda", 0.001, "CD truncation threshold: path credits below it are discarded during the scan, bounding memory (paper default 0.001; 0 keeps every credit)")
		simple    = fs.Bool("simple-credit", false, "use the equal-split 1/d_in direct-credit rule instead of the learned time-aware rule (Eq. 9)")
		evalSet   = fs.String("eval", "", "skip selection; score this comma-separated list of user ids under the CD model instead (e.g. -eval 3,17,250)")
		audience  = fs.String("audience", "", "campaign objective: count only influence on these comma-separated user ids")
		window    = fs.Float64("window", -1, "campaign objective: count only influence arriving within this many time units of the seeding (action-log units; negative = no window)")
		blocked   = fs.String("blocked", "", "campaign objective: these comma-separated user ids are already committed to a rival; gains are marginal over them and they are never selected")
		costs     = fs.String("costs", "", "campaign objective: per-user seeding costs as id:cost pairs over implicit unit costs (e.g. -costs 3:2.5,7:0.5); -method cd only")
		budget    = fs.Float64("budget", 0, "campaign objective: stop cost-benefit CELF when the next affordable seed would exceed this total cost; -method cd only")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `Usage: credist [flags]         select or score influence seed sets
       credist learn [flags]   learn once and save a binary model snapshot (see credist learn -h)
       credist serve [flags]   run the influence-query HTTP service (see credist serve -h)
       credist explain [flags] decompose a gain or a reach into its credit paths (see credist explain -h)
       credist ingest [flags]  stream new actions into a running service (see credist ingest -h)

Select seeds from a built-in preset or from dataset files:

  credist -preset flixster-small -k 50
  credist -graph data/d.graph -log data/d.log -k 20 -method cd
  credist -preset flickr-small -eval 12,99,340

Campaign objectives (see docs/ARCHITECTURE.md):

  credist -preset flixster-small -k 20 -audience 5,9,13 -window 30
  credist -preset flixster-small -k 20 -costs 3:2.5,7:0.5 -budget 10 -blocked 42

Flags:
`)
		fs.PrintDefaults()
	}
	fs.Parse(args)

	ds, err := loadDataset(*preset, *graphPath, *logPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "credist:", strings.TrimPrefix(err.Error(), "credist: "))
		os.Exit(1)
	}
	st := ds.Stats()
	fmt.Printf("dataset %s: %d users, %d propagations, %d tuples\n",
		ds.Name, ds.NumUsers(), st.NumActions, st.NumTuples)

	model := credist.Learn(ds, credist.Options{Lambda: *lambda, SimpleCredit: *simple})

	obj, err := buildObjective(*audience, *window, *blocked, *costs, *budget, ds.NumUsers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "credist:", strings.TrimPrefix(err.Error(), "credist: "))
		os.Exit(1)
	}

	if *evalSet != "" {
		seeds, err := parseSeeds(*evalSet, ds.NumUsers())
		if err != nil {
			fmt.Fprintln(os.Stderr, "credist:", strings.TrimPrefix(err.Error(), "credist: "))
			os.Exit(1)
		}
		if obj != nil && (obj.Costs != nil || obj.Budget != 0) {
			fmt.Fprintln(os.Stderr, "credist: -costs and -budget apply to seed selection, not -eval scoring")
			os.Exit(1)
		}
		for _, s := range seeds {
			fmt.Printf("user %6d: actions %4d  influenceability %.2f\n",
				s, ds.Log.ActionCount(s), model.Influenceability(s))
		}
		fmt.Printf("predicted spread (CD model): %.2f\n", objSpread(model, seeds, obj))
		return
	}

	var seeds []credist.NodeID
	var gains []float64
	switch *method {
	case "cd":
		res, err := model.NewPlanner().Select(*k, obj)
		if err != nil {
			fmt.Fprintln(os.Stderr, "credist:", strings.TrimPrefix(err.Error(), "credist: "))
			os.Exit(1)
		}
		seeds, gains = res.Seeds, res.Gains
	case "highdeg", "pagerank":
		if obj != nil && (obj.Costs != nil || obj.Budget != 0 || obj.Blocked != nil) {
			fmt.Fprintf(os.Stderr, "credist: -costs, -budget, and -blocked apply to -method cd only\n")
			os.Exit(1)
		}
		if *method == "highdeg" {
			seeds = credist.HighDegreeSeeds(ds, *k)
		} else {
			seeds = credist.PageRankSeeds(ds, *k)
		}
	default:
		fmt.Fprintf(os.Stderr, "credist: unknown method %q (valid methods: cd, highdeg, pagerank)\n", *method)
		os.Exit(1)
	}

	for i, s := range seeds {
		if gains != nil {
			fmt.Printf("seed %2d: user %6d  marginal gain %8.2f\n", i+1, s, gains[i])
		} else {
			fmt.Printf("seed %2d: user %6d\n", i+1, s)
		}
	}
	fmt.Printf("predicted spread (CD model): %.2f\n", objSpread(model, seeds, obj))
}

// buildObjective assembles a campaign objective from the CLI flags, nil
// when every flag is at its default (the global-spread objective).
func buildObjective(audience string, window float64, blocked, costs string, budget float64, numUsers int) (*credist.Objective, error) {
	var obj credist.Objective
	touched := false
	if audience != "" {
		ids, err := parseSeeds(audience, numUsers)
		if err != nil {
			return nil, fmt.Errorf("-audience: %w", err)
		}
		obj.Audience, touched = ids, true
	}
	if window >= 0 {
		obj.Windowed, obj.Window, touched = true, window, true
	}
	if blocked != "" {
		ids, err := parseSeeds(blocked, numUsers)
		if err != nil {
			return nil, fmt.Errorf("-blocked: %w", err)
		}
		obj.Blocked, touched = ids, true
	}
	if costs != "" {
		vec, err := credist.ParseCosts("-costs", costs, numUsers)
		if err != nil {
			return nil, err
		}
		obj.Costs, touched = vec, true
	}
	if budget != 0 {
		obj.Budget, touched = budget, true
	}
	if !touched {
		return nil, nil
	}
	return &obj, nil
}

// objSpread scores a seed set under the objective's evaluation half
// (costs and budget shape selection, not scoring).
func objSpread(model *credist.Model, seeds []credist.NodeID, obj *credist.Objective) float64 {
	if obj == nil {
		return model.Spread(seeds)
	}
	eval := *obj
	eval.Costs, eval.Budget = nil, 0
	spread, err := model.SpreadObj(seeds, &eval)
	if err != nil {
		fmt.Fprintln(os.Stderr, "credist:", strings.TrimPrefix(err.Error(), "credist: "))
		os.Exit(1)
	}
	return spread
}

func parseSeeds(list string, numUsers int) ([]credist.NodeID, error) {
	var seeds []credist.NodeID
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.ParseInt(part, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad user id %q: %w", part, err)
		}
		if id < 0 || int(id) >= numUsers {
			return nil, fmt.Errorf("user id %d out of range [0,%d)", id, numUsers)
		}
		seeds = append(seeds, credist.NodeID(id))
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no seeds in %q", list)
	}
	return seeds, nil
}

func loadDataset(preset, graphPath, logPath string) (*credist.Dataset, error) {
	if preset != "" {
		return credist.GeneratePreset(preset)
	}
	if graphPath == "" || logPath == "" {
		return nil, fmt.Errorf("provide -preset (one of: %s), or both -graph and -log", presetList())
	}
	return credist.LoadDataset("custom", graphPath, logPath)
}

// modelOptions resolves -lambda and -simple-credit. Without a -model
// snapshot they apply as given. With one, the snapshot's stored options are
// authoritative: an unset flag adopts them, and an explicitly passed flag
// is checked against them on load. The zero Options value is also the
// "adopt the stored options" sentinel, so an explicit -lambda 0 or
// -simple-credit=false could never be told from unset and would silently
// skip the mismatch check; both are refused.
func modelOptions(fs *flag.FlagSet, model string, lambda float64, simple bool) (credist.Options, error) {
	if model == "" {
		return credist.Options{Lambda: lambda, SimpleCredit: simple}, nil
	}
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	var opts credist.Options
	if explicit["lambda"] {
		if lambda == 0 {
			return opts, errors.New("-lambda 0 with -model is indistinguishable from unset; omit -lambda (the snapshot's stored options are authoritative)")
		}
		opts.Lambda = lambda
	}
	if explicit["simple-credit"] {
		if !simple {
			return opts, errors.New("-simple-credit=false with -model is indistinguishable from unset; omit it (the snapshot's stored options are authoritative)")
		}
		opts.SimpleCredit = true
	}
	return opts, nil
}
