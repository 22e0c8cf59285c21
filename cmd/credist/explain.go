package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"credist"
)

// runExplain is the `credist explain` subcommand: offline why-provenance
// queries over a learned (or snapshot-restored) model. -seed decomposes a
// candidate's marginal gain into its top credit paths; -set with -reach
// decomposes the credit a seed set pushes onto one target, by seed and by
// path. Both decompositions are bit-consistent with the answers they
// explain: the printed gain is exactly the selection's gain, and the
// per-seed shares sum exactly to the printed total.
func runExplain(args []string) {
	fs := flag.NewFlagSet("credist explain", flag.ExitOnError)
	var (
		preset    = fs.String("preset", "", "explain over a built-in dataset; one of: "+presetList())
		graphPath = fs.String("graph", "", "graph edge-list file (as written by datagen); requires -log")
		logPath   = fs.String("log", "", "action log file (as written by datagen); requires -graph")
		modelPath = fs.String("model", "", "optional binary model snapshot (credist learn -o): skips learning and the log scan; explanations read the snapshot's credit shards directly")
		lambda    = fs.Float64("lambda", 0.001, "CD truncation threshold (paper default 0.001); with -model, must match the stored value or be left unset")
		simple    = fs.Bool("simple-credit", false, "use the equal-split 1/d_in direct-credit rule instead of the learned time-aware rule (Eq. 9)")
		seed      = fs.Int("seed", -1, "why-seed: decompose this candidate's marginal gain into its top credit paths")
		set       = fs.String("set", "", "why-reach: comma-separated seed set (requires -reach)")
		reach     = fs.Int("reach", -1, "why-reach: decompose the credit the -set seeds push onto this target")
		top       = fs.Int("top", 10, "how many credit paths to print")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `Usage: credist explain [flags] -seed u
       credist explain [flags] -set 1,2,3 -reach v

Why-provenance over the credit-distribution model. -seed answers "why is
this user a good seed": its marginal gain — bit-for-bit the value seed
selection uses — decomposed into the (influencer, influenced, action)
credit paths behind it. -set/-reach answers "who pushed this much credit
onto that user": the total influence credit the set claims on the target,
decomposed by seed (shares sum exactly to the total) and by path.

  credist explain -preset flixster-small -seed 42
  credist explain -preset flixster-small -set 1,2,3 -reach 99 -top 5
  credist explain -graph d.graph -log d.log -model model.bin -seed 42

Flags:
`)
		fs.PrintDefaults()
	}
	fs.Parse(args)

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "credist explain: "+format+"\n", args...)
		os.Exit(1)
	}
	wantSeed := *seed >= 0
	wantReach := *set != "" || *reach >= 0
	switch {
	case wantSeed && wantReach:
		fail("-seed and -set/-reach are mutually exclusive")
	case !wantSeed && !wantReach:
		fail("nothing to explain: pass -seed u, or -set 1,2,3 -reach v")
	case wantReach && (*set == "" || *reach < 0):
		fail("why-reach needs both -set and -reach")
	}
	if *top < 1 {
		fail("-top must be a positive integer, got %d", *top)
	}
	opts, err := modelOptions(fs, *modelPath, *lambda, *simple)
	if err != nil {
		fail("%s", err)
	}

	ds, err := loadDataset(*preset, *graphPath, *logPath)
	if err != nil {
		fail("%s", strings.TrimPrefix(err.Error(), "credist: "))
	}
	var model *credist.Model
	start := time.Now()
	if *modelPath != "" {
		model, err = credist.LoadModel(ds, *modelPath, opts)
		if err != nil {
			fail("%s", strings.TrimPrefix(err.Error(), "credist: "))
		}
	} else {
		model = credist.Learn(ds, opts)
	}

	if wantSeed {
		if *seed >= ds.NumUsers() {
			fail("-seed %d out of range [0,%d)", *seed, ds.NumUsers())
		}
		ex, err := model.NewPlanner().ExplainSeed(credist.NodeID(*seed), *top)
		if err != nil {
			fail("%s", strings.TrimPrefix(err.Error(), "credist: "))
		}
		fmt.Printf("candidate %d: marginal gain %.6f (%d credit paths, model ready in %v)\n",
			ex.Node, ex.Gain, ex.TotalPaths, time.Since(start).Round(time.Millisecond))
		printPaths(ex.Paths)
		return
	}

	seeds, err := parseSeeds(*set, ds.NumUsers())
	if err != nil {
		fail("-set: %s", strings.TrimPrefix(err.Error(), "credist: "))
	}
	if *reach >= ds.NumUsers() {
		fail("-reach %d out of range [0,%d)", *reach, ds.NumUsers())
	}
	ex, err := model.NewPlanner().ExplainReach(seeds, credist.NodeID(*reach), *top)
	if err != nil {
		fail("-set: %s", strings.TrimPrefix(err.Error(), "credist: "))
	}
	fmt.Printf("target %d: total credit %.6f from %d seeds (%d credit paths, model ready in %v)\n",
		ex.Target, ex.Total, len(ex.PerSeed), ex.TotalPaths, time.Since(start).Round(time.Millisecond))
	for _, ps := range ex.PerSeed {
		fmt.Printf("  seed %6d: share %.6f\n", ps.Seed, ps.Share)
	}
	printPaths(ex.Paths)
}

func printPaths(paths []credist.ProvPath) {
	for i, p := range paths {
		fmt.Printf("  path %2d: user %6d -> user %6d  action %6d  credit %.6f\n",
			i+1, p.Influencer, p.Influenced, p.Action, p.Credit)
	}
}
