package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"credist"
)

// runLearn is the `credist learn` subcommand: fit the CD model to a
// dataset, run the one-time log scan, and persist everything as a binary
// snapshot so later processes (`credist serve -model`, credist.LoadModel)
// cold-start without relearning or rescanning.
func runLearn(args []string) {
	fs := flag.NewFlagSet("credist learn", flag.ExitOnError)
	var (
		preset    = fs.String("preset", "", "learn from a built-in dataset; one of: "+presetList())
		graphPath = fs.String("graph", "", "graph edge-list file (as written by datagen); requires -log")
		logPath   = fs.String("log", "", "action log file (as written by datagen); requires -graph")
		out       = fs.String("o", "", "output path for the binary model snapshot (required)")
		lambda    = fs.Float64("lambda", 0.001, "CD truncation threshold (paper default 0.001; 0 keeps every credit)")
		simple    = fs.Bool("simple-credit", false, "use the equal-split 1/d_in direct-credit rule instead of the learned time-aware rule (Eq. 9)")
		seedK     = fs.Int("seed-k", 0, "also run CELF for this many seeds and persist the selection prefix in the snapshot, so `credist serve -model` answers /seeds?k<=N instantly from the first request (0 skips)")
		risN      = fs.Int("ris-samples", 0, "also draw this many RR samples (reverse credit walks) and persist the sketch in the snapshot, so `credist serve -model` answers /spread?eps= from the pool instead of exactly and its first /seeds?eps= with zero sampling work (0 skips)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `Usage: credist learn [flags] -o model.bin

Learn the credit-distribution model once and save it as a durable binary
snapshot: the learned parameters, the fully scanned UC credit structure,
and the dataset lineage (content hashes of the graph and log). Reloading
the snapshot restores the model bit-for-bit without relearning or
rescanning — and against a log that has grown, only the unscanned tail is
processed.

  credist learn -preset flixster-small -o model.bin
  credist learn -preset flixster-small -seed-k 50 -o model.bin   # + seed prefix
  credist learn -preset flixster-small -ris-samples 100000 -o model.bin  # + RR sketch
  credist serve -preset flixster-small -model model.bin
  credist learn -graph d.graph -log d.log -lambda 0.001 -o model.bin

Flags:
`)
		fs.PrintDefaults()
	}
	fs.Parse(args)

	if *out == "" {
		fmt.Fprintln(os.Stderr, "credist learn: -o is required (where to write the snapshot)")
		os.Exit(1)
	}
	ds, err := loadDataset(*preset, *graphPath, *logPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "credist learn:", strings.TrimPrefix(err.Error(), "credist: "))
		os.Exit(1)
	}
	st := ds.Stats()
	fmt.Printf("dataset %s: %d users, %d propagations, %d tuples\n",
		ds.Name, ds.NumUsers(), st.NumActions, st.NumTuples)

	if *seedK < 0 {
		fmt.Fprintln(os.Stderr, "credist learn: -seed-k must be non-negative")
		os.Exit(1)
	}
	if *seedK > ds.NumUsers() {
		fmt.Fprintf(os.Stderr, "credist learn: -seed-k %d exceeds the user count %d\n", *seedK, ds.NumUsers())
		os.Exit(1)
	}

	start := time.Now()
	model := credist.Learn(ds, credist.Options{Lambda: *lambda, SimpleCredit: *simple})
	if *seedK > 0 {
		t := time.Now()
		res := model.Selection(*seedK)
		model.RecordSeedPrefix(res)
		fmt.Printf("selected %d-seed prefix (spread %.2f, %d gain evaluations) in %v\n",
			len(res.Seeds), res.Spread(), res.Lookups, time.Since(t).Round(time.Millisecond))
	}
	if *risN > 0 {
		t := time.Now()
		if err := model.BuildApproxSketch(*risN); err != nil {
			fmt.Fprintln(os.Stderr, "credist learn:", err)
			os.Exit(1)
		}
		ast := model.ApproxStats()
		fmt.Printf("drew %d RR samples (%.1f MiB sketch) in %v\n",
			ast.Samples, float64(ast.Bytes)/(1<<20), time.Since(t).Round(time.Millisecond))
	}
	if err := model.Save(*out); err != nil {
		fmt.Fprintln(os.Stderr, "credist learn:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	p := model.NewPlanner()
	size := int64(0)
	if fi, err := os.Stat(*out); err == nil {
		size = fi.Size()
	}
	fmt.Printf("learned and scanned in %v: %d UC entries (%.1f MiB resident)\n",
		elapsed, p.Entries(), float64(p.ResidentBytes())/(1<<20))
	fmt.Printf("snapshot: %s (%.1f MiB), covers %d actions\n",
		*out, float64(size)/(1<<20), p.NumActions())
}
