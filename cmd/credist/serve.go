package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"credist/internal/serve"
)

// Connection timeouts of the query server. A client must deliver its
// request headers within readHeaderTimeout and the whole request, body
// included, within readTimeout, so a client that trickles bytes (the
// slowloris attack) cannot hold a connection open indefinitely; an idle
// keep-alive connection closes after idleTimeout. readTimeout leaves room
// for large /ingest bodies. There is deliberately no write timeout: a
// cold /seeds growth or an /ingest can legitimately run long, and a write
// deadline would cut off their answers.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the query server for handler h on addr, with the
// connection timeouts above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// runServe is the `credist serve` subcommand: learn a model once, then
// answer influence queries over HTTP until interrupted. SIGINT/SIGTERM
// drain in-flight requests before exiting.
func runServe(args []string) {
	fs := flag.NewFlagSet("credist serve", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8632", "listen address (host:port)")
		preset    = fs.String("preset", "", "serve a built-in dataset; one of: "+presetList())
		graphPath = fs.String("graph", "", "graph edge-list file (as written by datagen); requires -log")
		logPath   = fs.String("log", "", "action log file (as written by datagen); requires -graph")
		model     = fs.String("model", "", "optional binary model snapshot (credist learn -o / POST /snapshot file): skips learning and the full log scan, processing only log actions past the snapshot")
		mmap      = fs.Bool("mmap", false, "serve the UC base directly from the -model file via a read-only memory mapping: no parse, near-instant open, model may exceed RAM; answers stay bit-identical; reads the same files as a heap load")
		tail      = fs.String("tail", "", "optional action-tail file (as written by `datagen -stream`) appended to the log before the model binds; with -model, how a restart catches up past a checkpoint")
		lambda    = fs.Float64("lambda", 0.001, "CD truncation threshold (paper default 0.001; 0 keeps every credit); with -model, must match the stored value or be left unset")
		simple    = fs.Bool("simple-credit", false, "use the equal-split 1/d_in direct-credit rule instead of the learned time-aware rule (Eq. 9)")
		parts     = fs.Int("partitions", 0, "split the model into N influencer-row partitions, reported per partition in /stats (0 serves the single-engine path; /gain, /seeds and /explain are bit-identical to it at every N, while /spread and /topk answer the telescoped lambda-truncated sum, slightly below the exact spread, and eps= is capped at the RR pool the model file persisted, 501 without one); partitions are row ranges of the one model, and a partitioned POST /snapshot writes one whole-model file")
		warmK     = fs.Int("warm-k", 0, "precompute and cache the CELF selection for this k before accepting traffic (0 skips warmup)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `Usage: credist serve [flags]

Run the influence-query HTTP service: learn the credit-distribution model
from a dataset, hold it as an immutable snapshot, and answer concurrent
JSON queries. Endpoints:

  GET  /spread?seeds=1,2,3     sigma_cd of a seed set (POST {"seeds":[...]}
                               or {"sets":[[...],...]} for batches); add
                               &eps=0.1 and/or &budget=10ms for a bounded-
                               error, bounded-latency RR-tier estimate with
                               a 99%% confidence interval around the exact
                               value ({estimate, ci_low, ci_high, ...})
  GET  /gain?candidates=4,5    batched marginal gains, optional &seeds= base
  GET  /seeds?k=N              CELF seed selection, prefix-incremental: one
                               growable selection per snapshot; any k at or
                               below the largest computed (or restored from
                               -model / -warm-k) is a zero-work prefix slice;
                               add &eps=0.1 for RR coverage-greedy seeds with
                               an interval on the selected set's spread
  GET  /topk?method=highdeg&k=N  heuristic baseline seeds, CD-scored
  GET  /explain?seed=u&top=N   why-seed: u's marginal gain decomposed into
                               its top credit paths; ?set=1,2&reach=v is
                               why-reach: the credit the set pushes onto v,
                               split by seed (shares sum exactly to total)
  GET  /healthz                liveness
  GET  /stats                  snapshot shape, base/delta UC entries, QPS,
                               RR-sketch size, approximate-tier hits, and
                               /explain requests
  POST /reload                 learn from a new source and atomically swap,
                               e.g. {"preset":"flickr-small","lambda":0.001}
  POST /ingest                 append new propagations incrementally (only the
                               tail is scanned) and swap in the successor,
                               e.g. {"tuples":[{"user":1,"action":2200,"time":3}]}
                               or {"log":"data/flixster-small.tail.log"};
                               see also "credist ingest"
  POST /snapshot               checkpoint the current model as a binary
                               snapshot at a server-side path, e.g.
                               {"path":"data/model.bin"}; restart from it
                               with -model for a millisecond cold start

Examples:

  credist serve -preset flixster-small -addr :8632 -warm-k 50
  credist learn -graph d.graph -log d.log -o model.bin
  credist serve -graph d.graph -log d.log -model model.bin        # no relearn/rescan
  credist serve -graph d.graph -log d.log -model model.bin -mmap  # serve straight off the file
  credist serve -graph d.graph -log d.log -model model.bin -partitions 4 -mmap
                                  # one planner over 4 row ranges of the mapped file

Flags:
`)
		fs.PrintDefaults()
	}
	fs.Parse(args)

	if *mmap && *model == "" {
		fmt.Fprintln(os.Stderr, "credist serve: -mmap needs -model (the mapping is the snapshot file)")
		os.Exit(1)
	}
	opts, err := modelOptions(fs, *model, *lambda, *simple)
	if err != nil {
		fmt.Fprintln(os.Stderr, "credist serve:", err)
		os.Exit(1)
	}
	if *parts < 0 {
		fmt.Fprintln(os.Stderr, "credist serve: -partitions must be non-negative")
		os.Exit(1)
	}
	src := serve.Source{
		Preset:       *preset,
		GraphPath:    *graphPath,
		LogPath:      *logPath,
		ModelPath:    *model,
		Mmap:         *mmap,
		TailPath:     *tail,
		Lambda:       opts.Lambda,
		SimpleCredit: opts.SimpleCredit,
		Partitions:   *parts,
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	start := time.Now()
	snap, err := serve.Build(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "credist serve:", err)
		os.Exit(1)
	}
	srv := serve.New(snap)
	srv.Logf = logger.Printf
	if *model != "" {
		logger.Printf("serve: cold-started %s from snapshot %s in %v: %d users, %d UC entries (%.1f MiB resident, %s row store: %.1f MiB heap + %.1f MiB file-backed), %d actions from the file + %d appended from the log",
			snap.Dataset().Name, *model, time.Since(start).Round(time.Millisecond),
			snap.NumUsers(), snap.Entries(), float64(snap.ResidentBytes())/(1<<20),
			snap.RowStoreBackend(), float64(snap.HeapBytes())/(1<<20), float64(snap.MappedBytes())/(1<<20),
			snap.ModelActions(), snap.TailActions())
	} else {
		logger.Printf("serve: learned %s in %v: %d users, %d UC entries (%.1f MiB resident)",
			snap.Dataset().Name, time.Since(start).Round(time.Millisecond),
			snap.NumUsers(), snap.Entries(), float64(snap.ResidentBytes())/(1<<20))
	}
	if snap.Partitioned() {
		logger.Printf("serve: planner over %d partitions (%s row store)",
			snap.NumPartitions(), snap.RowStoreBackend())
	}
	if *warmK > 0 {
		t := time.Now()
		res, err := srv.Warm(*warmK)
		if err != nil {
			// A failed warm-up must not be shrugged off: the operator asked
			// for a hot cache, so serving cold (or from a zero-valued
			// result) is a startup failure.
			fmt.Fprintln(os.Stderr, "credist serve: warm-up:", err)
			os.Exit(1)
		}
		logger.Printf("serve: warmed seed cache for k=%d (spread %.2f) in %v",
			*warmK, res.Spread, time.Since(t).Round(time.Millisecond))
	}

	httpSrv := newHTTPServer(*addr, srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Printf("serve: listening on %s", *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "credist serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Printf("serve: shutting down, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "credist serve: shutdown:", err)
		os.Exit(1)
	}
}
