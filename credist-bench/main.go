// Command credist-bench is the serving benchmark of the credist module:
// one open-loop HTTP load against an in-process credist server per
// workload, every answer checked against an offline reference, and a
// separate traced run that attributes the time to layers. See README.md.
//
//	bash credist-bench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the JSON result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"time"

	"credist"
	"credist/internal/serve"
)

// Run-shape constants shared by all workloads.
const (
	// setupReps is how many fresh set-up processes setup_s is the median of:
	// one set-up takes well under a second, so a single reading is easily
	// moved by other work on the machine.
	setupReps = 9
	warmup    = time.Second
	rungDur   = 1500 * time.Millisecond
	// probeBatches is how many batches the snapshot workloads' held-out
	// tail is posted in after the traced phase.
	probeBatches = 30
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
}

func main() {
	var (
		opts       options
		traceFlag  = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		setupChild = flag.Bool("setup-child", false, "internal: build the deployment, answer one request of each kind, print the answers and exit")
		prepChild  = flag.Bool("prepare-child", false, "internal: write the prepared inputs under --root and exit")
		steady     = flag.Int("steady", 0, "steadiness report: run the workload this many times with consecutive seeds and print each metric's spread")
	)
	flag.StringVar(&opts.workload, "workload", "serve-mix", "workload name: serve-mix, serve-partitioned or ingest")
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed: the request stream and the target audience derive from it")
	flag.IntVar(&opts.seconds, "seconds", 20, "length of the timed fixed-rate phase")
	flag.StringVar(&opts.root, "root", ".bench_build/credist-bench", "directory for prepared inputs and trace files")
	flag.Parse()
	opts.trace = *traceFlag == 1
	if opts.seconds < 1 {
		fail(errors.New("--seconds must be at least 1"))
	}
	w, err := workloadByName(opts.workload)
	if err != nil {
		fail(err)
	}
	switch {
	case *prepChild:
		err = writeInputs(opts.root)
	case *setupChild:
		err = runSetupChild(w, opts)
	case *steady > 0:
		err = runSteady(opts, *steady)
	default:
		var res *result
		if res, err = runWorkload(w, opts); err == nil {
			err = res.print()
		}
	}
	if err != nil {
		fail(err)
	}
}

// logPhase reports on standard error when a phase ended.
func logPhase(name string) {
	fmt.Fprintf(os.Stderr, "%6.1fs  %s done\n", since().Seconds(), name)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "credist-bench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's outcome; print emits the stamp line and then the
// result line the benchmark contract reads.
type result struct {
	stamp     stamp
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) print() error {
	line, err := json.Marshal(map[string]any{"stamp": r.stamp})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if line, err = json.Marshal(r); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// instance is one deployment behind a real loopback http.Server, built the
// way `credist serve` builds it.
type instance struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan error
}

func startInstance(src serve.Source, wrap func(http.Handler) http.Handler) (*instance, error) {
	sn, err := serve.Build(src)
	if err != nil {
		return nil, err
	}
	if err := sn.PartitionErr(); err != nil {
		return nil, err
	}
	srv := serve.New(sn)
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inst := &instance{srv: srv, http: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { inst.done <- inst.http.Serve(ln) }()
	return inst, nil
}

// close shuts the server down and waits for its serve loop to return.
func (inst *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := inst.http.Shutdown(ctx)
	if serr := <-inst.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// runner carries one run's state: inputs, the id counter that keeps
// request ids unique across phases, and every answered sample.
type runner struct {
	w       *workload
	opts    options
	in      *inputs
	batches [][]credist.Tuple
	aud     []credist.NodeID
	users   int
	nextID  int
	conc    int
	// checked collects every sample whose answer is verified at the end.
	checked []*sample
}

func newRunner(w *workload, opts options) (*runner, error) {
	in, err := prepare(opts.root)
	if err != nil {
		return nil, fmt.Errorf("prepare inputs: %w", err)
	}
	n := probeBatches
	if w.streamIngest {
		// One batch every two seconds: each one invalidates the seed prefix,
		// and the CELF regrowth it triggers saturates both cores for a few
		// hundred milliseconds, so a faster cadence lets it set every figure.
		n = max(1, opts.seconds/2)
	}
	users := datasetConfig().NumUsers
	return &runner{
		w: w, opts: opts, in: in,
		batches: splitBatches(w.tail(in), n),
		aud:     audience(opts.seed, users),
		users:   users,
		conc:    runtime.NumCPU(),
	}, nil
}

func (rn *runner) stream(ph string, rate float64, d time.Duration, batches int) []request {
	reqs := stream(rn.w, streamParams{
		seed: rn.opts.seed, phase: ph, rate: rate, duration: d,
		users: rn.users, firstID: rn.nextID, batches: batches,
	})
	rn.nextID += len(reqs)
	return reqs
}

func (rn *runner) keep(ph *phase) *phase {
	for i := range ph.samples {
		rn.checked = append(rn.checked, &ph.samples[i])
	}
	return ph
}

// warm answers one request of each kind and then runs the fixed-rate mix
// for the warm-up period, so lazy builds and caches settle before timing.
func (rn *runner) warm(g *generator) error {
	first := firstOfEachKind(rn.w, rn.opts.seed, rn.users)
	for i := range first {
		first[i].id = rn.nextID + i
	}
	rn.nextID += len(first)
	ph := rn.keep(g.run(first))
	if ph.failed() > 0 {
		return fmt.Errorf("warm-up: %d of %d first requests failed", ph.failed(), len(first))
	}
	rn.keep(g.run(rn.stream("warmup", rn.w.rate, warmup, 0)))
	return nil
}

// timedBatches is how many ingest batches the timed phase carries.
func (rn *runner) timedBatches() int {
	if rn.w.streamIngest {
		return len(rn.batches)
	}
	return 0
}

// probe posts the held-out tail one batch at a time after the traced
// phase (snapshot workloads only): ingest latency on that deployment.
func (rn *runner) probe(g *generator) []*phase {
	if rn.w.streamIngest {
		return nil
	}
	// Start from a settled heap: the timed phase leaves a collection in
	// flight that would otherwise land on whichever probe it overlaps.
	runtime.GC()
	var out []*phase
	for j := range rn.batches {
		reqs := []request{{id: rn.nextID, kind: kIngest, batch: j}}
		rn.nextID++
		out = append(out, rn.keep(g.run(reqs)))
	}
	return out
}

func runWorkload(w *workload, opts options) (*result, error) {
	rn, err := newRunner(w, opts)
	if err != nil {
		return nil, err
	}
	if opts.trace {
		return rn.traced()
	}
	res := &result{Metrics: map[string]metric{}}
	setupS, err := rn.measureSetup()
	if err != nil {
		return nil, err
	}
	inst, err := startInstance(w.source(rn.in), nil)
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	defer inst.close()
	g := newGenerator(inst.base, rn.conc, rn.aud, rn.batches)
	defer g.close()
	res.stamp = rn.stamp(inst.srv.Current())
	if err := rn.warm(g); err != nil {
		return nil, err
	}
	logPhase("set-up and warm-up")
	stopRSS := sampleRSS()
	timed := rn.keep(g.run(rn.stream("timed", w.rate, time.Duration(opts.seconds)*time.Second, rn.timedBatches())))
	rss := stopRSS()
	logPhase("timed phase")

	wrong, err := rn.verify()
	if err != nil {
		return nil, err
	}
	logPhase("correctness check")
	res.set("setup_s", "s", setupS)
	res.set("spread.p50_ms", "ms", median(timed.latencies("spread")))
	res.set("rss_mib", "MiB", rss)

	rn.count(res, wrong, []*phase{timed})
	summarize(res)
	return res, nil
}

// ingestLatencies gathers the /ingest latencies of the timed phase (the
// ingest workload) or of the probe (snapshot workloads).
func ingestLatencies(timed *phase, probes []*phase) []float64 {
	lat := timed.latencies("ingest")
	for _, p := range probes {
		lat = append(lat, p.latencies("ingest")...)
	}
	return lat
}

// ladder searches the workload's fixed rate ladder for max_rps on g's
// server, logging every rung probed; the answers are kept for checking.
func (rn *runner) ladder(g *generator) float64 {
	maxRate, rungs := maxRPS(rn.w.ladder, func(idx int) rung {
		ph := rn.keep(g.run(rn.stream(fmt.Sprintf("ladder-%d", idx), rn.w.ladder[idx], rungDur, 0)))
		return judge(ph, rn.w.ladder[idx], rn.w.p99Limit)
	})
	for _, r := range rungs {
		fmt.Fprintf(os.Stderr, "ladder %7.1f req/s: achieved %7.1f, p99 %8.2f ms, failed %.3f, drain %.1f ms, pass %v\n",
			r.rate, r.achieved, r.p99Ms, r.failed, r.drainMs, r.pass)
	}
	return maxRate
}

// count fills attempted/failed/correct from the timed phases: failed
// counts requests refused, dropped or answered wrongly; correct requires
// no wrong answer and no error reply (a drop only counts as failed).
func (rn *runner) count(res *result, wrong int, phases []*phase) {
	errored := 0
	for _, ph := range phases {
		res.Attempted += len(ph.samples)
		res.Failed += ph.failed()
		for i := range ph.samples {
			if s := &ph.samples[i]; !s.dropped && !s.ok() {
				errored++
			}
		}
	}
	res.Failed += wrong
	res.Correct = wrong == 0 && errored == 0
}

// verify builds the reference and checks every kept sample; it returns
// the number of wrong answers.
func (rn *runner) verify() (int, error) {
	ref, err := newReference(rn.w.source(rn.in), rn.batches, rn.aud)
	if err != nil {
		return 0, err
	}
	if err := ref.extend(rn.checked); err != nil {
		return 0, err
	}
	wrong, msgs := ref.verify(rn.checked)
	for _, m := range msgs {
		fmt.Fprintln(os.Stderr, "mismatch:", m)
	}
	fmt.Fprintf(os.Stderr, "checked %d answers against the reference: %d wrong\n", len(rn.checked), wrong)
	return wrong, nil
}

func (rn *runner) stamp(sn *serve.Snapshot) stamp {
	st := newStamp()
	st.Workload, st.Seed = rn.w.name, rn.opts.seed
	st.Seconds, st.Trace = float64(rn.opts.seconds), rn.opts.trace
	st.Users, st.Actions = sn.NumUsers(), sn.Dataset().Log.NumActions()
	st.UCEntries, st.HeapBytes, st.MappedBytes, st.RowStore = sn.Entries(), sn.HeapBytes(), sn.MappedBytes(), sn.RowStoreBackend()
	return st
}

func summarize(res *result) {
	fmt.Fprintf(os.Stderr, "%s seed %d: correct=%v attempted=%d failed=%d (nproc %d, GOMAXPROCS %d, %s)\n",
		res.stamp.Workload, res.stamp.Seed, res.Correct, res.Attempted, res.Failed,
		res.stamp.NumCPU, res.stamp.GOMAXPROCS, res.stamp.GoVersion)
}

// measureSetup starts setupReps fresh processes that each build the
// deployment from the files on disk and answer one request of every read
// kind; setup_s is the median wall time from process start to the moment
// the answers arrive. The answers are kept for the correctness check.
func (rn *runner) measureSetup() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		cmd := exec.Command(exe, "--setup-child", "--workload", rn.w.name,
			"--seed", fmt.Sprint(rn.opts.seed), "--root", rn.opts.root)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("set-up process: %w", err)
		}
		var answers []childAnswer
		derr := json.NewDecoder(out).Decode(&answers)
		elapsed := time.Since(start)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up process: %w", err)
		}
		if derr != nil {
			return 0, fmt.Errorf("set-up process output: %w", derr)
		}
		times = append(times, elapsed.Seconds())
		reqs := firstOfEachKind(rn.w, rn.opts.seed, rn.users)
		if len(answers) != len(reqs) {
			return 0, fmt.Errorf("set-up process answered %d of %d requests", len(answers), len(reqs))
		}
		for i, a := range answers {
			r := reqs[i]
			r.id = rn.nextID
			rn.nextID++
			rn.checked = append(rn.checked, &sample{req: &r, status: a.Status, body: a.Body})
		}
	}
	fmt.Fprintf(os.Stderr, "set-up times (s): %.3f\n", times)
	return median(times), nil
}

type childAnswer struct {
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

// runSetupChild is the set-up probe process: build, serve, answer one
// request of each read kind, print the answers.
func runSetupChild(w *workload, opts options) error {
	in := inputPaths(opts.root)
	inst, err := startInstance(w.source(in), nil)
	if err != nil {
		return err
	}
	defer inst.close()
	users := inst.srv.Current().NumUsers()
	g := newGenerator(inst.base, 1, audience(opts.seed, users), nil)
	defer g.close()
	ph := g.run(firstOfEachKind(w, opts.seed, users))
	answers := make([]childAnswer, len(ph.samples))
	for i := range ph.samples {
		s := &ph.samples[i]
		if !s.ok() {
			return fmt.Errorf("set-up request %s failed: status %d, %v", s.req.kind, s.status, s.err)
		}
		answers[i] = childAnswer{Status: s.status, Body: s.body}
	}
	return json.NewEncoder(os.Stdout).Encode(answers)
}
