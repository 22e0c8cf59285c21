package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"credist"
	"credist/internal/seedsel"
	"credist/internal/serve"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; a client span's ID is its request id, and every other span points
// at the span that caused it through Parent (-1 for a root).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// spanIDBase keeps the IDs of non-client spans clear of request ids.
const spanIDBase = 1 << 32

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	on    atomic.Bool
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(parent int64, req int, name string, start, end time.Duration) int64 {
	id := spanIDBase + t.next.Add(1)
	t.record(span{ID: id, Parent: parent, Req: req, Name: name,
		Start: float64(start) / 1e3, End: float64(end) / 1e3})
	return id
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// middleware records a server span around the wrapped handler, linked to
// the client span by the request-id header, while tracing is on.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := since()
		h.ServeHTTP(w, r)
		end := since()
		req, err := strconv.Atoi(r.Header.Get(requestIDHeader))
		if err != nil {
			req = -1
		}
		t.add(int64(req), req, "serve."+strings.TrimPrefix(r.URL.Path, "/"), start, end)
	})
}

// clientSpans records a phase's client spans (send to body read) and the
// generator wait before each send.
func (t *tracer) clientSpans(ph *phase) {
	for i := range ph.samples {
		s := &ph.samples[i]
		if !s.ok() {
			continue
		}
		t.record(span{ID: int64(s.req.id), Parent: -1, Req: s.req.id, Name: "client." + s.req.kind.route(),
			Start: float64(s.start) / 1e3, End: float64(s.end) / 1e3})
		t.add(int64(s.req.id), s.req.id, "loadgen.wait", s.due, s.start)
	}
}

// durations groups span durations (ms) by name, and by request id for
// the names in byReq.
func (t *tracer) durations() (map[string][]float64, map[string]map[int]float64) {
	byName := map[string][]float64{}
	byReq := map[string]map[int]float64{}
	for _, s := range t.spans {
		d := (s.End - s.Start) / 1e3
		byName[s.Name] = append(byName[s.Name], d)
		if byReq[s.Name] == nil {
			byReq[s.Name] = map[int]float64{}
		}
		byReq[s.Name][s.Req] += d
	}
	return byName, byReq
}

// replayer drives a request stream, one request at a time, through each
// layer's public functions: the serve Snapshot, the credist facade over
// internal/core, the partition coordinator, CELF growth and the RR tier.
type replayer struct {
	tr    *tracer
	sn    *serve.Snapshot
	model *credist.Model
	p     *credist.Planner
	pp    *credist.PartitionedPlanner // nil off the partitioned workload
	aud   *credist.Objective
	// CELF replay state: the seed-prefix length the current generation
	// covers without growth, and its growable selection once grown.
	covered int
	sel     *credist.GrowableSelection
	batches [][]credist.Tuple

	spreadAllocs, spreadAllocKiB, addAllocKiB, promotedKiB []float64
	lookups, grownSeeds                                    int
	// ratioCore/ratioPart pair core and partition spread times per set.
	ratioCore, ratioPart []float64
}

var allocNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes"}

// allocs reads the cumulative heap allocation counters.
func allocs() (objects, bytes uint64) {
	ms := make([]metrics.Sample, len(allocNames))
	for i, n := range allocNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return ms[0].Value.Uint64(), ms[1].Value.Uint64()
}

func (rp *replayer) span(parent int64, req int, name string, f func() error) (int64, float64, error) {
	start := since()
	err := f()
	end := since()
	return rp.tr.add(parent, req, name, start, end), ms(end - start), err
}

func newReplayer(rn *runner) (*replayer, error) {
	sn, err := serve.Build(rn.w.source(rn.in))
	if err != nil {
		return nil, err
	}
	if err := sn.PartitionErr(); err != nil {
		return nil, err
	}
	rp := &replayer{tr: &tracer{}, sn: sn, model: sn.Model(), aud: &credist.Objective{Audience: rn.aud}, batches: rn.batches}
	if sn.Partitioned() {
		paths := credist.SlicePaths(rn.in.modelPath, sn.NumPartitions())
		if rp.model, rp.pp, err = credist.LoadPartitions(sn.Dataset(), paths, true, credist.Options{}); err != nil {
			return nil, err
		}
	}
	rp.p = rp.model.NewPlanner()
	rp.p.Freeze()
	if pfx := sn.Model().SeedPrefix(); pfx != nil {
		rp.covered = len(pfx.Seeds)
	}
	// Settle the lazy builds (evaluator, RR pool, scans) on every line
	// before anything is timed, as the server's warm-up does.
	for _, r := range firstOfEachKind(rn.w, rn.opts.seed, rn.users) {
		if err := rp.do(&r); err != nil {
			return nil, err
		}
	}
	rp.spreadAllocs, rp.spreadAllocKiB, rp.addAllocKiB, rp.promotedKiB = nil, nil, nil, nil
	rp.ratioCore, rp.ratioPart = nil, nil
	rp.lookups, rp.grownSeeds = 0, 0
	return rp, nil
}

// do replays one request through every layer it reaches.
func (rp *replayer) do(r *request) error {
	root := int64(r.id)
	var err error
	switch r.kind {
	case kSpread:
		sid, _, err := rp.span(root, r.id, "snapshot.spread", func() error { _, err := rp.sn.Spread(r.seeds); return err })
		if err != nil {
			return err
		}
		o0, b0 := allocs()
		_, dCore, _ := rp.span(sid, r.id, "core.spread", func() error { rp.model.Spread(r.seeds); return nil })
		o1, b1 := allocs()
		rp.spreadAllocs = append(rp.spreadAllocs, float64(o1-o0))
		rp.spreadAllocKiB = append(rp.spreadAllocKiB, float64(b1-b0)/1024)
		if rp.pp != nil {
			_, dPart, err := rp.span(sid, r.id, "partition.spread", func() error { _, err := rp.pp.Spread(r.seeds); return err })
			if err != nil {
				return err
			}
			rp.ratioCore, rp.ratioPart = append(rp.ratioCore, dCore), append(rp.ratioPart, dPart)
		}
	case kSpreadAudience:
		sid, _, err := rp.span(root, r.id, "snapshot.spread_obj", func() error { _, err := rp.sn.SpreadObj(r.seeds, rp.aud); return err })
		if err != nil {
			return err
		}
		_, _, err = rp.span(sid, r.id, "core.spread_obj", func() error { _, err := rp.model.SpreadObj(r.seeds, rp.aud); return err })
		return err
	case kSpreadEps:
		sid, _, err := rp.span(root, r.id, "snapshot.approx_spread", func() error {
			_, err := rp.sn.ApproxSpread(r.seeds, credist.ApproxOptions{Eps: 0.1})
			return err
		})
		if err != nil {
			return err
		}
		_, _, err = rp.span(sid, r.id, "ris.spread", func() error {
			// The snapshot's own model carries the RR pool (a partitioned
			// deployment's fixed pool comes from the whole-model file).
			if rp.pp != nil {
				_, _, err := rp.sn.Model().ApproxSpreadFixed(r.seeds)
				return err
			}
			_, err := rp.sn.Model().ApproxSpread(r.seeds, credist.ApproxOptions{Eps: 0.1})
			return err
		})
		return err
	case kGain:
		sid, _, err := rp.span(root, r.id, "snapshot.gains", func() error { _, err := rp.sn.Gains(r.seeds, r.cands); return err })
		if err != nil {
			return err
		}
		var c *credist.Planner
		rp.span(sid, r.id, "core.clone", func() error { c = rp.p.Clone(); return nil })
		heap0 := c.HeapBytes()
		_, b0 := allocs()
		rp.span(sid, r.id, "core.add", func() error {
			for _, s := range r.seeds {
				c.Add(s)
			}
			return nil
		})
		_, b1 := allocs()
		rp.addAllocKiB = append(rp.addAllocKiB, float64(b1-b0)/1024)
		rp.promotedKiB = append(rp.promotedKiB, float64(c.HeapBytes()-heap0)/1024)
		for _, x := range r.cands {
			rp.span(sid, r.id, "core.gain", func() error { c.Gain(x); return nil })
		}
		if rp.pp != nil {
			_, _, err = rp.span(sid, r.id, "partition.gains", func() error { _, err := rp.pp.Gains(r.seeds, r.cands); return err })
		}
		return err
	case kSeeds:
		sid, _, err := rp.span(root, r.id, "snapshot.select_seeds", func() error { _, _, err := rp.sn.SelectSeeds(r.k); return err })
		if err != nil || r.k <= rp.covered {
			return err
		}
		if rp.sel == nil {
			rp.sel = rp.p.NewSelection()
		}
		var res seedsel.Result
		rp.span(sid, r.id, "celf.grow", func() error { res = rp.sel.Grow(r.k); return nil })
		rp.lookups = res.Lookups
		rp.grownSeeds = len(res.Seeds)
		rp.covered = r.k
	case kExplain:
		sid, _, err := rp.span(root, r.id, "snapshot.explain_seed", func() error { _, err := rp.sn.ExplainSeed(r.seeds[0], 10); return err })
		if err != nil {
			return err
		}
		rp.span(sid, r.id, "core.explain", func() error { rp.model.ExplainSeedOn(rp.p, r.seeds[0], 10); return nil })
	case kIngest:
		batch := rp.batches[r.batch]
		sid, _, err := rp.span(root, r.id, "snapshot.ingest", func() error {
			next, err := rp.sn.Ingest(batch, false)
			if err == nil {
				rp.sn = next
			}
			return err
		})
		if err != nil {
			return err
		}
		_, _, err = rp.span(sid, r.id, "core.append", func() error {
			m, err := rp.model.Ingest(batch)
			if err != nil {
				return err
			}
			p, err := m.ExtendPlanner(rp.p)
			if err != nil {
				return err
			}
			p.Freeze()
			if rp.pp != nil {
				if rp.pp, err = rp.pp.Extend(m); err != nil {
					return err
				}
			}
			rp.model, rp.p = m, p
			return nil
		})
		rp.covered, rp.sel = 0, nil
	}
	return err
}

// traced is the --trace 1 run: an untraced timed phase on one instance, the
// same stream traced on a fresh instance, a layer replay of that stream,
// and the correctness check of both.
func (rn *runner) traced() (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	tr := &tracer{}
	if err := rn.setupBreakdown(res); err != nil {
		return nil, err
	}
	dur := time.Duration(rn.opts.seconds) * time.Second

	// Untraced phase: the baseline for the overhead and the runtime counters.
	instA, err := startInstance(rn.w.source(rn.in), nil)
	if err != nil {
		return nil, err
	}
	gA := newGenerator(instA.base, rn.conc, rn.aud, rn.batches)
	if err := rn.warm(gA); err != nil {
		return nil, err
	}
	sampled0 := instA.srv.Current().ApproxStats().Sampled
	rt0 := readRuntime()
	idA := rn.nextID
	untraced := rn.keep(gA.run(rn.stream("timed", rn.w.rate, dur, rn.timedBatches())))
	rt1 := readRuntime()
	sampled := instA.srv.Current().ApproxStats().Sampled - sampled0
	res.stamp = rn.stamp(instA.srv.Current())
	res.set("ladder.max_rps", "req/s", rn.ladder(gA))
	gA.close()
	if err := instA.close(); err != nil {
		return nil, err
	}

	// Traced phase: the identical stream (same ids) on a fresh instance.
	instB, err := startInstance(rn.w.source(rn.in), tr.middleware)
	if err != nil {
		return nil, err
	}
	defer instB.close()
	gB := newGenerator(instB.base, rn.conc, rn.aud, rn.batches)
	defer gB.close()
	if err := rn.warm(gB); err != nil {
		return nil, err
	}
	reqs := stream(rn.w, streamParams{seed: rn.opts.seed, phase: "timed", rate: rn.w.rate, duration: dur,
		users: rn.users, firstID: idA, batches: rn.timedBatches()})
	tr.on.Store(true)
	tracedPh := rn.keep(gB.run(reqs))
	probes := rn.probe(gB)
	tr.on.Store(false)
	tr.clientSpans(tracedPh)
	for _, p := range probes {
		tr.clientSpans(p)
		reqs = append(reqs, *p.samples[0].req)
	}

	// Layer replay of the traced stream, parented to its client spans.
	rp, err := newReplayer(rn)
	if err != nil {
		return nil, err
	}
	rp.tr = tr
	for i := range reqs {
		if err := rp.do(&reqs[i]); err != nil {
			return nil, fmt.Errorf("replay of request %d (%s): %w", reqs[i].id, reqs[i].kind, err)
		}
	}

	wrong, err := rn.verify()
	if err != nil {
		return nil, err
	}
	rn.count(res, wrong, append(probes, untraced, tracedPh))
	rn.layerMetrics(res, tr, rp, untraced, tracedPh, probes)
	res.set("ris.sampled", "count", float64(sampled))
	allReq := float64(len(untraced.samples))
	res.set("runtime.alloc_kib_per_req", "KiB", float64(rt1.allocBytes-rt0.allocBytes)/1024/allReq)
	res.set("runtime.gc_cycles", "count", float64(rt1.gcCycles-rt0.gcCycles))
	res.set("runtime.gc_pause_p99_ms", "ms", pauseP99Ms(rt0, rt1))
	res.set("error_share", "fraction", float64(res.Failed)/float64(max(res.Attempted, 1)))
	if err := rn.writeTrace(res.stamp, tr); err != nil {
		return nil, err
	}
	summarize(res)
	return res, nil
}

// layerMetrics derives the per-layer metrics from the spans.
func (rn *runner) layerMetrics(res *result, tr *tracer, rp *replayer, untraced, traced *phase, probes []*phase) {
	byName, byReq := tr.durations()
	p50 := func(name string) float64 { return median(byName[name]) }
	p99 := func(name string) float64 { return quantile(byName[name], 0.99) }

	lag := []float64{}
	for i := range untraced.samples {
		lag = append(lag, untraced.samples[i].lagMs())
	}
	res.set("loadgen.lag_p99_ms", "ms", quantile(lag, 0.99))
	res.set("loadgen.inflight_max", "count", float64(untraced.inflightMax))

	// http: client span minus server span of the same request.
	var httpMs []float64
	snapOf := map[string]string{"spread": "", "gain": "snapshot.gains", "seeds": "snapshot.select_seeds",
		"explain": "snapshot.explain_seed", "ingest": "snapshot.ingest"}
	for _, route := range routes {
		client, server := byReq["client."+route], byReq["serve."+route]
		var self []float64
		for req, c := range client {
			sv, ok := server[req]
			if !ok {
				continue
			}
			httpMs = append(httpMs, c-sv)
			snap := 0.0
			if route == "spread" {
				for _, n := range []string{"snapshot.spread", "snapshot.spread_obj", "snapshot.approx_spread"} {
					snap += byReq[n][req]
				}
			} else {
				snap = byReq[snapOf[route]][req]
			}
			self = append(self, sv-snap)
		}
		res.set("serve."+route+".p50_ms", "ms", p50("serve."+route))
		res.set("serve."+route+".p99_ms", "ms", p99("serve."+route))
		res.set("serve."+route+".self_p50_ms", "ms", median(self))
	}
	res.set("http.p50_ms", "ms", median(httpMs))
	var bytes []float64
	for _, ph := range append(probes, traced) {
		for i := range ph.samples {
			bytes = append(bytes, float64(len(ph.samples[i].body)))
		}
	}
	res.set("serve.resp_bytes_per_req", "B", mean(bytes))

	for _, op := range []string{"spread", "gains", "select_seeds", "explain_seed", "approx_spread", "spread_obj", "ingest"} {
		res.set("snapshot."+op+".p50_ms", "ms", p50("snapshot."+op))
		res.set("snapshot."+op+".p99_ms", "ms", p99("snapshot."+op))
	}

	res.set("core.spread.p50_ms", "ms", p50("core.spread"))
	res.set("core.spread.p99_ms", "ms", p99("core.spread"))
	res.set("core.spread.allocs", "count", median(rp.spreadAllocs))
	res.set("core.spread.alloc_kib", "KiB", median(rp.spreadAllocKiB))
	res.set("core.clone.p50_ms", "ms", p50("core.clone"))
	res.set("core.add.p50_ms", "ms", p50("core.add"))
	res.set("core.add.p99_ms", "ms", p99("core.add"))
	res.set("core.add.alloc_kib", "KiB", median(rp.addAllocKiB))
	res.set("core.add.promoted_kib", "KiB", median(rp.promotedKiB))
	res.set("core.gain.p50_ms", "ms", p50("core.gain"))
	res.set("core.spread_obj.p50_ms", "ms", p50("core.spread_obj"))
	res.set("core.explain.p50_ms", "ms", p50("core.explain"))
	res.set("core.append.p50_ms", "ms", p50("core.append"))
	res.set("core.append.p90_ms", "ms", quantile(byName["core.append"], 0.9))

	res.set("partition.spread.p50_ms", "ms", p50("partition.spread"))
	res.set("partition.spread.p99_ms", "ms", p99("partition.spread"))
	res.set("partition.gains.p50_ms", "ms", p50("partition.gains"))
	ratio := 0.0
	if c := median(rp.ratioCore); c > 0 {
		ratio = median(rp.ratioPart) / c
	}
	res.set("partition.spread_ratio", "x", ratio)

	grows := byName["celf.grow"]
	res.set("celf.grow.p50_ms", "ms", median(grows))
	res.set("celf.grow.max_ms", "ms", quantile(grows, 1))
	res.set("celf.lookups", "count", float64(rp.lookups))
	perLookup := 0.0
	if rp.lookups > 0 {
		perLookup = float64(rp.grownSeeds) / float64(rp.lookups)
	}
	res.set("celf.seeds_per_lookup", "ratio", perLookup)
	res.set("ris.spread.p50_ms", "ms", p50("ris.spread"))

	// The untraced phase's tails: too unsteady on a small machine to carry
	// a regression bound, reported here as diagnostics.
	res.set("e2e.p50_ms", "ms", median(untraced.latencies("")))
	res.set("e2e.p99_ms", "ms", quantile(untraced.latencies(""), 0.99))
	res.set("e2e.gain.p50_ms", "ms", median(untraced.latencies("gain")))
	for _, route := range []string{"spread", "gain", "seeds", "explain"} {
		res.set("e2e."+route+".p99_ms", "ms", quantile(untraced.latencies(route), 0.99))
	}
	ingest := ingestLatencies(traced, probes)
	res.set("e2e.ingest.p50_ms", "ms", median(ingest))
	res.set("e2e.ingest.p90_ms", "ms", quantile(ingest, 0.9))

	untracedP50, tracedP50 := median(untraced.latencies("")), median(traced.latencies(""))
	res.set("trace.untraced_p50_ms", "ms", untracedP50)
	res.set("trace.traced_p50_ms", "ms", tracedP50)
	res.set("trace.overhead_p50_ratio", "x", tracedP50/untracedP50)
}

// setupBreakdown replays the deployment's build through the public
// calls it is made of, timing each (0 for a step the workload skips).
func (rn *runner) setupBreakdown(res *result) error {
	steps := map[string]float64{"dataset": 0, "model": 0, "learn": 0, "scan": 0, "evaluator": 0, "partitions": 0}
	timeit := func(step string, f func() error) error {
		t := time.Now()
		err := f()
		steps[step] = time.Since(t).Seconds()
		return err
	}
	src := rn.w.source(rn.in)
	var ds *credist.Dataset
	if err := timeit("dataset", func() (err error) {
		ds, err = credist.LoadDataset(presetName, src.GraphPath, src.LogPath)
		return err
	}); err != nil {
		return err
	}
	var model *credist.Model
	var err error
	switch {
	case src.Partitions > 0:
		err = timeit("partitions", func() error {
			_, pp, err := credist.LoadPartitions(ds, credist.SlicePaths(src.ModelPath, src.Partitions), src.Mmap, credist.Options{})
			if err == nil {
				err = pp.Close()
			}
			return err
		})
	case src.ModelPath != "":
		err = timeit("model", func() (err error) {
			model, err = credist.LoadModelMapped(ds, src.ModelPath, credist.Options{})
			return err
		})
	default:
		err = timeit("learn", func() error {
			model = credist.Learn(ds, credist.Options{Lambda: src.Lambda})
			return nil
		})
	}
	if err != nil {
		return err
	}
	if model != nil {
		timeit("scan", func() error { model.NewPlanner(); return nil })
		timeit("evaluator", func() error { model.Spread(nil); return nil })
	}
	for step, s := range steps {
		res.set("setup."+step+"_s", "s", s)
	}
	return nil
}

// writeTrace writes the traced run's spans to the trace directory.
func (rn *runner) writeTrace(st stamp, tr *tracer) error {
	dir := filepath.Join(rn.opts.root, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", rn.w.name, rn.opts.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"stamp": st, "spans": tr.spans}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", len(tr.spans), path)
	return nil
}
