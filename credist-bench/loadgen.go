package main

import (
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"credist"
)

// epoch is the zero of every timestamp the benchmark records, so client
// spans, server spans and replay spans share one clock.
var epoch = time.Now()

func since() time.Duration { return time.Since(epoch) }

// sample is one scheduled request's outcome. Times are offsets from epoch.
type sample struct {
	req     *request
	due     time.Duration
	start   time.Duration // handed to the connection
	end     time.Duration // response body fully read
	status  int
	body    []byte
	dropped bool // still waiting for a connection dropAfter past its due time
	err     error
}

func (s *sample) ok() bool { return !s.dropped && s.err == nil && s.status == http.StatusOK }

// latencyMs is the client latency timed from when the request was due; a
// failed request counts as missing every limit (+Inf).
func (s *sample) latencyMs() float64 {
	if !s.ok() {
		return math.Inf(1)
	}
	return ms(s.end - s.due)
}

func (s *sample) lagMs() float64 { return ms(s.start - s.due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// generator is the benchmark's open-loop client. Arrivals follow the
// request schedule regardless of completions; at most conc requests are in
// flight (one connection each), so requests due while every connection is
// busy wait in the schedule and their wait counts in their latency.
type generator struct {
	client *http.Client
	base   string
	conc   int
	// dropAfter bounds the backlog: a request that could not be sent this
	// long after it was due is dropped and counts as failed.
	dropAfter time.Duration
	aud       []credist.NodeID
	batches   [][]credist.Tuple
}

func newGenerator(base string, conc int, aud []credist.NodeID, batches [][]credist.Tuple) *generator {
	tr := &http.Transport{
		MaxConnsPerHost:     conc,
		MaxIdleConnsPerHost: conc,
		DisableCompression:  true,
	}
	return &generator{
		client:    &http.Client{Transport: tr, Timeout: 30 * time.Second},
		base:      base,
		conc:      conc,
		dropAfter: time.Second,
		aud:       aud,
		batches:   batches,
	}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// phase is one run of a request schedule.
type phase struct {
	start       time.Duration
	samples     []sample
	inflightMax int64
}

// run plays reqs open-loop and returns once every request has completed
// or been dropped.
func (g *generator) run(reqs []request) *phase {
	ph := &phase{samples: make([]sample, len(reqs))}
	var next, inflight, maxInflight atomic.Int64
	t0 := time.Now()
	ph.start = t0.Sub(epoch)
	var wg sync.WaitGroup
	for w := 0; w < g.conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				s := &ph.samples[i]
				s.req, s.due = r, ph.start+r.due
				hr, err := r.httpRequest(g.base, g.aud, g.batches)
				if d := time.Until(t0.Add(r.due)); d > 0 {
					time.Sleep(d)
				}
				s.start = since()
				if err != nil {
					s.err, s.end = err, s.start
					continue
				}
				if s.start-s.due > g.dropAfter {
					s.dropped, s.end = true, s.start
					continue
				}
				n := inflight.Add(1)
				for m := maxInflight.Load(); n > m && !maxInflight.CompareAndSwap(m, n); m = maxInflight.Load() {
				}
				resp, err := g.client.Do(hr)
				if err == nil {
					s.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					s.status = resp.StatusCode
				}
				s.end, s.err = since(), err
				inflight.Add(-1)
			}
		}()
	}
	wg.Wait()
	ph.inflightMax = maxInflight.Load()
	return ph
}

// latencies returns the latencies (ms, failed = +Inf) of the samples
// whose route matches (all routes for "").
func (ph *phase) latencies(route string) []float64 {
	var out []float64
	for i := range ph.samples {
		s := &ph.samples[i]
		if route == "" || s.req.kind.route() == route {
			out = append(out, s.latencyMs())
		}
	}
	return out
}

func (ph *phase) failed() int {
	n := 0
	for i := range ph.samples {
		if !ph.samples[i].ok() {
			n++
		}
	}
	return n
}

// achievedRate is the completed requests per second over the phase.
func (ph *phase) achievedRate() float64 {
	var last time.Duration
	ok := 0
	for i := range ph.samples {
		s := &ph.samples[i]
		if s.end > last {
			last = s.end
		}
		if s.ok() {
			ok++
		}
	}
	if last <= ph.start {
		return 0
	}
	return float64(ok) / (last - ph.start).Seconds()
}

// rung is one probed step of the max_rps ladder.
type rung struct {
	rate     float64
	achieved float64
	p99Ms    float64
	failed   float64 // share
	drainMs  float64 // last completion past the last due time
	pass     bool
}

// judge applies the ladder's acceptance rule to a finished phase: p99 at
// or under the limit, at most 1% failed, and a backlog that drains within
// the limit after the last arrival (no growing queue).
func judge(ph *phase, rate float64, limit time.Duration) rung {
	lat := ph.latencies("")
	r := rung{rate: rate, achieved: ph.achievedRate(), p99Ms: quantile(lat, 0.99)}
	if len(lat) > 0 {
		r.failed = float64(ph.failed()) / float64(len(lat))
	}
	var lastDue, lastEnd time.Duration
	for i := range ph.samples {
		s := &ph.samples[i]
		lastDue = max(lastDue, s.due)
		lastEnd = max(lastEnd, s.end)
	}
	r.drainMs = ms(lastEnd - lastDue)
	limitMs := ms(limit)
	r.pass = r.p99Ms <= limitMs && r.failed <= 0.01 && r.drainMs <= limitMs
	return r
}

// maxRPS binary-searches the fixed ladder for the highest offered rate
// that passes judge, assuming pass/fail is monotone in the rate. It
// returns the achieved rate at that rung (at the lowest rung when none
// passes, so the figure is never zero) and every rung probed.
func maxRPS(ladder []float64, probe func(idx int) rung) (float64, []rung) {
	lo, hi := -1, len(ladder)
	var rungs []rung
	achieved := map[int]float64{}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		r := probe(mid)
		rungs = append(rungs, r)
		achieved[mid] = r.achieved
		if r.pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		lo = 0
		if _, ok := achieved[0]; !ok {
			r := probe(0)
			rungs = append(rungs, r)
			achieved[0] = r.achieved
		}
	}
	return achieved[lo], rungs
}
