package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"credist"
)

func TestQuantileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{1, 2}, 0.5, 1},
		{[]float64{7}, 0.99, 7},
		{seq(10), 0.9, 9},
		{seq(100), 0.99, 99},
		{seq(101), 0.99, 100},
		{seq(100), 1, 100},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestStreamIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		p := streamParams{seed: 7, phase: "timed", rate: w.rate, duration: 2 * time.Second, users: 3000, batches: 4}
		a, b := stream(w, p), stream(w, p)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different streams", w.name)
		}
		if len(a) != int(2*w.rate)+4 {
			t.Fatalf("%s: %d requests, want %d", w.name, len(a), int(2*w.rate)+4)
		}
		for i := 1; i < len(a); i++ {
			if a[i].due < a[i-1].due || a[i].id != a[i-1].id+1 {
				t.Fatalf("%s: schedule out of order at %d", w.name, i)
			}
		}
		p.seed = 8
		if reflect.DeepEqual(a, stream(w, p)) {
			t.Fatalf("%s: different seeds gave the same stream", w.name)
		}
		if !reflect.DeepEqual(firstOfEachKind(w, 7, 3000), firstOfEachKind(w, 7, 3000)) {
			t.Fatalf("%s: set-up probe not deterministic", w.name)
		}
		if got, want := len(firstOfEachKind(w, 7, 3000)), len(w.mix); got != want {
			t.Fatalf("%s: set-up probe has %d kinds, want %d", w.name, got, want)
		}
	}
	if !reflect.DeepEqual(audience(3, 3000), audience(3, 3000)) || len(audience(3, 3000)) != audienceSize {
		t.Fatal("audience not a pure function of the seed")
	}
}

func TestSplitBatchesIsActionContiguous(t *testing.T) {
	var tail []credist.Tuple
	for a := 100; a < 110; a++ {
		for u := 0; u <= a%3; u++ {
			tail = append(tail, credist.Tuple{User: credist.NodeID(u), Action: credist.ActionID(a), Time: float64(u)})
		}
	}
	batches := splitBatches(tail, 4)
	if len(batches) != 4 {
		t.Fatalf("%d batches, want 4", len(batches))
	}
	var joined []credist.Tuple
	for i, b := range batches {
		if i > 0 && b[0].Action == batches[i-1][len(batches[i-1])-1].Action {
			t.Fatalf("action %d split across batches", b[0].Action)
		}
		joined = append(joined, b...)
	}
	if !reflect.DeepEqual(joined, tail) {
		t.Fatal("batches do not reassemble the tail")
	}
}

// fakeWorkload issues GET /seeds requests only; the fake servers ignore
// the path.
var fakeWorkload = &workload{name: "fake", mix: []weighted{{kSeeds, 1}}}

// TestStallShowsInLatency pins the open-loop timing rule: a 200 ms stall
// must show up in the latency of every request due during it, with the
// generator's lag reported, and must not turn into drops.
func TestStallShowsInLatency(t *testing.T) {
	var mu sync.Mutex
	const stallReq = 20 // due at 200 ms
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock() // one request at a time, so a stall holds everything up
		defer mu.Unlock()
		if r.Header.Get(requestIDHeader) == strconv.Itoa(stallReq) {
			time.Sleep(200 * time.Millisecond)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	g := newGenerator(srv.URL, 2, nil, nil)
	defer g.close()
	reqs := stream(fakeWorkload, streamParams{seed: 1, phase: "stall", rate: 100, duration: time.Second, users: 100})
	ph := g.run(reqs)
	if f := ph.failed(); f != 0 {
		t.Fatalf("%d requests failed; a stall under the drop bound must not drop", f)
	}
	stallStart := reqs[stallReq].due
	stallEnd := stallStart + 200*time.Millisecond
	maxLag := 0.0
	for i := range ph.samples {
		s := &ph.samples[i]
		maxLag = max(maxLag, s.lagMs())
		if s.req.due <= stallStart || s.req.due >= stallEnd-20*time.Millisecond {
			continue
		}
		// Due during the stall: it cannot complete before the stall ends.
		if want := ms(stallEnd - s.req.due); s.latencyMs() < want-5 {
			t.Errorf("request %d due %v: latency %.1f ms, want at least %.1f", s.req.id, s.req.due, s.latencyMs(), want-5)
		}
	}
	if maxLag < 100 {
		t.Fatalf("max lag %.1f ms; the generator fell behind during the stall and must report it", maxLag)
	}
}

// TestMaxRPSFindsKnownCapacity runs the ladder against a server that
// serves one request at a time in 5 ms: capacity is about 200 req/s.
func TestMaxRPSFindsKnownCapacity(t *testing.T) {
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		time.Sleep(5 * time.Millisecond)
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	g := newGenerator(srv.URL, 2, nil, nil)
	defer g.close()
	ladder := geometric(50, 1000, 1.25)
	limit := 50 * time.Millisecond
	got, rungs := maxRPS(ladder, func(idx int) rung {
		ph := g.run(stream(fakeWorkload, streamParams{seed: 1, phase: "ladder", rate: ladder[idx], duration: 600 * time.Millisecond, users: 100}))
		return judge(ph, ladder[idx], limit)
	})
	for _, r := range rungs {
		t.Logf("rung %.1f req/s: achieved %.1f, p99 %.1f ms, pass %v", r.rate, r.achieved, r.p99Ms, r.pass)
	}
	if got < 110 || got > 215 {
		t.Fatalf("max_rps = %.1f, want about 200 (between 110 and 215)", got)
	}
}
