package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile is the nearest-rank q-quantile: the smallest sample with at
// least q·n of the samples at or below it (index ceil(q·n)−1). It sorts a
// copy; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// rssMiB reads the process's resident set size from /proc (0 where the
// file does not exist).
func rssMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// sampleRSS samples the resident set every 100 ms until the returned stop
// function is called; stop returns the median sample.
func sampleRSS() (stop func() float64) {
	done := make(chan struct{})
	out := make(chan float64)
	go func() {
		var xs []float64
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				xs = append(xs, rssMiB())
			case <-done:
				xs = append(xs, rssMiB())
				out <- median(xs)
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-out
	}
}

// runtimeSample is a reading of the Go runtime counters the benchmark
// reports per layer.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	pauses     *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var s runtimeSample
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = ms[1].Value.Uint64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64Histogram {
		s.pauses = ms[2].Value.Float64Histogram()
	}
	return s
}

// pauseP99Ms is the p99 GC pause between two readings, as the upper edge
// of the histogram bucket holding it (0 when no pause happened).
func pauseP99Ms(before, after runtimeSample) float64 {
	if before.pauses == nil || after.pauses == nil {
		return 0
	}
	counts := make([]uint64, len(after.pauses.Counts))
	total := uint64(0)
	for i, c := range after.pauses.Counts {
		counts[i] = c - before.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(0.99 * float64(total)))
	seen := uint64(0)
	for i, c := range counts {
		seen += c
		if seen >= need {
			hi := after.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.pauses.Buckets[i]
			}
			return hi * 1000
		}
	}
	return 0
}

// stamp is the environment every result is recorded against.
type stamp struct {
	Commit      string  `json:"commit"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Users       int     `json:"users"`
	Actions     int     `json:"actions"`
	UCEntries   int64   `json:"uc_entries"`
	HeapBytes   int64   `json:"rowstore_heap_bytes"`
	MappedBytes int64   `json:"rowstore_mapped_bytes"`
	RowStore    string  `json:"rowstore"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a source tree without VCS metadata reports "unknown").
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

func newStamp() stamp {
	return stamp{
		Commit:     commit(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}
