package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
)

// spreadStats is one metric's distribution over repeated runs.
type spreadStats struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median, the figure each end-to-end bound in
	// BENCHMARK.json must stay above.
	Spread float64 `json:"spread"`
	MaxMin float64 `json:"max_min"`
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the definition the quartile spreads behind the
// bounds in BENCHMARK.json use. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n, m := 4, len(d)+1
	out := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), len(d)-1)
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return out[0], out[1], out[2]
}

func spreadOf(xs []float64) spreadStats {
	q1, q2, q3 := quartiles(xs)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	s := spreadStats{Median: q2, Q1: q1, Q3: q3, MaxMin: hi / lo}
	if q2 != 0 {
		s.Spread = (q3 - q1) / q2
	}
	return s
}

// runSteady runs the untraced workload n times, seeds seed..seed+n-1, each
// in its own process, and prints every metric's median, quartiles,
// quartile spread and max/min ratio, then the same as one JSON line.
func runSteady(opts options, n int) error {
	if n < 2 {
		return fmt.Errorf("--steady needs at least 2 runs")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		seed := opts.seed + int64(i)
		cmd := exec.Command(exe, "--workload", opts.workload, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(opts.seconds), "--trace", "0", "--root", opts.root)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %d was not correct", seed)
		}
		fmt.Fprintf(os.Stderr, "seed %d: %s\n", seed, lines[len(lines)-1])
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	report := map[string]spreadStats{}
	fmt.Printf("%-16s %-6s %12s %12s %12s %8s %8s\n", "metric", "unit", "median", "q1", "q3", "spread", "max/min")
	for _, name := range names {
		s := spreadOf(values[name])
		report[name] = s
		fmt.Printf("%-16s %-6s %12.4f %12.4f %12.4f %8.4f %8.3f\n", name, units[name], s.Median, s.Q1, s.Q3, s.Spread, s.MaxMin)
	}
	line, err := json.Marshal(map[string]any{"workload": opts.workload, "runs": n, "seconds": opts.seconds, "metrics": report})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
