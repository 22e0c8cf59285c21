package ris

import (
	"math"

	"credist/internal/graph"
)

// Z99 is the two-sided 99% normal quantile used by Estimate's default
// Wilson interval. It is a fixed constant (not computed at runtime) so the
// interval — and therefore every adaptive stopping decision built on it —
// is bit-identical across platforms and runs.
const Z99 = 2.5758293035489004

// WilsonInterval returns the Wilson score interval [lo, hi] for the
// success probability of hits out of samples Bernoulli trials at normal
// quantile z. Unlike the plain normal interval it stays inside [0, 1] and
// behaves sensibly at hit fractions near 0 or 1 — exactly the regime
// spread queries live in, where a seed set hits a few percent of the
// samples.
func WilsonInterval(hits, samples int, z float64) (lo, hi float64) {
	if samples <= 0 {
		return 0, 1
	}
	m := float64(samples)
	p := float64(hits) / m
	z2 := z * z
	denom := 1 + z2/m
	center := (p + z2/(2*m)) / denom
	half := z * math.Sqrt(p*(1-p)/m+z2/(4*m*m)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// HoeffdingInterval returns the distribution-free Hoeffding interval
// [lo, hi] for the success probability at confidence 1-delta:
// phat +/- sqrt(ln(2/delta) / (2*samples)). It is much wider than Wilson
// for the small hit fractions typical of spread queries, but its coverage
// guarantee needs no normal approximation; callers wanting hard bounds
// can trade samples for it.
func HoeffdingInterval(hits, samples int, delta float64) (lo, hi float64) {
	if samples <= 0 {
		return 0, 1
	}
	if delta <= 0 || delta >= 1 {
		delta = 0.01
	}
	m := float64(samples)
	p := float64(hits) / m
	half := math.Sqrt(math.Log(2/delta) / (2 * m))
	lo, hi = p-half, p+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Estimate is a spread estimate with its confidence interval, all in
// spread units (the hit-fraction interval scaled by Roots()).
type Estimate struct {
	// Spread is the point estimate Roots() * Hits/Samples.
	Spread float64
	// Low and High bound the Wilson 99% interval around Spread.
	Low, High float64
	// Eps is the achieved relative half-width (High-Low)/(2*Spread):
	// the epsilon this estimate satisfies. +Inf when Spread is zero.
	Eps float64
	// Hits is how many samples the seed set covers, out of Samples.
	Hits, Samples int
}

// Estimate returns the spread estimate of the seed set with its Wilson
// 99% confidence interval. The result is a pure function of the
// collection contents and the seed set — integer hit counts and fixed
// constants, no randomness — so it is bit-identical across worker counts,
// runs, and snapshot restores.
func (c *Collection) Estimate(seeds []graph.NodeID) Estimate {
	est := Estimate{Samples: c.NumSets(), Eps: math.Inf(1)}
	if est.Samples == 0 {
		return est
	}
	est.Hits = c.hitCount(seeds)
	scale := float64(c.roots)
	est.Spread = scale * float64(est.Hits) / float64(est.Samples)
	lo, hi := WilsonInterval(est.Hits, est.Samples, Z99)
	est.Low, est.High = scale*lo, scale*hi
	if est.Spread > 0 {
		est.Eps = (est.High - est.Low) / (2 * est.Spread)
	}
	return est
}
