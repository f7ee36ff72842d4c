package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of an ascending slice by
// linear interpolation between closest ranks. An empty slice yields 0.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because
// that is what the acceptance check computes spreads with. It needs at
// least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// percentileLadder lists the tail percentiles the benchmark reports.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// highestSupportedPercentile returns the highest ladder percentile that
// still has at least ten of n samples beyond it, or 0 when not even the
// median does: a percentile with fewer samples above it is one outlier,
// not a measurement.
func highestSupportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p) >= 1000*(1-1e-12) { // tolerate float rounding of 100-p
			best = p
		}
	}
	return best
}

func millis(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / 1e6
	}
	return out
}

// mix is a splitmix64 draw keyed by (seed, n). It is stateless, so any
// pass's parameters can be regenerated without replaying a stream.
func mix(seed, n uint64) uint64 {
	z := seed + (n+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
