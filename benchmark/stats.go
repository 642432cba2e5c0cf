package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples sorted ascending: the smallest sample with at least p percent
// of the samples at or below it. Raw samples, no interpolation, no
// buckets — the BENCH_server.json p99 that read 516µs on every run was
// a histogram bucket edge, which is what this replaces.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[percentileRank(n, p)-1]
}

// percentileRank is the 1-based nearest-rank index of the p-th
// percentile among n samples.
func percentileRank(n int, p float64) int {
	// The epsilon keeps 99.9% of 10,000 at rank 9990: the product is not
	// exact in floating point and must not round up to the next rank.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailPercentiles are the candidates highestSupported chooses from.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// highestSupported returns the highest tail percentile that still has at
// least ten samples beyond it among n samples (0 when even the median
// has fewer): a p99 read off 300 samples is three data points, not a
// percentile.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-percentileRank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// sortedCopy returns samples sorted ascending without touching the
// caller's slice.
func sortedCopy(samples []int64) []int64 {
	out := append([]int64(nil), samples...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianF is the median of vs (mean of the two middle values for even
// counts); vs is not modified.
func medianF(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median — the exclusive-method quartiles Python's
// statistics.quantiles(values, n=4) returns, which is what the driver
// computes. Fewer than two values have no spread.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// Position k*(n+1)/4 (1-based), linearly interpolated and
		// clamped to the sample range.
		pos := float64(k) * float64(n+1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	med := medianF(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// usOf converts nanoseconds to microseconds.
func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// msOf converts nanoseconds to milliseconds.
func msOf(ns int64) float64 { return float64(ns) / 1e6 }
