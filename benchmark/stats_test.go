package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    float64
		want int64
	}{
		{50, 50}, // ceil(0.5*10) = 5th
		{90, 90},
		{99, 100}, // ceil(9.9) = 10th
		{100, 100},
		{1, 10},
		{10, 10},
		{10.1, 20},
	} {
		if got := percentile(ten, tc.p); got != tc.want {
			t.Errorf("percentile(ten, %g) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
	// Raw samples, never interpolated: the result is always a sample.
	odd := []int64{1, 2, 1000}
	if got := percentile(odd, 50); got != 2 {
		t.Errorf("median of %v = %d, want 2", odd, got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // median is the 10th: 9 beyond
		{20, 50},   // median is the 10th: 10 beyond
		{99, 50},   // p90 is the 90th: 9 beyond
		{100, 90},  // p90 is the 90th: 10 beyond
		{999, 90},  // p99 is the 990th: 9 beyond
		{1000, 99}, // p99 is the 990th: 10 beyond
		{10000, 99.9},
		{100000, 99.99},
		{128892, 99.99},
	} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([...], n=4) on these ten values gives
	// [2.75, 5.5, 8.25]; the spread is (8.25-2.75)/5.5.
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(vs), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// Order must not matter, and the input must not be reordered.
	shuffled := []float64{7, 1, 10, 3, 5, 9, 2, 8, 4, 6}
	if got := quartileSpread(shuffled); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread(shuffled) = %v, want 1", got)
	}
	if shuffled[0] != 7 || shuffled[9] != 6 {
		t.Errorf("quartileSpread reordered its input: %v", shuffled)
	}
	// quantiles([100, 101, 102, 103, 110], n=4) = [100.5, 102, 106.5].
	if got, want := quartileSpread([]float64{100, 101, 102, 103, 110}), 6.0/102; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("one value has spread %v, want 0", got)
	}
}

func TestMedianF(t *testing.T) {
	if got := medianF([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := medianF([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "tx_p50_us", Better: "lower", Bound: 0.05}
	higher := metricSpec{Name: "commit_tps", Better: "higher", Bound: 0.05}
	steady := func(center float64) []float64 {
		return []float64{center * 0.995, center, center * 1.005, center * 0.998, center * 1.002}
	}
	for _, tc := range []struct {
		name     string
		spec     metricSpec
		old, new []float64
		want     string
	}{
		{"same", lower, steady(100), steady(100), "unchanged"},
		{"slower latency", lower, steady(100), steady(110), "regressed"},
		{"faster latency", lower, steady(100), steady(90), "improved"},
		{"small gain above the noise", lower, steady(100), steady(98), "improved"},
		{"within bound", lower, steady(100), steady(103), "unchanged"},
		{"less throughput", higher, steady(1000), steady(900), "regressed"},
		{"more throughput", higher, steady(1000), steady(1100), "improved"},
		{"noisy", lower, []float64{80, 100, 120, 90, 110}, steady(100), "unresolved"},
		{"one run each, small gain", lower, []float64{100}, []float64{98}, "unchanged"},
		{"one run each, loss", lower, []float64{100}, []float64{106}, "regressed"},
	} {
		if _, _, _, _, got := verdict(tc.spec, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
