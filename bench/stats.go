package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice: the smallest sample with at least p of the samples at or
// below it. An empty slice reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle sample (the mean of the two middle ones for an
// even count) without reordering vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is the pass-to-pass range as a share of the median: (max-min)/median.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := sortedCopy(vs)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// sortedMS converts durations to ascending milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// ratio is a/b, reading 0 when b is 0, for shares of counters that may not
// have moved.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
