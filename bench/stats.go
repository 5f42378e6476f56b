package main

import (
	"math"
	"time"

	"exbox/internal/mathx"
)

func medianDur(v []time.Duration) time.Duration {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return time.Duration(mathx.Median(f))
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99, 95, 90, 75}

// tail picks the 99th percentile of sorted, or failing that the highest
// candidate that still has at least ten samples beyond it, so the reported
// tail is never one outlier. It returns
// the percentile chosen and its value; with fewer than 40 samples no
// candidate qualifies and it reports the median as percentile 50.
func tail(sorted []float64) (pct, value float64) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		idx := percentileIndex(n, p)
		if n-1-idx >= 10 {
			return p, sorted[idx]
		}
	}
	return 50, percentile(sorted, 50)
}

// percentileIndex is the nearest-rank index of the p-th percentile in a
// sorted sample of n.
func percentileIndex(n int, p float64) int {
	// The small subtraction keeps a product that should be whole, such as
	// 1000 × 99 / 100, from rounding up a rank.
	idx := int(math.Ceil(float64(n)*p/100-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[percentileIndex(len(sorted), p)]
}
