package main

import (
	"math"
	"slices"
	"time"
)

// tailLadder is the percentiles the tail is chosen from, highest first;
// the median is the fallback.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest ladder percentile that leaves at
// least 10 of n samples above its nearest-rank position; it falls back to
// the median when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples: ceil(p/100 * n), at least 1.
func rank(p float64, n int) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// percentile returns the nearest-rank percentile p of xs (0 when empty).
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(p, len(s))-1]
}

// median returns the median of xs (the mean of the middle two for even
// counts; 0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
