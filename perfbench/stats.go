package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile; with nearest-rank p99 it withholds the tail below 1000
// samples.
const minBeyond = 10

// samples is a set of durations summarised by nearest-rank quantiles.
type samples []time.Duration

// quantile returns the nearest-rank p-th percentile (0 < p ≤ 100) and
// whether at least minBeyond samples lie beyond it. The median is always
// reported when there is any sample; an empty set reports false.
func (s samples) quantile(p float64) (time.Duration, bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], p <= 50 || n-rank >= minBeyond
}

// ms is a nearest-rank quantile in milliseconds; a withheld quantile
// reads 0.
func (s samples) ms(p float64) float64 {
	d, ok := s.quantile(p)
	if !ok {
		return 0
	}
	return float64(d) / float64(time.Millisecond)
}

// total sums the samples.
func (s samples) total() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// median returns the middle value of xs (mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// share returns num/den, or 0 for an empty denominator.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
