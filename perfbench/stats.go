package main

import (
	"fmt"
	"math"
	"sort"

	"prophet/internal/obs"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p90 over 50 samples rests on 5 values and moves with
// every outlier, so it is refused instead of reported.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of an
// ascending sample. It refuses a percentile with fewer than minTail
// samples beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of an empty sample", 100*p)
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - rank - 1; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, beyond, minTail)
	}
	return sorted[rank], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// histQuantile estimates the p-quantile of an obs histogram from its
// power-of-two buckets, interpolating linearly inside the bucket that
// holds the rank. Bucket bound b counts values in [b/2, b).
func histQuantile(h obs.HistogramSnapshot, p float64) float64 {
	if h.Count == 0 {
		return 0
	}
	bounds := make([]int64, 0, len(h.Buckets))
	for b := range h.Buckets {
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	target := p * float64(h.Count)
	var seen float64
	for _, b := range bounds {
		n := float64(h.Buckets[b])
		if seen+n >= target {
			lo, hi := float64(b)/2, float64(b)
			if b <= 1 {
				lo = 0
			}
			return lo + (hi-lo)*(target-seen)/n
		}
		seen += n
	}
	return float64(h.Max)
}

// histDelta returns the observations h gained since before.
func histDelta(h, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Count: h.Count - before.Count, Sum: h.Sum - before.Sum, Max: h.Max, Buckets: map[int64]int64{}}
	for b, n := range h.Buckets {
		if n -= before.Buckets[b]; n > 0 {
			d.Buckets[b] = n
		}
	}
	return d
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
