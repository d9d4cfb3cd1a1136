package main

import (
	"math"
	"sort"
)

// dist is a bag of samples of one quantity. Quantiles use the nearest-rank
// rule on a sorted copy, so every reported value is one that was measured.
type dist []float64

func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 < q <= 1) by nearest rank, or 0 for
// an empty sample.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := d.sorted()
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func (d dist) max() float64 {
	m := 0.0
	for _, v := range d {
		m = math.Max(m, v)
	}
	return m
}

// percentileLadder is the set of percentiles a tail report picks from.
var percentileLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// supports reports whether n samples have at least ten beyond percentile
// p, i.e. n*(1-p/100) >= 10.
func supports(n int, p float64) bool {
	// Round to absorb float error in 1-p/100 (e.g. n=1000 at p99).
	return math.Round(float64(n)*(100-p)*1e6)/1e8 >= 10
}

// highestSupported returns the highest percentile on the ladder that n
// samples support. ok is false when they do not support even the median.
func highestSupported(n int) (p float64, ok bool) {
	for _, c := range percentileLadder {
		if supports(n, c) {
			p, ok = c, true
		}
	}
	return p, ok
}

// median of a small set of repeated measurements (set-up times).
func median(v []float64) float64 { return dist(v).quantile(0.5) }
