package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 needs at least 1,000 samples to be reported as such.
const minBeyond = 10

// tailLadder is the set of tail percentiles tailPercentile chooses from,
// highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// dist is a sorted sample of durations in milliseconds.
type dist []float64

// quantile returns the nearest-rank q-quantile of the sample and how many
// samples lie beyond that rank. An empty sample gives (0, 0).
func (d dist) quantile(q float64) (v float64, beyond int) {
	n := len(d)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return d[rank-1], n - rank
}

func (d dist) p50() float64 {
	v, _ := d.quantile(0.5)
	return v
}

// tailPercentile returns the highest ladder percentile that has at least
// minBeyond samples beyond it, with its value. ok is false when even the
// median lacks that many (fewer than 20 samples).
func (d dist) tailPercentile() (q, v float64, ok bool) {
	for _, q := range tailLadder {
		if v, beyond := d.quantile(q); beyond >= minBeyond {
			return q, v, true
		}
	}
	return 0, 0, false
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean returns the geometric mean of positive samples; a sample below
// floor counts as floor.
func geomean(xs []float64, floor float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(math.Max(x, floor))
	}
	return math.Exp(s / float64(len(xs)))
}

func median(xs []float64) float64 {
	s := append(dist(nil), xs...)
	sort.Float64s(s)
	return s.p50()
}
