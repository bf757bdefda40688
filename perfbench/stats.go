package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a reported percentile must leave
// at least this many samples above it, or it says nothing about the
// tail.
const minBeyond = 10

// quantile returns the q-quantile of xs, interpolating linearly
// between the two closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// supportedQuantile returns the highest quantile no greater than want
// that leaves at least minBeyond of n samples above it: want itself
// when n is large enough (n >= 1000 for p99), otherwise the rank the
// sample count supports, and 0 when no rank does.
func supportedQuantile(n int, want float64) float64 {
	if n <= minBeyond {
		return 0
	}
	q := float64(n-minBeyond) / float64(n)
	if q > want {
		q = want
	}
	return q
}

// tailQuantile is the job_p99_ms rule: the highest percentile up to
// p99 with minBeyond samples above it, but never below the median,
// which a run with too few samples for any tail falls back to. It
// returns the value and the quantile used.
func tailQuantile(xs []float64) (float64, float64) {
	q := max(supportedQuantile(len(xs), 0.99), 0.5)
	return quantile(xs, q), q
}

// samplesBeyond counts the samples strictly greater than v.
func samplesBeyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}
