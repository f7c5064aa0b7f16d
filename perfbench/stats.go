package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile (0..1) of xs; NaN for
// an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[lo], 1) {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailBeyond is how many samples the reported tail leaves above it.
const tailBeyond = 10

// tail is the highest percentile of xs that has at least tailBeyond
// samples beyond it — the 11th-largest sample. With fewer samples than
// that it is the maximum, the only order statistic left.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if len(s) <= tailBeyond {
		return s[len(s)-1]
	}
	return s[len(s)-1-tailBeyond]
}

// tailPct names the percentile tail picks for an n-sample pass.
func tailPct(n int) float64 {
	if n <= tailBeyond {
		return 100
	}
	return 100 * float64(n-tailBeyond) / float64(n)
}

// withFailures appends one +Inf per failed unit: a failed operation
// misses every latency limit.
func withFailures(xs []float64, failed int) []float64 {
	out := append([]float64(nil), xs...)
	for i := 0; i < failed; i++ {
		out = append(out, math.Inf(1))
	}
	return out
}
