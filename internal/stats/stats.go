// Package stats implements the small statistical toolkit the experiments
// need: exact percentiles over collected samples, online mean/variance, and
// fixed-width histograms. The survey's question Q3(e) asks sites for
// min/median/max and the 10th/25th/75th/90th percentiles of job size and
// wallclock time, so those quantiles get first-class treatment.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations for exact quantile queries.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddInt appends an integer observation.
func (s *Sample) AddInt(x int) { s.Add(float64(x)) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 {
	t := 0.0
	for _, x := range s.xs {
		t += x
	}
	return t
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.xs))
}

// Stddev returns the sample standard deviation, or 0 with < 2 observations.
func (s *Sample) Stddev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between closest ranks. An empty sample yields 0.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min()
	}
	if q >= 1 {
		return s.Max()
	}
	s.sort()
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// SurveyQuantiles holds the exact statistics question Q3(e) of the survey
// asks each center to report.
type SurveyQuantiles struct {
	Min, P10, P25, Median, P75, P90, Max float64
}

// Q3e computes the survey's requested quantile set.
func (s *Sample) Q3e() SurveyQuantiles {
	return SurveyQuantiles{
		Min:    s.Min(),
		P10:    s.Quantile(0.10),
		P25:    s.Quantile(0.25),
		Median: s.Median(),
		P75:    s.Quantile(0.75),
		P90:    s.Quantile(0.90),
		Max:    s.Max(),
	}
}

func (q SurveyQuantiles) String() string {
	return fmt.Sprintf("min=%.1f p10=%.1f p25=%.1f med=%.1f p75=%.1f p90=%.1f max=%.1f",
		q.Min, q.P10, q.P25, q.Median, q.P75, q.P90, q.Max)
}

// Online tracks mean and variance incrementally (Welford) without retaining
// samples; used for long-running power telemetry.
type Online struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add incorporates an observation.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the observation count.
func (o *Online) N() int64 { return o.n }

// Mean returns the running mean.
func (o *Online) Mean() float64 { return o.mean }

// Min returns the smallest observation seen.
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation seen.
func (o *Online) Max() float64 { return o.max }

// Variance returns the running sample variance.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Stddev returns the running sample standard deviation.
func (o *Online) Stddev() float64 { return math.Sqrt(o.Variance()) }

// MAPE returns the mean absolute percentage error between predictions and
// actuals, skipping pairs whose actual value is zero. It returns 0 when no
// valid pairs exist. Used to score the power predictors (E8).
func MAPE(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic("stats: MAPE length mismatch")
	}
	sum, n := 0.0, 0
	for i := range pred {
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs(pred[i]-actual[i]) / math.Abs(actual[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
