package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, x := range []float64{5, 1, 3, 2, 4} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max = %f/%f", s.Min(), s.Max())
	}
	if s.Mean() != 3 {
		t.Fatalf("mean = %f", s.Mean())
	}
	if s.Median() != 3 {
		t.Fatalf("median = %f", s.Median())
	}
	if math.Abs(s.Stddev()-math.Sqrt(2.5)) > 1e-9 {
		t.Fatalf("stddev = %f", s.Stddev())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 || s.Stddev() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	var s Sample
	for i := 1; i <= 4; i++ {
		s.AddInt(i) // 1 2 3 4
	}
	if got := s.Quantile(0.5); got != 2.5 {
		t.Fatalf("median of 1..4 = %f, want 2.5", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %f", got)
	}
	if got := s.Quantile(1); got != 4 {
		t.Fatalf("q1 = %f", got)
	}
}

func TestQuantileMonotonic(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		var s Sample
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileWithinBounds(t *testing.T) {
	f := func(xs []float64, qRaw uint8) bool {
		if len(xs) == 0 {
			return true
		}
		var s Sample
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		q := float64(qRaw) / 255
		v := s.Quantile(q)
		return v >= s.Min()-1e-9 && v <= s.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQ3eOrdering(t *testing.T) {
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Add(float64(i * i % 977))
	}
	q := s.Q3e()
	vals := []float64{q.Min, q.P10, q.P25, q.Median, q.P75, q.P90, q.Max}
	if !sort.Float64sAreSorted(vals) {
		t.Fatalf("Q3e quantiles not ordered: %+v", q)
	}
}

func TestOnlineMatchesSample(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) < 2 {
			return true
		}
		var s Sample
		var o Online
		for _, x := range xs {
			if math.IsNaN(x) || math.Abs(x) > 1e8 {
				return true
			}
			s.Add(x)
			o.Add(x)
		}
		if math.Abs(s.Mean()-o.Mean()) > 1e-6*(1+math.Abs(s.Mean())) {
			return false
		}
		if math.Abs(s.Stddev()-o.Stddev()) > 1e-5*(1+s.Stddev()) {
			return false
		}
		return o.Min() == s.Min() && o.Max() == s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMAPE(t *testing.T) {
	pred := []float64{110, 90, 100}
	actual := []float64{100, 100, 100}
	if got := MAPE(pred, actual); math.Abs(got-0.2/3) > 1e-12 {
		t.Fatalf("MAPE = %f", got)
	}
}

func TestMAPESkipsZeroActuals(t *testing.T) {
	if got := MAPE([]float64{5, 110}, []float64{0, 100}); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("MAPE with zero actual = %f, want 0.1", got)
	}
	if got := MAPE([]float64{5}, []float64{0}); got != 0 {
		t.Fatalf("MAPE with only zero actuals = %f, want 0", got)
	}
}

func TestMAPEPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched lengths")
		}
	}()
	MAPE([]float64{1}, []float64{1, 2})
}
