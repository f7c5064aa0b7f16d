package power

// WindowMeter checks the defining property of Intel's Running Average Power
// Limit (RAPL, David et al. [13]) — the cap binds the *average* over the
// window, not the instant. Feed it (power, duration) segments and query
// Violated.
type WindowMeter struct {
	CapW      float64
	WindowSec float64
	segs      []meterSeg
	clock     float64
}

type meterSeg struct {
	start, end float64
	powerW     float64
}

// NewWindowMeter returns a meter for one cap and window length.
func NewWindowMeter(capW, windowSec float64) *WindowMeter {
	if windowSec <= 0 {
		windowSec = 1
	}
	return &WindowMeter{CapW: capW, WindowSec: windowSec}
}

// Observe appends a constant-power segment of the given duration.
func (w *WindowMeter) Observe(powerW, durSec float64) {
	if durSec <= 0 {
		return
	}
	w.segs = append(w.segs, meterSeg{start: w.clock, end: w.clock + durSec, powerW: powerW})
	w.clock += durSec
	// Trim segments that ended before the current window.
	cutoff := w.clock - w.WindowSec
	trim := 0
	for trim < len(w.segs) && w.segs[trim].end <= cutoff {
		trim++
	}
	w.segs = w.segs[trim:]
}

// WindowAverage returns the average power over the trailing window.
func (w *WindowMeter) WindowAverage() float64 {
	if w.clock == 0 {
		return 0
	}
	lo := w.clock - w.WindowSec
	if lo < 0 {
		lo = 0
	}
	span := w.clock - lo
	if span <= 0 {
		return 0
	}
	e := 0.0
	for _, s := range w.segs {
		a, b := s.start, s.end
		if a < lo {
			a = lo
		}
		if b > a {
			e += s.powerW * (b - a)
		}
	}
	return e / span
}

// Violated reports whether the trailing window average exceeds the cap
// (uncapped meters never violate).
func (w *WindowMeter) Violated() bool {
	return w.CapW > 0 && w.WindowAverage() > w.CapW+1e-9
}
