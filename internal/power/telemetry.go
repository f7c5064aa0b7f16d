package power

import (
	"epajsrm/internal/metrics"
	"epajsrm/internal/prof"
	"epajsrm/internal/simulator"
	"epajsrm/internal/stats"
	"epajsrm/internal/trace"
)

// Reading is one telemetry sample of whole-system power.
type Reading struct {
	At    simulator.Time
	ITW   float64 // compute (IT) draw
	CoolW float64 // cooling overhead if a facility model is attached
}

// Telemetry periodically samples system power, the way every surveyed site
// runs continuous power/energy monitoring (STFC: "continuously collecting
// power and energy system monitoring info, data center, machine and job
// levels"). Samples feed both the online statistics and a bounded series
// kept for report plotting.
//
// Real sensor paths fail: the collector loses samples (dropout) or keeps
// reporting the last value it saw (stuck sensor). Both are modelled as
// outage windows toggled by SetOutage — typically driven by
// fault.Injector — and consumers detect either failure through Stale,
// which tracks the age of the last *genuine* sample.
type Telemetry struct {
	Sys      *System
	Fac      *Facility // optional
	Period   simulator.Time
	MaxKeep  int
	Series   []Reading
	ITStats  stats.Online
	SiteStat stats.Online

	// Dropped counts sampling instants lost to an outage (including
	// stuck-value instants, which record a stale repeat instead of a fresh
	// reading). A standalone metrics counter so the manager's registry can
	// adopt it (wired under telemetry.dropped).
	Dropped *metrics.Counter

	// Tr, when non-nil, receives one power-track counter sample per
	// genuine reading plus dropped/stuck instants.
	Tr *trace.Tracer

	// Prof, when non-nil, charges sampling to the prof.Telemetry phase.
	// Wired by core.Manager.AttachProfiler.
	Prof *prof.Profiler

	outage   bool
	stuck    bool
	lastGood Reading
	haveGood bool

	stop func()
}

// NewTelemetry creates a sampler with the given period; maxKeep bounds the
// retained series (older samples are dropped pairwise to stay O(maxKeep)).
func NewTelemetry(sys *System, fac *Facility, period simulator.Time, maxKeep int) *Telemetry {
	if period <= 0 {
		period = 30 * simulator.Second
	}
	if maxKeep <= 0 {
		maxKeep = 4096
	}
	return &Telemetry{Sys: sys, Fac: fac, Period: period, MaxKeep: maxKeep, Dropped: metrics.NewCounter()}
}

// Start begins sampling on eng. It returns the Telemetry for chaining.
func (t *Telemetry) Start(eng *simulator.Engine) *Telemetry {
	t.stop = eng.Every(t.Period, "telemetry", func(now simulator.Time) {
		t.SampleNow(now)
	})
	return t
}

// Stop halts sampling. It is idempotent and safe to call before Start.
func (t *Telemetry) Stop() {
	if t.stop != nil {
		t.stop()
		t.stop = nil
	}
}

// SetOutage begins or ends a sensor outage window. While the outage holds,
// stuck=false drops samples entirely and stuck=true repeats the last good
// reading with a fresh timestamp (the classic stuck-sensor failure); either
// way the last genuine sample stops advancing, so Stale eventually fires.
func (t *Telemetry) SetOutage(on, stuck bool) {
	t.outage = on
	t.stuck = on && stuck
}

// OutageActive reports whether an outage window is in effect.
func (t *Telemetry) OutageActive() bool { return t.outage }

// LastGood returns the most recent genuine reading (not a stuck repeat)
// and whether one exists yet.
func (t *Telemetry) LastGood() (Reading, bool) { return t.lastGood, t.haveGood }

// Stale reports whether the last genuine sample is older than threshold at
// time now. threshold <= 0 means three sampling periods — late enough that
// one missed sample does not trip it. Policies acting on power readings
// must degrade to a conservative static posture while Stale holds rather
// than trust data this old.
func (t *Telemetry) Stale(now, threshold simulator.Time) bool {
	if threshold <= 0 {
		threshold = 3 * t.Period
	}
	if !t.haveGood {
		return now > threshold
	}
	return now-t.lastGood.At > threshold
}

// Staleness returns the age in virtual seconds of the most recent genuine
// reading at time now, or -1 before any reading exists. It is the SLI
// behind the watchdog's telemetry-staleness rules: Stale gives policies a
// boolean posture, Staleness gives observers the continuous series.
func (t *Telemetry) Staleness(now simulator.Time) float64 {
	if !t.haveGood {
		return -1
	}
	return float64(now - t.lastGood.At)
}

// SampleNow takes one sample immediately. During an outage the physics
// still advances but no genuine reading is produced; a stuck sensor
// appends a repeat of the last good value so downstream consumers that
// ignore staleness see exactly the wrong number a stuck sensor reports.
func (t *Telemetry) SampleNow(now simulator.Time) Reading {
	t.Sys.Advance(now)
	if t.Prof != nil {
		t.Prof.Enter(prof.Telemetry)
		defer t.Prof.Exit()
	}
	if t.outage {
		t.Dropped.Inc()
		if t.stuck && t.haveGood {
			r := Reading{At: now, ITW: t.lastGood.ITW, CoolW: t.lastGood.CoolW}
			t.record(r)
			if t.Tr != nil {
				t.Tr.Instant(trace.PidPower, 0, "telemetry-stuck", now,
					trace.Arg{Key: "repeat_w", Val: r.ITW})
			}
			return r
		}
		if t.Tr != nil {
			t.Tr.Instant(trace.PidPower, 0, "telemetry-dropped", now)
		}
		return Reading{At: now}
	}
	it := t.Sys.TotalPower()
	cool := 0.0
	if t.Fac != nil {
		cool = t.Fac.CoolingPower(now, it)
	}
	r := Reading{At: now, ITW: it, CoolW: cool}
	t.lastGood = r
	t.haveGood = true
	t.record(r)
	if t.Tr != nil {
		t.Tr.Counter(trace.PidPower, "it_power_w", now, it)
	}
	return r
}

// record appends a reading to the stats and the bounded series. The series
// slab is sized to its bound up front: the halving below then recycles one
// backing array for the life of the run instead of regrowing it.
func (t *Telemetry) record(r Reading) {
	t.ITStats.Add(r.ITW)
	t.SiteStat.Add(r.ITW + r.CoolW)
	if t.Series == nil {
		t.Series = make([]Reading, 0, t.MaxKeep+1)
	}
	t.Series = append(t.Series, r)
	if len(t.Series) > t.MaxKeep {
		// Halve resolution: keep every other sample.
		kept := t.Series[:0]
		for i := 0; i < len(t.Series); i += 2 {
			kept = append(kept, t.Series[i])
		}
		t.Series = kept
	}
}
