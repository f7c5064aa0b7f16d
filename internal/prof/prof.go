// Package prof is the control loop's phase-attribution profiler: a
// deterministic, allocation-free accounting of where a run's *wall
// clock* goes, split across a fixed taxonomy of named phases (event
// dispatch, scheduling passes with the reservation/backfill split,
// job lifecycle bookkeeping, power integration, telemetry sampling,
// checkpoint bookkeeping, the scale-harness arrival pump).
//
// The design mirrors the tracer's zero-cost-when-off contract: every
// instrumentation site holds a possibly-nil *Profiler and calls
// Enter/Exit unconditionally — a nil receiver makes both methods a
// single predictable branch, so a run without profiling pays one
// nil-check per site and nothing else (benchmarked and gated in CI).
// When enabled, each phase transition costs exactly one monotonic
// clock read — an offset from the profiler's creation by time.Since,
// which unlike time.Now skips the wall clock: Enter charges the elapsed
// segment to the phase being left behind (the parent, if any) and Exit
// charges it to the phase being closed, so nested phases attribute
// *exclusively* — a scheduling pass that spends most of its time inside
// the reservation computation reports that time under sched_reservation,
// not twice.
//
// Determinism contract: the profiler observes the run, never steers
// it. It takes no locks, schedules no events, and its measurements
// are not consulted by any control-loop decision, so same-seed
// reports are byte-identical with profiling on or off. The profile
// itself is wall-clock data and therefore machine-dependent; only its
// *shape* (phase names, field order, which phases appear) is
// deterministic.
//
// Like the metrics registry, a Profiler is single-goroutine: it
// belongs to one engine's control loop. Cross-thread readers (the ops
// plane) must hold whatever lock serializes that loop.
package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"epajsrm/internal/metrics"
)

// Phase identifies one slice of the control-loop taxonomy.
type Phase uint8

// The phase taxonomy. Events is the engine's dispatch loop and acts
// as the root: every other phase runs nested inside it, so the
// events row reads as "dispatch + event bodies no subsystem claimed".
const (
	Events           Phase = iota // engine dispatch loop, exclusive of claimed sub-phases
	SchedPass                     // scheduling pass: candidate scan, view build, start loop
	SchedReservation              // EASY/Conservative reservation computation
	SchedBackfill                 // EASY backfill walk over the blocked queue
	Jobs                          // job lifecycle bookkeeping: start/finish/kill/fail
	Power                         // power.System integration: energy advance, draw refresh
	Telemetry                     // telemetry sampling
	Checkpoint                    // checkpoint/restore bookkeeping
	Pump                          // scale-harness arrival pump
	numPhases
)

var phaseNames = [numPhases]string{
	Events:           "events",
	SchedPass:        "sched_pass",
	SchedReservation: "sched_reservation",
	SchedBackfill:    "sched_backfill",
	Jobs:             "jobs",
	Power:            "power",
	Telemetry:        "telemetry",
	Checkpoint:       "checkpoint",
	Pump:             "pump",
}

// Name returns the phase's stable report name.
func (ph Phase) Name() string {
	if ph < numPhases {
		return phaseNames[ph]
	}
	return fmt.Sprintf("phase-%d", uint8(ph))
}

// NumPhases is the size of the taxonomy, exported for tests.
const NumPhases = int(numPhases)

// Profiler accumulates exclusive wall time and invocation counts per
// phase. The zero value is NOT usable — a disabled profiler is a nil
// pointer, which every method tolerates; construct live ones with New.
type Profiler struct {
	base   time.Time     // creation instant; offsets are measured from it
	t0     time.Duration // offset of the last phase transition
	stack  []Phase
	totals [numPhases]time.Duration
	calls  [numPhases]int64
}

// New returns an enabled profiler with an empty phase stack.
func New() *Profiler {
	return &Profiler{base: time.Now(), stack: make([]Phase, 0, 16)}
}

// Enter opens a phase, pausing the enclosing phase (if any) so time
// attributes exclusively. Safe on a nil receiver (no-op).
func (p *Profiler) Enter(ph Phase) {
	if p == nil {
		return
	}
	now := time.Since(p.base)
	if n := len(p.stack); n > 0 {
		p.totals[p.stack[n-1]] += now - p.t0
	}
	p.stack = append(p.stack, ph)
	p.calls[ph]++
	p.t0 = now
}

// Exit closes the innermost open phase, charging it the elapsed
// segment and resuming its parent. Safe on a nil receiver, and on an
// empty stack (an unmatched Exit is ignored rather than corrupting
// the books).
func (p *Profiler) Exit() {
	if p == nil {
		return
	}
	n := len(p.stack)
	if n == 0 {
		return
	}
	now := time.Since(p.base)
	p.totals[p.stack[n-1]] += now - p.t0
	p.stack = p.stack[:n-1]
	p.t0 = now
}

// Current names the innermost open phase, "idle" when the stack is
// empty, and "off" on a nil profiler — the string the per-run
// /healthz detail reports.
func (p *Profiler) Current() string {
	if p == nil {
		return "off"
	}
	if n := len(p.stack); n > 0 {
		return p.stack[n-1].Name()
	}
	return "idle"
}

// TotalSeconds is the sum of all phase wall time.
func (p *Profiler) TotalSeconds() float64 {
	if p == nil {
		return 0
	}
	var t time.Duration
	for _, d := range p.totals {
		t += d
	}
	return t.Seconds()
}

// PhaseStat is one row of a profile report. Share is the phase's
// fraction of the profiled total (0..1), not of the process's wall
// clock — coverage against wall clock is the caller's division.
type PhaseStat struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Calls   int64   `json:"calls"`
	Share   float64 `json:"share"`
}

// Snapshot reports every phase in taxonomy order, including phases
// with zero observations (a report that silently omits an empty phase
// is indistinguishable from one that never instrumented it). Returns
// nil on a nil profiler.
func (p *Profiler) Snapshot() []PhaseStat {
	if p == nil {
		return nil
	}
	total := p.TotalSeconds()
	out := make([]PhaseStat, numPhases)
	for ph := Phase(0); ph < numPhases; ph++ {
		s := PhaseStat{Name: ph.Name(), Seconds: p.totals[ph].Seconds(), Calls: p.calls[ph]}
		if total > 0 {
			s.Share = s.Seconds / total
		}
		out[ph] = s
	}
	return out
}

// report is the JSON shape shared by WriteJSON and epascale -json.
type report struct {
	TotalSeconds float64     `json:"total_seconds"`
	Phases       []PhaseStat `json:"phases"`
}

// WriteJSON renders the profile as indented JSON with a stable field
// and phase order.
func (p *Profiler) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(report{TotalSeconds: p.TotalSeconds(), Phases: p.Snapshot()}, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Table renders a human-readable breakdown, widest phase first.
func (p *Profiler) Table() string {
	if p == nil {
		return ""
	}
	stats := p.Snapshot()
	// Insertion sort by seconds descending; ties keep taxonomy order.
	for i := 1; i < len(stats); i++ {
		for k := i; k > 0 && stats[k].Seconds > stats[k-1].Seconds; k-- {
			stats[k], stats[k-1] = stats[k-1], stats[k]
		}
	}
	var b strings.Builder
	for _, s := range stats {
		if s.Calls == 0 && s.Seconds == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-18s %9.3fs  %5.1f%%  %d calls\n", s.Name, s.Seconds, s.Share*100, s.Calls)
	}
	return b.String()
}

// Register exports every phase (zero-observation phases included) as
// prof.<phase>.seconds / prof.<phase>.calls gauge pairs, live-read on
// each registry snapshot. Call at most once per registry — duplicate
// metric names panic by the registry's own contract.
func (p *Profiler) Register(reg *metrics.Registry) {
	if p == nil || reg == nil {
		return
	}
	for ph := Phase(0); ph < numPhases; ph++ {
		reg.GaugeFunc("prof."+ph.Name()+".seconds", func() float64 { return p.totals[ph].Seconds() })
		reg.GaugeFunc("prof."+ph.Name()+".calls", func() float64 { return float64(p.calls[ph]) })
	}
}
