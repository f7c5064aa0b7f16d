package prof

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"epajsrm/internal/metrics"
)

// spin burns real wall time without sleeping (sleep granularity is too
// coarse and too platform-dependent for attribution assertions).
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	p.Enter(SchedPass)
	p.Exit()
	if p.TotalSeconds() != 0 {
		t.Fatalf("nil TotalSeconds() = %v, want 0", p.TotalSeconds())
	}
	if p.Snapshot() != nil {
		t.Fatal("nil Snapshot() should be nil")
	}
	if p.Table() != "" {
		t.Fatal("nil Table() should be empty")
	}
	p.Register(metrics.New()) // must not panic
}

func TestUnmatchedExitIgnored(t *testing.T) {
	p := New()
	p.Exit() // no open phase: must not corrupt anything
	p.Enter(Jobs)
	p.Exit()
	p.Exit()
	if got := p.calls[Jobs]; got != 1 {
		t.Fatalf("jobs calls = %d, want 1", got)
	}
}

// TestNestedAttributionIsExclusive is the core accounting contract: a
// nested phase's time is charged to the child alone, never double-counted
// into the parent.
func TestNestedAttributionIsExclusive(t *testing.T) {
	const quantum = 20 * time.Millisecond
	p := New()
	start := time.Now()
	p.Enter(Events)
	spin(quantum)
	p.Enter(SchedPass)
	spin(quantum)
	p.Exit()
	spin(quantum)
	p.Exit()
	wall := time.Since(start).Seconds()

	ev := p.totals[Events].Seconds()
	sp := p.totals[SchedPass].Seconds()
	min := (quantum - 5*time.Millisecond).Seconds()
	if sp < min {
		t.Fatalf("sched_pass charged %.4fs, want >= %.4fs", sp, min)
	}
	if ev < 2*min {
		t.Fatalf("events charged %.4fs (two exclusive quanta), want >= %.4fs", ev, 2*min)
	}
	// Exclusivity: the two phases partition the wall time, so the sum
	// cannot exceed it (double-charging would push it toward 4 quanta).
	if total := p.TotalSeconds(); total > wall+0.001 {
		t.Fatalf("total %.4fs exceeds wall %.4fs: time was double-charged", total, wall)
	}
	if diff := ev + sp - p.TotalSeconds(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("events+sched_pass = %.9f, total = %.9f", ev+sp, p.TotalSeconds())
	}
}

func TestSnapshotCoversTaxonomyInOrder(t *testing.T) {
	p := New()
	p.Enter(Power)
	p.Exit()
	stats := p.Snapshot()
	if len(stats) != NumPhases {
		t.Fatalf("snapshot has %d phases, want %d (zero-observation phases must appear)", len(stats), NumPhases)
	}
	for i, s := range stats {
		if want := Phase(i).Name(); s.Name != want {
			t.Fatalf("stats[%d].Name = %q, want %q (taxonomy order)", i, s.Name, want)
		}
	}
	if stats[Power].Calls != 1 {
		t.Fatalf("power calls = %d, want 1", stats[Power].Calls)
	}
	if stats[Pump].Calls != 0 || stats[Pump].Seconds != 0 {
		t.Fatalf("pump should be zero-observation, got %+v", stats[Pump])
	}
}

func TestWriteJSONShape(t *testing.T) {
	p := New()
	p.Enter(Checkpoint)
	p.Exit()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var rep struct {
		TotalSeconds float64     `json:"total_seconds"`
		Phases       []PhaseStat `json:"phases"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v\n%s", err, buf.String())
	}
	if len(rep.Phases) != NumPhases {
		t.Fatalf("JSON has %d phases, want %d", len(rep.Phases), NumPhases)
	}
}

func TestRegisterExportsGaugePairs(t *testing.T) {
	p := New()
	p.Enter(Telemetry)
	spin(time.Millisecond)
	p.Exit()
	reg := metrics.New()
	p.Register(reg)
	if got := reg.Value("prof.telemetry.calls"); got != 1 {
		t.Fatalf("prof.telemetry.calls = %v, want 1", got)
	}
	if got := reg.Value("prof.telemetry.seconds"); got <= 0 {
		t.Fatalf("prof.telemetry.seconds = %v, want > 0", got)
	}
	// Zero-observation phases are exported too.
	if got := reg.Value("prof.pump.calls"); got != 0 {
		t.Fatalf("prof.pump.calls = %v, want 0", got)
	}
}
