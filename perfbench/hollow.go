package main

import (
	"fmt"
	"strings"
	"time"

	"epajsrm/internal/core"
	"epajsrm/internal/jobs"
	"epajsrm/internal/prof"
	"epajsrm/internal/scale"
	"epajsrm/internal/sched"
)

// hollowNodes is the hollow-10k site size; scale.DefaultConfig gives it
// 10 jobs per node over one simulated week.
const hollowNodes = 10000

// hollowOutcome is what a hollow-10k run is checked on.
type hollowOutcome struct {
	Completed int   `json:"completed"`
	Killed    int   `json:"killed"`
	Requeues  int   `json:"requeues"`
	Ckpts     int   `json:"ckpts"`
	Events    int64 `json:"events"`
}

// checkHollow lists what is wrong with a run of n jobs: it must drain,
// and its counts must equal the recorded ones.
func checkHollow(got hollowOutcome, n int, want *hollowOutcome) []string {
	var bad []string
	if got.Completed+got.Killed != n {
		bad = append(bad, fmt.Sprintf("run did not drain: completed %d + killed %d != %d jobs", got.Completed, got.Killed, n))
	}
	switch {
	case want == nil:
		bad = append(bad, "no recorded outcome")
	case got != *want:
		bad = append(bad, fmt.Sprintf("outcome %+v, recorded %+v", got, *want))
	}
	return bad
}

// timedSched times every Pick the manager makes through it: the
// scheduler's admission decision for the queued jobs.
type timedSched struct {
	sched.Scheduler
	tr     *tracer
	parent int
	picked int
	ms     []float64 // each Pick's duration
}

func (s *timedSched) Pick(v sched.View) []*jobs.Job {
	t0 := time.Now()
	out := s.Scheduler.Pick(v)
	t1 := time.Now()
	s.tr.add("Pick", s.parent, t0, t1)
	s.picked += len(out)
	s.ms = append(s.ms, ms(t1.Sub(t0)))
	return out
}

// hollowSetup is the workload's set-up: scale.Build plus the first
// scale.Pump batch. It returns the manager and the two set-up times.
func hollowSetup(cfg scale.Config, tr *tracer) (*core.Manager, time.Duration, time.Duration, error) {
	t0 := time.Now()
	m, err := scale.Build(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	scale.Pump(m, cfg)
	t2 := time.Now()
	tr.add("scale.Build", 0, t0, t1)
	tr.add("scale.Pump", 0, t1, t2)
	return m, t1.Sub(t0), t2.Sub(t1), nil
}

// hollowPass sets up the hollow site, runs it to quiescence and checks
// the outcome. Every Pick goes through timedSched: a Pick is the
// site's admission decision, so the pass's admit latencies are its
// Picks; the pass itself is its one turnaround unit, from set-up to
// the checked result. Traced, it also attaches the phase profiler.
func hollowPass(seed uint64, want *hollowOutcome, tr *tracer, layers map[string]float64) passResult {
	res := passResult{Attempted: 1}
	cfg := scale.DefaultConfig(hollowNodes, seed)
	m, build, pump, err := hollowSetup(cfg, tr)
	if err != nil {
		res.fail(true, "scale.Build: "+err.Error())
		return res
	}
	res.SetupS = (build + pump).Seconds()
	picks := &timedSched{Scheduler: m.Sched, tr: tr}
	m.Sched = picks
	var pf *prof.Profiler
	if tr != nil {
		// Attached after the first pump batch, so the phases partition
		// Manager.Run alone.
		pf = prof.New()
		m.AttachProfiler(pf)
	}
	picks.parent = tr.open("Manager.Run", 0)
	start := time.Now()
	m.Run(-1)
	wall := time.Since(start)
	tr.close(picks.parent, "", "")

	got := hollowOutcome{
		Completed: m.Metrics.Completed,
		Killed:    m.Metrics.Killed,
		Requeues:  m.Metrics.Requeues,
		Ckpts:     m.Metrics.CheckpointsWritten,
		Events:    m.Eng.Fired(),
	}
	res.Hollow = &got
	if bad := checkHollow(got, cfg.Jobs, want); len(bad) > 0 {
		res.fail(true, strings.Join(bad, "; "))
	} else {
		res.Turnaround = []float64{ms(build + pump + time.Since(start))}
	}
	res.WallS = wall.Seconds()
	res.UnitMS = picks.ms

	if tr != nil {
		layers["setup.build_s"] = build.Seconds()
		layers["setup.pump_s"] = pump.Seconds()
		for _, ph := range pf.Snapshot() {
			layers["phase."+ph.Name+"_s"] = ph.Seconds
			layers["phase."+ph.Name+"_calls"] = float64(ph.Calls)
		}
		layers["phase.coverage_pct"] = 100 * pf.TotalSeconds() / wall.Seconds()
		var pickMS float64
		for _, d := range picks.ms {
			pickMS += d
		}
		layers["sched.pick_calls"] = float64(len(picks.ms))
		layers["sched.pick_s"] = pickMS / 1e3
		if len(picks.ms) > 0 {
			layers["sched.started_per_pick"] = float64(picks.picked) / float64(len(picks.ms))
		}
		layers["sim.events"] = float64(got.Events)
		layers["sim.jobs_completed"] = float64(got.Completed)
		layers["sim.jobs_killed"] = float64(got.Killed)
		layers["sim.requeues"] = float64(got.Requeues)
		layers["sim.ckpts"] = float64(got.Ckpts)
	}
	return res
}
