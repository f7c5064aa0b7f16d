package core

import (
	"strings"
	"testing"

	"epajsrm/internal/cluster"
	"epajsrm/internal/jobs"
	"epajsrm/internal/power"
	"epajsrm/internal/sched"
	"epajsrm/internal/simulator"
	"epajsrm/internal/workload"
)

func newTestManager(t *testing.T) *Manager {
	t.Helper()
	return NewManager(Options{
		Cluster:   cluster.DefaultConfig(),
		Scheduler: sched.EASY{},
		Seed:      1,
	})
}

func mkJob(id int64, nodes int, run simulator.Time) *jobs.Job {
	return &jobs.Job{
		ID:            id,
		User:          "alice",
		Tag:           "app",
		Nodes:         nodes,
		Walltime:      run * 2,
		TrueRuntime:   run,
		PowerPerNodeW: 300,
		MemFrac:       0.3,
	}
}

func TestSingleJobLifecycle(t *testing.T) {
	m := newTestManager(t)
	j := mkJob(1, 4, simulator.Hour)
	if err := m.Submit(j, 100); err != nil {
		t.Fatal(err)
	}
	m.Run(-1)
	if j.State != jobs.StateCompleted {
		t.Fatalf("state = %v", j.State)
	}
	if j.Start != 100 {
		t.Fatalf("start = %d, want 100 (empty machine)", j.Start)
	}
	if got := j.End - j.Start; got != simulator.Hour {
		t.Fatalf("duration = %d, want %d", got, simulator.Hour)
	}
	if m.Metrics.Completed != 1 {
		t.Fatalf("completed = %d", m.Metrics.Completed)
	}
	// Energy: 4 nodes x 300 W x 3600 s for the job.
	want := 4.0 * 300 * 3600
	if j.EnergyJ < want*0.99 || j.EnergyJ > want*1.01 {
		t.Fatalf("job energy = %.0f J, want ~%.0f", j.EnergyJ, want)
	}
}

func TestJobsQueueWhenMachineFull(t *testing.T) {
	m := newTestManager(t) // 64 nodes
	a := mkJob(1, 64, simulator.Hour)
	b := mkJob(2, 64, simulator.Hour)
	if err := m.Submit(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(b, 1); err != nil {
		t.Fatal(err)
	}
	m.Run(-1)
	if a.State != jobs.StateCompleted || b.State != jobs.StateCompleted {
		t.Fatalf("states = %v/%v", a.State, b.State)
	}
	if b.Start < a.End {
		t.Fatalf("b started at %d before a ended at %d", b.Start, a.End)
	}
}

func TestBackfillShortJobJumpsQueue(t *testing.T) {
	m := newTestManager(t) // 64 nodes
	long := mkJob(1, 48, 4*simulator.Hour)
	wide := mkJob(2, 64, simulator.Hour)      // blocked behind long
	small := mkJob(3, 8, 30*simulator.Minute) // fits beside long, ends before long
	small.Walltime = 30 * simulator.Minute
	for i, j := range []*jobs.Job{long, wide, small} {
		if err := m.Submit(j, simulator.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	m.Run(-1)
	if small.Start >= wide.Start {
		t.Fatalf("EASY should backfill the small job (small start %d, wide start %d)", small.Start, wide.Start)
	}
}

func TestRejectOversizedJob(t *testing.T) {
	m := newTestManager(t)
	j := mkJob(1, 1000, simulator.Hour)
	if err := m.Submit(j, 0); err == nil {
		t.Fatal("submitting a job larger than the machine should fail")
	}
}

func TestKillJob(t *testing.T) {
	m := newTestManager(t)
	j := mkJob(1, 4, simulator.Hour)
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	m.Eng.After(30*simulator.Minute, "kill", func(now simulator.Time) {
		if !m.KillJob(1, "test", now) {
			t.Error("kill failed")
		}
	})
	m.Run(-1)
	if j.State != jobs.StateKilled || j.KillReason != "test" {
		t.Fatalf("state=%v reason=%q", j.State, j.KillReason)
	}
	if j.End-j.Start != 30*simulator.Minute {
		t.Fatalf("killed at %d, want 30 min", j.End-j.Start)
	}
	if m.Metrics.Killed != 1 {
		t.Fatalf("killed metric = %d", m.Metrics.Killed)
	}
	// Nodes must be free again.
	if got := m.Cl.AvailableCount(nil); got != 64 {
		t.Fatalf("available after kill = %d", got)
	}
}

func TestNodeCapSlowsJobDown(t *testing.T) {
	m := newTestManager(t)
	j := mkJob(1, 2, simulator.Hour)
	j.MemFrac = 0 // fully frequency-sensitive
	j.Walltime = 10 * simulator.Hour
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	// Cap the whole machine at start so the job runs capped from t=0.
	m.Eng.After(0, "cap", func(now simulator.Time) {
		for _, n := range m.Cl.Nodes {
			m.Pw.SetNodeCap(now, n, 200) // below the 300 W draw
		}
		m.RetimeAll(now)
	})
	m.Run(-1)
	if j.State != jobs.StateCompleted {
		t.Fatalf("state = %v", j.State)
	}
	if j.End-j.Start <= simulator.Hour {
		t.Fatalf("capped job finished in %v, should be slower than nominal 1h", j.End-j.Start)
	}
}

func TestRetimeAfterCapRemoval(t *testing.T) {
	m := newTestManager(t)
	j := mkJob(1, 2, simulator.Hour)
	j.MemFrac = 0
	j.Walltime = 10 * simulator.Hour
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	m.Eng.After(0, "cap", func(now simulator.Time) {
		for _, n := range m.Cl.Nodes {
			m.Pw.SetNodeCap(now, n, 200)
		}
		m.RetimeAll(now)
	})
	// Lift the cap halfway; the job should speed back up and finish sooner
	// than it would capped the whole way.
	m.Eng.After(30*simulator.Minute, "uncap", func(now simulator.Time) {
		for _, n := range m.Cl.Nodes {
			m.Pw.SetNodeCap(now, n, 0)
		}
		m.RetimeAll(now)
	})
	m.Run(-1)
	cappedFrac, ok := m.Pw.Model.FreqForCap(200, 300, 1)
	if !ok {
		t.Fatal("cap should be feasible")
	}
	fullCapped := simulator.Time(float64(simulator.Hour) / cappedFrac)
	if j.End-j.Start >= fullCapped {
		t.Fatalf("job took %v, no faster than fully-capped %v", j.End-j.Start, fullCapped)
	}
	if j.End-j.Start <= simulator.Hour {
		t.Fatalf("job took %v, cannot beat nominal 1h", j.End-j.Start)
	}
}

func TestWalltimeEnforcement(t *testing.T) {
	m := newTestManager(t)
	m.EnforceWalltime = true
	j := mkJob(1, 2, simulator.Hour)
	j.Walltime = 30 * simulator.Minute // lies about runtime
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	m.Run(-1)
	if j.State != jobs.StateKilled {
		t.Fatalf("state = %v, want killed at walltime", j.State)
	}
	if j.End-j.Start != 30*simulator.Minute {
		t.Fatalf("killed after %v, want 30m", j.End-j.Start)
	}
}

func TestAdmissionRejection(t *testing.T) {
	m := newTestManager(t)
	m.OnAdmit(func(m *Manager, j *jobs.Job) (bool, string) {
		return j.Nodes <= 8, "too wide"
	})
	small := mkJob(1, 4, simulator.Hour)
	big := mkJob(2, 16, simulator.Hour)
	if err := m.Submit(small, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(big, 0); err != nil {
		t.Fatal(err)
	}
	m.Run(-1)
	if small.State != jobs.StateCompleted {
		t.Fatalf("small state = %v", small.State)
	}
	if big.State != jobs.StateCancelled || big.KillReason != "too wide" {
		t.Fatalf("big state = %v reason=%q", big.State, big.KillReason)
	}
	if m.Metrics.Cancelled != 1 {
		t.Fatalf("cancelled = %d", m.Metrics.Cancelled)
	}
}

func TestStartGateHoldsJobs(t *testing.T) {
	m := newTestManager(t)
	open := false
	m.OnStartGate(func(m *Manager, j *jobs.Job) bool { return open })
	j := mkJob(1, 4, simulator.Hour)
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	m.Eng.After(simulator.Hour, "open", func(now simulator.Time) {
		open = true
		m.TrySchedule(now)
	})
	m.Run(-1)
	if j.Start != simulator.Hour {
		t.Fatalf("gated job started at %d, want %d", j.Start, simulator.Hour)
	}
}

func TestFreqHookSlowsJob(t *testing.T) {
	m := newTestManager(t)
	m.OnFreq(func(m *Manager, j *jobs.Job) float64 { return 0.5 })
	j := mkJob(1, 2, simulator.Hour)
	j.MemFrac = 0
	j.Walltime = 10 * simulator.Hour
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	m.Run(-1)
	if got, want := j.End-j.Start, 2*simulator.Hour; got != want {
		t.Fatalf("half-frequency compute-bound job took %v, want %v", got, want)
	}
}

func TestUtilizationMetric(t *testing.T) {
	m := newTestManager(t) // 64 nodes
	j := mkJob(1, 32, simulator.Hour)
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	// Run exactly 1h: 32/64 nodes busy the whole time = 50 %.
	m.Run(simulator.Hour)
	u := m.Metrics.Utilization(64)
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %.3f, want ~0.5", u)
	}
}

func TestEnergyConservation(t *testing.T) {
	// Total system energy must equal the integral of power: with one job on
	// an otherwise idle machine, total = job nodes at busy + rest at idle.
	m := newTestManager(t)
	j := mkJob(1, 4, simulator.Hour)
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	end := m.Run(simulator.Hour)
	total := m.Pw.TotalEnergy()
	wantBusy := 4.0 * 300 * 3600
	wantIdle := 60.0 * m.Pw.Model.IdleW * float64(end)
	want := wantBusy + wantIdle
	if total < want*0.999 || total > want*1.001 {
		t.Fatalf("total energy = %.0f, want ~%.0f", total, want)
	}
}

func TestManyJobsDrainCompletely(t *testing.T) {
	m := newTestManager(t)
	gen := workload.NewGenerator(workload.DefaultSpec(), 7)
	js := gen.Generate(200)
	for _, j := range js {
		if err := m.Submit(j, j.Submit); err != nil {
			t.Fatal(err)
		}
	}
	m.Run(-1)
	if m.Metrics.Completed != 200 {
		t.Fatalf("completed = %d, want 200", m.Metrics.Completed)
	}
	if m.RunningCount() != 0 || m.Queue.Len() != 0 {
		t.Fatal("machine did not drain")
	}
	// All nodes idle at the end.
	if got := m.Cl.CountState(cluster.StateIdle); got != 64 {
		t.Fatalf("idle nodes at end = %d", got)
	}
	// Peak power never exceeds the physical maximum.
	peak, _ := m.Pw.PeakPower()
	if peak > m.Pw.MaxPossiblePower() {
		t.Fatalf("peak %.0f exceeds physical max %.0f", peak, m.Pw.MaxPossiblePower())
	}
}

func TestSharedEngineTwoManagers(t *testing.T) {
	eng := simulator.NewEngine()
	m1 := NewManager(Options{Cluster: cluster.DefaultConfig(), Engine: eng, Seed: 1})
	m2 := NewManager(Options{Cluster: cluster.DefaultConfig(), Engine: eng, Seed: 2})
	a := mkJob(1, 8, simulator.Hour)
	b := mkJob(1, 8, simulator.Hour)
	if err := m1.Submit(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := m2.Submit(b, 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if a.State != jobs.StateCompleted || b.State != jobs.StateCompleted {
		t.Fatalf("states: %v %v", a.State, b.State)
	}
}

func TestPowerPredictorFeedback(t *testing.T) {
	m := newTestManager(t)
	var observed []float64
	UsePredictor(m, fakePredictor{observe: func(w float64) { observed = append(observed, w) }})
	j := mkJob(1, 4, simulator.Hour)
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	m.Run(-1)
	if len(observed) != 1 {
		t.Fatalf("observations = %d, want 1", len(observed))
	}
	if observed[0] < 295 || observed[0] > 305 {
		t.Fatalf("observed per-node power = %.1f, want ~300", observed[0])
	}
}

type fakePredictor struct{ observe func(float64) }

func (f fakePredictor) Predict(j *jobs.Job) float64    { return 250 }
func (f fakePredictor) Observe(j *jobs.Job, w float64) { f.observe(w) }

var _ PowerPredictor = fakePredictor{}

func TestEstimatedStartPower(t *testing.T) {
	m := newTestManager(t)
	j := mkJob(1, 4, simulator.Hour) // 300 W/node, idle 90 W
	got := m.EstimatedStartPower(j)
	want := 4 * (300 - power.DefaultNodeModel().IdleW)
	if got != want {
		t.Fatalf("estimated start power = %f, want %f", got, want)
	}
}

func TestStatusRendersSnapshot(t *testing.T) {
	m := newTestManager(t)
	// Jobs 1 and 4 tie on width, so they must list in ID order after the
	// wider job 3.
	for _, j := range []*jobs.Job{mkJob(1, 4, simulator.Hour), mkJob(3, 8, simulator.Hour), mkJob(4, 4, simulator.Hour)} {
		if err := m.Submit(j, 0); err != nil {
			t.Fatal(err)
		}
	}
	q := mkJob(2, 64, simulator.Hour) // must queue: 64 > 48 free
	if err := m.Submit(q, 1); err != nil {
		t.Fatal(err)
	}
	var snap string
	m.Eng.After(10*simulator.Minute, "snap", func(simulator.Time) {
		snap = m.Status()
	})
	m.Run(-1)
	for _, want := range []string{
		"running (3)", "queued (1", "job 1", "job 2",
		"48 idle", "16 busy", "power:",
	} {
		if !strings.Contains(snap, want) {
			t.Fatalf("status missing %q:\n%s", want, snap)
		}
	}
	i3, i1, i4 := strings.Index(snap, "job 3 "), strings.Index(snap, "job 1 "), strings.Index(snap, "job 4 ")
	if !(0 <= i3 && i3 < i1 && i1 < i4) {
		t.Fatalf("running jobs not widest first, then by ID:\n%s", snap)
	}
}
