// Package core implements the EPA JSRM manager — the synthesis of a job
// scheduler and a resource manager with energy/power monitoring and control
// that Figure 1 of the paper depicts. The Manager owns the batch queue,
// drives the scheduling algorithm, performs node allocation and lifecycle
// control, meters energy per job, and exposes the hook surface the EPA
// policies (internal/policy) plug into.
package core

import (
	"fmt"

	"epajsrm/internal/alert"
	"epajsrm/internal/checkpoint"
	"epajsrm/internal/cluster"
	"epajsrm/internal/jobs"
	"epajsrm/internal/metrics"
	"epajsrm/internal/power"
	"epajsrm/internal/prof"
	"epajsrm/internal/sched"
	"epajsrm/internal/simulator"
	"epajsrm/internal/trace"
	"epajsrm/internal/tsdb"
)

// running tracks one executing job.
type running struct {
	job      *jobs.Job
	nodes    []*cluster.Node
	finish   simulator.Handle
	curFrac  float64        // effective frequency fraction the finish event assumed
	end      simulator.Time // expectedEnd at curFrac: the key in the end index
	commSlow float64        // placement-dependent communication slowdown (>= 1)
	lastSync simulator.Time

	// Checkpoint/restart phase machinery (see internal/core/checkpoint.go).
	// During any non-computing phase the job holds its nodes and draws
	// power but makes zero compute progress.
	phase     runPhase
	ioActive  bool             // a Begin on m.Ckpt awaits its EndIO
	ioDone    simulator.Handle // pending checkpoint I/O completion
	ioWork    float64          // WorkDone snapshot the in-flight write captures
	ckptTimer simulator.Handle // pending periodic-checkpoint trigger
}

// Manager is the EPA JSRM control point for one system.
type Manager struct {
	Eng   *simulator.Engine
	Cl    *cluster.Cluster
	Pw    *power.System
	Ctrl  *power.Controller
	Fac   *power.Facility
	Tel   *power.Telemetry
	Sched sched.Scheduler
	Queue *jobs.Queue

	// PowerEstimator predicts a job's per-node draw before it runs; the
	// default is the oracle (the job's true draw). Sites replace it with a
	// predictor from internal/predict — RIKEN estimates pre-run power from
	// temperature, CINECA from models built on monitoring data.
	PowerEstimator func(j *jobs.Job) float64

	// EnforceWalltime kills jobs that exceed their requested walltime in
	// wallclock terms — which DVFS slowdown can cause, one of the
	// "unintended consequences" Q7 asks about.
	EnforceWalltime bool

	// TopoPenaltyPerHop is the relative runtime stretch per topology hop of
	// placement span applied to a job's communication fraction: a job with
	// CommFrac c placed with span s runs its communication phases
	// (1 + TopoPenaltyPerHop*(s-1)) slower than on one rack. Survey Q6's
	// topology-aware allocation exists to shrink this term.
	TopoPenaltyPerHop float64

	// MaxRequeues bounds how many times a job that loses a node to a
	// failure is returned to the queue before it is killed instead. Without
	// a checkpoint substrate crashed jobs restart from scratch, so an
	// unbounded requeue policy would let a flaky node burn node-hours
	// forever; with checkpointing enabled the loss per crash is bounded but
	// the budget still caps how long a flaky node can thrash one job.
	MaxRequeues int

	// Ckpt is the checkpoint/restart substrate (always non-nil; disabled
	// unless Options.Checkpoint enables it). When active, jobs checkpoint
	// periodically, crashes roll back to the last durable image instead of
	// discarding all progress, and preemption pays a demand-checkpoint
	// drain before releasing nodes.
	Ckpt *checkpoint.Model

	// FreeCheckpoint restores the legacy idealization: PreemptJob saves and
	// resumes progress instantly at zero cost, bypassing the checkpoint
	// model entirely. Defaults to off — the honest default makes
	// uncheckpointed preemption lose progress like a crash does.
	FreeCheckpoint bool

	// Tr is the structured tracer for the whole control loop. Nil (the
	// default) disables tracing: every emission site is guarded by a
	// single nil-check, which is the entire hot-path cost of the
	// subsystem. Attach with AttachTracer, never by writing the field —
	// the controller, telemetry, and queue-entry bookkeeping must be wired
	// together.
	Tr *trace.Tracer

	// Reg is the unified metric registry: the run's counters (adopted from
	// the controller, telemetry, and fault injector), derived gauges over
	// Metrics, and the wait/energy histograms, all exportable as one
	// deterministic snapshot.
	Reg *metrics.Registry

	// Prof is the control loop's phase profiler. Nil (the default)
	// disables phase attribution; every site is guarded by a single
	// nil-check — the same zero-cost-when-off contract as Tr. Attach
	// with AttachProfiler, never by writing the field: the engine's
	// dispatch loop, the power system, and the telemetry sampler must
	// be wired to the same instance.
	Prof *prof.Profiler

	policies []Policy
	hooks    hooks

	// Hist is the virtual-time metric history. Nil (the default) disables
	// it; attach with AttachHistory, which installs the periodic sampling
	// daemon on the engine. Like Tr and Prof it observes, never steers —
	// a run with a history attached is byte-identical to one without.
	Hist *tsdb.Store

	// Watch is the SLO watchdog evaluated on the history's sampling
	// cadence. Nil disables it; attach with AttachWatchdog after
	// AttachHistory (the watchdog reads series the sampler writes).
	Watch *alert.Watchdog

	// runIndex holds the runningJobs records in job-ID order, endIndex
	// the same records by (end, ID). Only addRunning, removeRunning and
	// setFrac write them; runSet is the end order as schedulers read it.
	runningJobs map[int64]*running
	runIndex    runOrder
	endIndex    runOrder
	runSet      runningSet
	nextID      int64

	// trQueued records when each queued job (re-)entered the queue, for
	// queue-wait spans. Maintained only while Tr != nil.
	trQueued map[int64]simulator.Time

	// LastSchedPass is the virtual time of the most recent scheduling pass
	// — the control-loop liveness signal the ops /healthz endpoint reports
	// alongside telemetry age.
	LastSchedPass simulator.Time

	// RunEnded marks the run's accounting as closed (set by FinishRun).
	// The ops /healthz endpoint uses it to report a terminal "complete"
	// status instead of letting a finished run age into a spurious
	// telemetry-stale 503 while a lingering server keeps the final state
	// on the wire.
	RunEnded bool

	// SchedDefer, when positive, coalesces scheduling passes onto a
	// periodic grid: a TrySchedule call arms one pass at the next multiple
	// of SchedDefer instead of running inline, and every further call
	// before that pass fires is absorbed into it. At hollow-site scale a
	// million arrivals each triggering an O(queue + running) pass dominates
	// the run; on a 60 s grid the same workload schedules in ~10k passes.
	// Starts shift later by up to one grid step — a documented scale-mode
	// approximation. Zero (the default) keeps the event-exact behavior and
	// byte-identical reports. Set before the run starts and do not change
	// mid-run.
	SchedDefer simulator.Time
	schedArmed bool

	// Scheduling-pass scratch, reused across ticks so the hot path does not
	// reallocate the candidate list every pass.
	candScratch []*jobs.Job

	Metrics Metrics
}

// Options configures a Manager.
type Options struct {
	Cluster   cluster.Config
	NodeModel power.NodeModel
	PStates   power.PStateTable
	VarSigma  float64
	Seed      uint64
	Scheduler sched.Scheduler
	Facility  *power.Facility
	Telemetry simulator.Time // sampling period; 0 = 30 s
	// Checkpoint configures the checkpoint/restart substrate; the zero
	// value leaves it disabled (legacy crash-discards-everything behavior).
	Checkpoint checkpoint.Config
	// Engine lets several managers share one virtual clock — required when
	// two systems coordinate (Tokyo Tech's TSUBAME2/3 facility budget
	// sharing). Nil creates a private engine.
	Engine *simulator.Engine
}

// NewManager assembles a complete system: cluster, power substrate,
// out-of-band controller, telemetry, scheduler, queue.
func NewManager(opt Options) *Manager {
	if opt.Scheduler == nil {
		opt.Scheduler = sched.EASY{}
	}
	if opt.PStates == nil {
		opt.PStates = power.DefaultPStates()
	}
	if opt.NodeModel == (power.NodeModel{}) {
		opt.NodeModel = power.DefaultNodeModel()
	}
	eng := opt.Engine
	if eng == nil {
		eng = simulator.NewEngine()
	}
	cl := cluster.New(opt.Cluster)
	rng := simulator.NewRNG(opt.Seed)
	pw := power.NewSystem(cl, opt.NodeModel, opt.PStates, opt.VarSigma, rng)
	m := &Manager{
		Eng:         eng,
		Cl:          cl,
		Pw:          pw,
		Ctrl:        power.NewController(eng, pw),
		Fac:         opt.Facility,
		Sched:       opt.Scheduler,
		Queue:       jobs.NewQueue("batch"),
		runningJobs: make(map[int64]*running),
	}
	m.PowerEstimator = func(j *jobs.Job) float64 { return j.PowerPerNodeW }
	m.TopoPenaltyPerHop = 0.05
	m.MaxRequeues = 2
	m.Ckpt = checkpoint.NewModel(opt.Checkpoint)
	m.Tel = power.NewTelemetry(pw, opt.Facility, opt.Telemetry, 0).Start(eng)
	// Cap actuations that succeed only after asynchronous retries change
	// job frequencies outside any policy's control flow; the controller
	// calls back so running jobs are re-timed at the new rate.
	m.Ctrl.OnDeferredApply = func(now simulator.Time) { m.RetimeAll(now) }
	m.Metrics.lastT = 0
	m.Reg = metrics.New()
	m.Reg.Register("telemetry.dropped", m.Tel.Dropped)
	m.Reg.Register("actuation.failures", m.Ctrl.ActuationFailures)
	m.Reg.Register("actuation.retries", m.Ctrl.ActuationRetries)
	m.Reg.Register("actuation.abandoned", m.Ctrl.ActuationAbandoned)
	m.Reg.GaugeFunc("power.total_energy_j", pw.TotalEnergy)
	m.Reg.GaugeFunc("power.attributed_energy_j", pw.AttributedEnergy)
	m.Reg.GaugeFunc("power.peak_w", func() float64 { p, _ := pw.PeakPower(); return p })
	// Live SLI gauges for the metric history and SLO watchdog:
	// instantaneous site power, the administrative cap, how far above the
	// cap the site sits right now, and telemetry staleness. All pure
	// reads — scrape- and sample-safe.
	m.Reg.GaugeFunc("power.total_w", pw.TotalPower)
	m.Reg.GaugeFunc("power.system_cap_w", func() float64 { return m.Ctrl.SystemCapW })
	m.Reg.GaugeFunc("power.cap_violation_w", func() float64 {
		if m.Ctrl.SystemCapW <= 0 {
			return 0
		}
		if over := pw.TotalPower() - m.Ctrl.SystemCapW; over > 0 {
			return over
		}
		return 0
	})
	m.Reg.GaugeFunc("telemetry.staleness_s", func() float64 { return m.Tel.Staleness(m.Eng.Now()) })
	m.Metrics.register(m.Reg)
	return m
}

// AttachTracer enables (or, with nil, disables) structured tracing across
// the manager's whole control loop: job lifecycle spans in core, actuation
// audits in the power controller, and sample/dropout events in telemetry.
// The fault injector and policies read m.Tr at fire time, so attaching
// after they are built still traces them. Call before or between runs, not
// mid-event.
func (m *Manager) AttachTracer(tr *trace.Tracer) {
	m.Tr = tr
	m.Ctrl.Tr = tr
	m.Tel.Tr = tr
	if m.Watch != nil {
		m.Watch.Tr = tr
	}
	if tr != nil && m.trQueued == nil {
		m.trQueued = make(map[int64]simulator.Time)
	}
}

// AttachHistory enables the virtual-time metric history: a daemon engine
// event samples every registry metric into h on h.Step() cadence (and
// runs the watchdog, if one is attached, against the fresh samples).
// Daemon events never keep an unbounded run alive and the sampler only
// reads, so attaching a history cannot perturb the simulation. Call
// before the run starts.
func (m *Manager) AttachHistory(h *tsdb.Store) {
	m.Hist = h
	if h == nil {
		return
	}
	m.Eng.Every(h.Step(), "tsdb-sample", func(now simulator.Time) {
		h.Sample(now)
		if m.Watch != nil {
			m.Watch.Eval(now)
		}
	})
}

// AttachWatchdog enables SLO rule evaluation over the attached history.
// Call after AttachHistory (the watchdog reads the store the sampler
// writes) and before the run starts. The watchdog inherits the
// manager's tracer for its alerts track.
func (m *Manager) AttachWatchdog(w *alert.Watchdog) {
	m.Watch = w
	if w != nil {
		w.Tr = m.Tr
	}
}

// AttachProfiler enables (or, with nil, disables) phase-attribution
// profiling across the control loop: the engine's dispatch loop, the
// manager's scheduling/job/checkpoint phases, power integration, and
// telemetry sampling all charge the same per-run profiler. When both
// p and m.Reg are non-nil the per-phase wall-time and call-count
// gauges are exported on the registry (once — re-attaching a second
// live profiler to the same registry panics on the duplicate names).
// Call before the run starts, never mid-event: an event body between
// Enter and Exit would charge a torn segment.
func (m *Manager) AttachProfiler(p *prof.Profiler) {
	m.Prof = p
	m.Eng.Prof = p
	m.Pw.Prof = p
	m.Tel.Prof = p
	if p != nil {
		p.Register(m.Reg)
	}
}

// Use attaches a policy. Policies must be attached before the run starts.
func (m *Manager) Use(p Policy) *Manager {
	m.policies = append(m.policies, p)
	p.Attach(m)
	return m
}

// NextJobID mints a fresh job ID.
func (m *Manager) NextJobID() int64 {
	m.nextID++
	return m.nextID
}

// Submit schedules job j to arrive at time at. The job must validate.
func (m *Manager) Submit(j *jobs.Job, at simulator.Time) error {
	if j.ID == 0 {
		j.ID = m.NextJobID()
	} else if j.ID > m.nextID {
		m.nextID = j.ID
	}
	if err := j.Validate(); err != nil {
		return err
	}
	if j.Nodes > m.Cl.Size() {
		return fmt.Errorf("core: job %d wants %d nodes, system has %d", j.ID, j.Nodes, m.Cl.Size())
	}
	_, err := m.Eng.At(at, "job-arrival", func(now simulator.Time) {
		m.arrive(j, now)
	})
	return err
}

func (m *Manager) arrive(j *jobs.Job, now simulator.Time) {
	j.Submit = now
	j.State = jobs.StateQueued
	m.Metrics.Submitted++
	if m.Tr != nil {
		m.Tr.SetThreadName(int(j.ID), fmt.Sprintf("job %d (%s)", j.ID, j.Tag))
		m.Tr.Instant(trace.PidJobs, int(j.ID), "submit", now,
			trace.Arg{Key: "nodes", Val: j.Nodes},
			trace.Arg{Key: "walltime_s", Val: int64(j.Walltime)})
	}
	for _, ad := range m.hooks.admit {
		if ok, reason := ad(m, j); !ok {
			j.State = jobs.StateCancelled
			j.KillReason = reason
			m.Metrics.Cancelled++
			if m.Tr != nil {
				m.Tr.Instant(trace.PidJobs, int(j.ID), "cancelled", now,
					trace.Arg{Key: "reason", Val: reason})
			}
			return
		}
	}
	m.Queue.Push(j)
	if m.Tr != nil {
		m.trQueued[j.ID] = now
	}
	m.TrySchedule(now)
}

// TrySchedule runs one scheduling pass. Policies call this after they change
// conditions (freeing budget, booting nodes, lifting maintenance). With
// SchedDefer set, the pass is deferred to the next grid instant instead
// (see the field comment); the armed event is a regular (non-daemon) event
// because it represents real pending work — queued jobs must not strand
// because only a scheduling tick remained.
func (m *Manager) TrySchedule(now simulator.Time) {
	if m.SchedDefer > 0 {
		if m.schedArmed {
			return
		}
		at := ((now + m.SchedDefer - 1) / m.SchedDefer) * m.SchedDefer
		if _, err := m.Eng.At(at, "sched-pass", func(t simulator.Time) {
			m.schedArmed = false
			m.schedNow(t)
		}); err == nil {
			m.schedArmed = true
		}
		return
	}
	m.schedNow(now)
}

func (m *Manager) schedNow(now simulator.Time) {
	for {
		started := m.schedulePass(now)
		if started == 0 {
			return
		}
	}
}

func (m *Manager) schedulePass(now simulator.Time) int {
	m.LastSchedPass = now
	if m.Prof != nil {
		m.Prof.Enter(prof.SchedPass)
		defer m.Prof.Exit()
	}
	// Read-only scan of the live queue slice; candidates are collected into
	// scratch before anything below can mutate the queue.
	all := m.Queue.All()
	if len(all) == 0 {
		return 0
	}
	// Candidates: jobs whose start gates are open this pass. The scratch
	// slice is detached while in use so a reentrant pass (a policy hook
	// calling TrySchedule mid-start) allocates a fresh one instead of
	// clobbering ours. The running set needs no such care: a reentrant
	// pass re-prepares it only after this pass's Pick has returned.
	cands := m.candScratch[:0]
	m.candScratch = nil
	for _, j := range all {
		if m.gateOpen(j) {
			cands = append(cands, j)
		}
	}
	if len(cands) == 0 {
		m.candScratch = cands
		return 0
	}
	m.runSet.prepare(&m.endIndex, m.Eng.Now())
	v := sched.View{
		Now:        now,
		TotalNodes: m.eligibleCapacity(),
		Queue:      cands,
		Running:    &m.runSet,
		Prof:       m.Prof,
	}
	// Free nodes is job-independent only if no per-job node filters exist;
	// we expose the unfiltered pool size and re-validate per job at start.
	v.Free = m.Cl.AvailableCount(nil)
	picked := m.pick(v, now)
	m.candScratch = cands // Pick neither retains nor aliases the queue slice
	started := 0
	for _, j := range picked {
		if m.startJob(j, now) {
			started++
		}
	}
	return started
}

// pick runs the scheduling algorithm over the view. With a tracer
// attached and a Scheduler that can explain itself, every per-job decision
// lands on the scheduler track with the algorithm's own reason; otherwise
// this is exactly m.Sched.Pick — PickExplain with a nil recorder is
// contractually identical, so tracing can never change what starts.
func (m *Manager) pick(v sched.View, now simulator.Time) []*jobs.Job {
	if m.Tr != nil {
		if ex, ok := m.Sched.(sched.Explainer); ok {
			return ex.PickExplain(v, func(d sched.Decision) {
				m.Tr.Instant(trace.PidSched, 0, d.Reason, now,
					trace.Arg{Key: "job", Val: d.Job.ID},
					trace.Arg{Key: "nodes", Val: d.Job.Nodes},
					trace.Arg{Key: "picked", Val: d.Picked})
			})
		}
	}
	return m.Sched.Pick(v)
}

// eligibleFilter returns the node-eligibility predicate for job j, or nil
// when no policy registered a filter — the nil lets the cluster scans skip
// a closure call per node on the default path.
func (m *Manager) eligibleFilter(j *jobs.Job) func(*cluster.Node) bool {
	if len(m.hooks.filters) == 0 {
		return nil
	}
	return func(n *cluster.Node) bool { return m.nodeEligible(j, n) }
}

// eligibleCapacity counts nodes that could ever host work (not down, not in
// maintenance). The cluster maintains this count, so it is an O(1) read.
func (m *Manager) eligibleCapacity() int {
	return m.Cl.EligibleCount()
}

// expectedEnd is the scheduler-visible completion estimate: start +
// walltime (never ground truth), scaled by the job's current frequency.
// It is r's key in the end index. It may lie in the past; the running set
// schedulers read clamps such overdue ends to now+1.
func expectedEnd(r *running) simulator.Time {
	wall := float64(r.job.Walltime)
	if r.curFrac > 0 && r.curFrac < 1 {
		wall = wall / r.curFrac
	}
	return r.job.Start + simulator.Time(wall)
}

func (m *Manager) startJob(j *jobs.Job, now simulator.Time) bool {
	// Re-check the start gates: earlier starts in the same pass may have
	// consumed the power headroom the gate was measuring.
	if !m.gateOpen(j) {
		return false
	}
	if m.Prof != nil {
		m.Prof.Enter(prof.Jobs)
		defer m.Prof.Exit()
	}
	// Moldable reshaping — but never for a resumed (checkpointed) job:
	// its WorkDone is measured against the shape it started with, and a
	// checkpoint image is tied to its process layout anyway.
	// The availability probe runs even with no shapers attached: node
	// filters may observe it (the layout experiment counts exclusions).
	if j.WorkDone == 0 {
		free := m.Cl.AvailableCount(m.eligibleFilter(j))
		for _, sh := range m.hooks.shapers {
			if cfg, ok := sh(m, j, free); ok {
				j.Nodes = cfg.Nodes
				j.TrueRuntime = cfg.Runtime
			}
		}
	}
	nodes := m.Cl.AllocateWith(j.ID, j.Nodes, now,
		m.eligibleFilter(j),
		m.choosePlacement(j))
	if nodes == nil {
		return false
	}
	if !m.Queue.Remove(j.ID) {
		// Job vanished from the queue (cancelled between pick and start).
		m.Cl.Release(j.ID, now)
		return false
	}
	j.State = jobs.StateRunning
	j.Start = now
	j.FreqFrac = m.chooseFreq(j)
	// WorkDone is deliberately NOT reset: a preempted (checkpointed) job
	// resumes from its accumulated progress.
	j.LastProgress = now

	m.Pw.StartJob(now, j.ID, nodes, j.PowerPerNodeW, j.MemFrac, j.FreqFrac)
	r := &running{job: j, nodes: nodes, lastSync: now, commSlow: m.commSlowdown(j, nodes)}
	m.addRunning(r)
	m.Metrics.noteAlloc(now, len(nodes), m.Cl.Size())
	if m.Tr != nil {
		qAt, ok := m.trQueued[j.ID]
		if !ok {
			qAt = j.Submit
		}
		delete(m.trQueued, j.ID)
		m.Tr.Span(trace.PidJobs, int(j.ID), "queue-wait", qAt, now,
			trace.Arg{Key: "requeues", Val: j.Requeues},
			trace.Arg{Key: "system", Val: m.Cl.Cfg.Name})
		m.Tr.Instant(trace.PidJobs, int(j.ID), "dispatch", now,
			trace.Arg{Key: "nodes", Val: len(nodes)},
			trace.Arg{Key: "freq_frac", Val: j.FreqFrac},
			trace.Arg{Key: "resume_work_s", Val: j.WorkDone})
	}
	if m.ckptActive() && j.WorkDone > 0 {
		// Resuming from a durable image: the restart read is charged
		// before compute makes any progress.
		m.beginRestore(r, now)
	} else {
		m.scheduleFinish(r, now)
		m.armCkptTimer(r)
	}

	for _, h := range m.hooks.starts {
		h(m, j, nodes)
	}
	return true
}

// scheduleFinish (re)arms the completion event based on remaining work and
// the job's current effective frequency.
func (m *Manager) scheduleFinish(r *running, now simulator.Time) {
	r.finish.Cancel()
	frac := m.Pw.JobFrac(r.job.ID)
	m.setFrac(r, frac)
	r.lastSync = now
	remainingWork := float64(r.job.TrueRuntime) - r.job.WorkDone
	if remainingWork < 0 {
		remainingWork = 0
	}
	slow := power.Slowdown(frac, r.job.MemFrac) * r.commSlow
	dur := simulator.Time(remainingWork*slow + 0.5)
	if dur < 1 && remainingWork > 0 {
		dur = 1
	}
	end := now + dur
	if m.EnforceWalltime {
		wallEnd := r.job.Start + r.job.Walltime
		if wallEnd < end {
			r.finish = m.Eng.After(wallEnd-now, "walltime-kill", func(t simulator.Time) {
				m.KillJob(r.job.ID, "walltime exceeded", t)
			})
			return
		}
	}
	r.finish = m.Eng.After(end-now, "job-finish", func(t simulator.Time) {
		m.finishJob(r.job.ID, t)
	})
}

// syncProgress brings WorkDone up to now at the rate the job has been
// running since lastSync. During checkpoint write/restore/drain phases the
// job is stalled in I/O: the clock advances but WorkDone does not.
func (m *Manager) syncProgress(r *running, now simulator.Time) {
	if r.phase != phaseComputing {
		r.lastSync = now
		return
	}
	dt := float64(now - r.lastSync)
	if dt <= 0 {
		return
	}
	slow := power.Slowdown(r.curFrac, r.job.MemFrac) * r.commSlow
	if slow <= 0 {
		slow = 1
	}
	r.job.WorkDone += dt / slow
	r.job.LastProgress = now
	r.lastSync = now
}

// RetimeJob must be called after anything changes a running job's effective
// frequency (cap changes, DVFS actuation, power sharing). It accounts
// progress at the old rate and re-arms the finish event at the new rate.
func (m *Manager) RetimeJob(id int64, now simulator.Time) {
	r := m.runningJobs[id]
	if r == nil {
		return
	}
	if r.phase != phaseComputing {
		// Stalled in checkpoint I/O: there is no finish event to re-arm.
		// The commit/restore path calls scheduleFinish with the then-current
		// frequency when compute resumes.
		return
	}
	m.syncProgress(r, now)
	m.scheduleFinish(r, now)
}

// RetimeAll retimes every running job — used after bulk cap changes — in
// the running index's ID order, because simultaneous finish events fire in
// scheduling order.
func (m *Manager) RetimeAll(now simulator.Time) {
	m.runIndex.each(func(r *running) { m.RetimeJob(r.job.ID, now) })
}

func (m *Manager) addRunning(r *running) {
	r.end = expectedEnd(r)
	m.runIndex.insert(runKey{id: r.job.ID}, r)
	m.endIndex.insert(runKey{end: r.end, id: r.job.ID}, r)
	m.runningJobs[r.job.ID] = r
}

func (m *Manager) removeRunning(id int64) {
	if r := m.runningJobs[id]; r != nil {
		m.runIndex.remove(runKey{id: id})
		m.endIndex.remove(runKey{end: r.end, id: id})
		delete(m.runningJobs, id)
	}
}

// setFrac records the frequency r's finish event assumes, and moves r in
// the end index when that changes its expected end. It reports whether r
// moved; a record no longer indexed (a hook ended its job) is not put back.
func (m *Manager) setFrac(r *running, frac float64) bool {
	r.curFrac = frac
	end := expectedEnd(r)
	if end == r.end || !m.endIndex.remove(runKey{end: r.end, id: r.job.ID}) {
		return false
	}
	r.end = end
	m.endIndex.insert(runKey{end: end, id: r.job.ID}, r)
	return true
}

// endStint closes one run stint's wallclock account; every path that takes
// a job off its nodes goes through here before overwriting or abandoning
// j.Start.
func (m *Manager) endStint(r *running, now simulator.Time) {
	r.job.RunSeconds += float64(now - r.job.Start)
}

// finalizeJobPower fills the job-level power account (energy, average and
// peak aggregate draw) from the power system's meter. Called when a job
// reaches a terminal state — the meter itself accumulates across stints.
func (m *Manager) finalizeJobPower(j *jobs.Job) {
	j.EnergyJ = m.Pw.JobEnergy(j.ID)
	j.PeakPowerW = m.Pw.JobPeakPower(j.ID)
	if j.RunSeconds > 0 {
		j.AvgPowerW = j.EnergyJ / j.RunSeconds
	}
}

// traceRunSpan emits the stint span for a job leaving its nodes.
func (m *Manager) traceRunSpan(r *running, now simulator.Time, outcome string, args ...trace.Arg) {
	if m.Tr == nil {
		return
	}
	as := make([]trace.Arg, 0, len(args)+3)
	as = append(as, trace.Arg{Key: "outcome", Val: outcome},
		trace.Arg{Key: "nodes", Val: len(r.nodes)},
		trace.Arg{Key: "system", Val: m.Cl.Cfg.Name})
	as = append(as, args...)
	m.Tr.Span(trace.PidJobs, int(r.job.ID), "run", r.job.Start, now, as...)
}

func (m *Manager) finishJob(id int64, now simulator.Time) {
	r := m.runningJobs[id]
	if r == nil {
		return
	}
	if m.Prof != nil {
		m.Prof.Enter(prof.Jobs)
		defer m.Prof.Exit()
	}
	m.syncProgress(r, now)
	m.cancelIO(r)
	m.removeRunning(id)
	j := r.job
	j.State = jobs.StateCompleted
	j.End = now
	m.endStint(r, now)
	m.Pw.EndJob(now, id, r.nodes)
	m.finalizeJobPower(j)
	m.traceRunSpan(r, now, "completed",
		trace.Arg{Key: "energy_j", Val: j.EnergyJ},
		trace.Arg{Key: "avg_w", Val: j.AvgPowerW},
		trace.Arg{Key: "peak_w", Val: j.PeakPowerW})
	released := m.Cl.Release(id, now)
	m.finishDrains(released, now)
	m.Metrics.noteRelease(now, len(r.nodes), m.Cl.Size())
	m.Metrics.noteCompletion(j)
	for _, h := range m.hooks.ends {
		h(m, j)
	}
	m.TrySchedule(now)
}

// KillJob terminates a running job (emergency power response, walltime
// overrun). The job keeps its metered energy; its nodes free immediately.
func (m *Manager) KillJob(id int64, reason string, now simulator.Time) bool {
	r := m.runningJobs[id]
	if r == nil {
		return false
	}
	if m.Prof != nil {
		m.Prof.Enter(prof.Jobs)
		defer m.Prof.Exit()
	}
	m.syncProgress(r, now)
	r.finish.Cancel()
	m.cancelIO(r)
	// A kill discards everything the job had computed, checkpointed or not.
	lost := r.job.WorkDone * float64(len(r.nodes))
	m.Metrics.LostWorkSeconds += lost
	r.job.LostWorkSeconds += lost
	m.removeRunning(id)
	j := r.job
	j.State = jobs.StateKilled
	j.KillReason = reason
	j.End = now
	m.endStint(r, now)
	m.Pw.EndJob(now, id, r.nodes)
	m.finalizeJobPower(j)
	m.traceRunSpan(r, now, "killed",
		trace.Arg{Key: "reason", Val: reason},
		trace.Arg{Key: "lost_node_s", Val: lost})
	released := m.Cl.Release(id, now)
	m.finishDrains(released, now)
	m.Metrics.noteRelease(now, len(r.nodes), m.Cl.Size())
	m.Metrics.noteKill(j)
	for _, h := range m.hooks.ends {
		h(m, j)
	}
	m.TrySchedule(now)
	return true
}

// PreemptJob removes a running job from its nodes and returns it to the
// queue. What it costs depends on the checkpoint substrate:
//
//   - Substrate active: the job pays a demand-checkpoint drain — it holds
//     its nodes (and draws I/O power) for the image write, then releases
//     them and later resumes from the image, paying the restart read. The
//     call returns true immediately; the release happens when the write
//     commits. Mid-restore preemption releases at once (the durable image
//     is intact); mid-write preemption lets the in-flight write double as
//     the drain.
//   - FreeCheckpoint: the legacy idealization — progress survives and the
//     nodes free instantly at zero cost.
//   - Neither: honest accounting. There is nothing to resume from, so
//     preemption discards all accumulated progress exactly like a crash
//     (LostWorkSeconds records the damage).
//
// Emergency power response can use this as a gentler actuator than RIKEN's
// automated killing where the software stack supports checkpoint/restart.
// Returns false if the job is not running or already draining.
func (m *Manager) PreemptJob(id int64, now simulator.Time) bool {
	r := m.runningJobs[id]
	if r == nil || r.phase == phasePreemptDrain {
		return false
	}
	if m.ckptActive() {
		return m.preemptWithCheckpoint(r, now)
	}
	m.syncProgress(r, now)
	r.finish.Cancel()
	j := r.job
	if !m.FreeCheckpoint {
		lost := j.WorkDone * float64(len(r.nodes))
		m.Metrics.LostWorkSeconds += lost
		j.LostWorkSeconds += lost
		j.WorkDone = 0
	}
	m.requeuePreempted(r, now)
	return true
}

// requeuePreempted is the shared tail of every preemption flavor: release
// the placement and put the job back in the queue with whatever WorkDone
// the caller decided survives.
func (m *Manager) requeuePreempted(r *running, now simulator.Time) {
	j := r.job
	m.removeRunning(j.ID)
	j.State = jobs.StateQueued
	m.endStint(r, now)
	m.Pw.EndJob(now, j.ID, r.nodes)
	m.traceRunSpan(r, now, "preempted",
		trace.Arg{Key: "work_kept_s", Val: j.WorkDone})
	released := m.Cl.Release(j.ID, now)
	m.finishDrains(released, now)
	m.Metrics.noteRelease(now, len(r.nodes), m.Cl.Size())
	m.Metrics.Preemptions++
	m.Queue.Push(j)
	if m.Tr != nil {
		m.trQueued[j.ID] = now
	}
	m.TrySchedule(now)
}

// FailNode transitions a node to down — a crash, not an administrative
// drain. A job running on the node loses the node immediately: it is
// requeued from scratch while it has requeue budget left (MaxRequeues) and
// killed once the budget is exhausted, with the reason recorded. Returns
// false if the node is already down. Repair brings the node back.
func (m *Manager) FailNode(id int, now simulator.Time) bool {
	if id < 0 || id >= m.Cl.Size() {
		return false
	}
	n := m.Cl.Nodes[id]
	if n.State == cluster.StateDown {
		return false
	}
	jobID := n.JobID
	m.Cl.SetDown(n, now)
	m.Pw.RefreshNode(now, n)
	m.Metrics.NodeFailures++
	if m.Tr != nil {
		m.Tr.Instant(trace.PidFault, 0, "node-down", now,
			trace.Arg{Key: "node", Val: n.Name}, trace.Arg{Key: "job", Val: jobID})
	}
	if jobID != 0 {
		m.failJob(jobID, n, now)
	}
	m.TrySchedule(now)
	return true
}

// RepairNode returns a down node to service and immediately offers it to
// the queue. Returns false if the node was not down.
func (m *Manager) RepairNode(id int, now simulator.Time) bool {
	if id < 0 || id >= m.Cl.Size() {
		return false
	}
	n := m.Cl.Nodes[id]
	if !m.Cl.Repair(n, now) {
		return false
	}
	m.Pw.RefreshNode(now, n)
	if m.Tr != nil {
		m.Tr.Instant(trace.PidFault, 0, "node-up", now,
			trace.Arg{Key: "node", Val: n.Name})
	}
	m.TrySchedule(now)
	return true
}

// failJob handles a running job that just lost node `failed`: release its
// placement (the failed node stays down), then requeue or kill. With the
// checkpoint substrate active the job rolls back to its last durable
// image; without it a crash discards all progress. A crash mid-checkpoint
// or mid-restore aborts the I/O — a half-written image is never durable,
// so the rollback target is always the previous completed checkpoint.
func (m *Manager) failJob(id int64, failed *cluster.Node, now simulator.Time) {
	r := m.runningJobs[id]
	if r == nil {
		return
	}
	if m.Prof != nil {
		m.Prof.Enter(prof.Jobs)
		defer m.Prof.Exit()
	}
	m.syncProgress(r, now)
	r.finish.Cancel()
	m.cancelIO(r)
	m.removeRunning(id)
	j := r.job
	m.endStint(r, now)
	m.Pw.EndJob(now, id, r.nodes)
	released := m.Cl.Release(id, now)
	m.finishDrains(released, now)
	m.Metrics.noteRelease(now, len(r.nodes), m.Cl.Size())
	if j.Requeues < m.MaxRequeues {
		j.Requeues++
		j.State = jobs.StateQueued
		// Roll back to the last durable checkpoint — or to zero without a
		// substrate, where the job restarts from scratch and may be
		// reshaped again at its next start.
		target := 0.0
		if m.ckptActive() {
			target = j.CheckpointWork
			if target > j.WorkDone {
				target = j.WorkDone
			}
		}
		lost := (j.WorkDone - target) * float64(len(r.nodes))
		m.Metrics.LostWorkSeconds += lost
		j.LostWorkSeconds += lost
		j.WorkDone = target
		m.Metrics.Requeues++
		m.traceRunSpan(r, now, "node-failure-requeue",
			trace.Arg{Key: "failed_node", Val: failed.Name},
			trace.Arg{Key: "rollback_to_s", Val: target},
			trace.Arg{Key: "lost_node_s", Val: lost})
		if m.ckptActive() {
			for _, h := range m.hooks.checkpoints {
				h(m, j, CkptRolledBack, lost/float64(len(r.nodes)))
			}
		}
		for _, h := range m.hooks.failures {
			h(m, j, failed, true)
		}
		m.Queue.Push(j)
		if m.Tr != nil {
			m.trQueued[j.ID] = now
		}
		return
	}
	lost := j.WorkDone * float64(len(r.nodes))
	m.Metrics.LostWorkSeconds += lost
	j.LostWorkSeconds += lost
	j.State = jobs.StateKilled
	j.KillReason = fmt.Sprintf("node failure on %s: requeue limit %d exhausted", failed.Name, m.MaxRequeues)
	j.End = now
	m.finalizeJobPower(j)
	m.traceRunSpan(r, now, "node-failure-kill",
		trace.Arg{Key: "failed_node", Val: failed.Name},
		trace.Arg{Key: "lost_node_s", Val: lost})
	m.Metrics.noteKill(j)
	for _, h := range m.hooks.failures {
		h(m, j, failed, false)
	}
	for _, h := range m.hooks.ends {
		h(m, j)
	}
}

// finishDrains completes the shutdown of nodes that were released in
// draining state.
func (m *Manager) finishDrains(nodes []*cluster.Node, now simulator.Time) {
	for _, n := range nodes {
		m.Pw.RefreshNode(now, n)
		if n.State == cluster.StateShuttingDown {
			nn := n
			m.Eng.After(m.Cl.Cfg.ShutdownDelay, "drain-off", func(t simulator.Time) {
				m.Cl.FinishShutdown(nn, t)
				m.Pw.RefreshNode(t, nn)
			})
		}
	}
}

// Running returns the executing jobs in ID order, as a fresh slice the
// caller may re-sort. The order matters: any consumer that breaks ties by
// encounter order (emergency victim selection, Status's width sort) must
// see a deterministic sequence or runs stop being reproducible.
func (m *Manager) Running() []*jobs.Job {
	out := make([]*jobs.Job, 0, m.runIndex.n)
	m.runIndex.each(func(r *running) { out = append(out, r.job) })
	return out
}

// RunningJob returns the executing job with the given ID, or nil.
func (m *Manager) RunningJob(id int64) *jobs.Job {
	if r := m.runningJobs[id]; r != nil {
		return r.job
	}
	return nil
}

// RunningCount returns how many jobs are executing.
func (m *Manager) RunningCount() int { return len(m.runningJobs) }

// JobNodes exposes a running job's placement.
func (m *Manager) JobNodes(id int64) []*cluster.Node {
	if r := m.runningJobs[id]; r != nil {
		return r.nodes
	}
	return nil
}

// EstimatedStartPower predicts the additional draw starting job j would
// cause, using the configured estimator and the idle draw its nodes stop
// paying. If the job needs more nodes than are currently available — so a
// node-on/off policy would have to boot powered-off nodes for it — the
// off-to-idle (and boot-transient) delta for the shortfall is included,
// otherwise power-cap gates systematically under-estimate starts on green
// (partially powered-down) machines. Boot-window and emergency policies
// gate on this.
func (m *Manager) EstimatedStartPower(j *jobs.Job) float64 {
	per := m.PowerEstimator(j)
	if per < m.Pw.Model.IdleW {
		per = m.Pw.Model.IdleW
	}
	add := float64(j.Nodes) * (per - m.Pw.Model.IdleW)
	if short := j.Nodes - m.Cl.AvailableCount(m.eligibleFilter(j)); short > 0 {
		transient := m.Pw.Model.IdleW
		if m.Pw.Model.BootW > transient {
			transient = m.Pw.Model.BootW
		}
		add += float64(short) * (transient - m.Pw.Model.OffW)
	}
	return add
}

// Run drives the simulation to the horizon (every queued event at or before
// horizon fires; horizon < 0 runs to quiescence) and closes the metrics
// integration at the final time. Periodic policy loops are daemon events:
// they do not keep an unbounded run alive, so when a policy gates queued
// jobs on conditions only its own loop re-evaluates (temperature, window
// averages), run with an explicit horizon.
func (m *Manager) Run(horizon simulator.Time) simulator.Time {
	end := m.Eng.RunUntil(horizon)
	m.FinishRun(end)
	return end
}

// FinishRun closes the run's accounting at end: the power books are
// advanced to the final instant, utilization integration closes, and
// telemetry stops. Run calls it; drivers that advance the engine in
// slices themselves (the ops-served run in cmd/epasim, which yields the
// state lock between slices so live endpoints can read a quiescent
// manager) call it once after the last slice. Splitting it off is what
// makes the sliced run byte-equivalent to a single Run call — the engine
// fires the same events in the same order either way, and the closing
// accounting happens exactly once at the same final time.
func (m *Manager) FinishRun(end simulator.Time) {
	m.Pw.Advance(end)
	m.Metrics.close(end, m.Cl.Size())
	// One final history sample/evaluation at the exact end instant (a
	// no-op when the last periodic sample already landed there), then
	// close open alert episodes so summaries account the tail.
	if m.Hist != nil {
		m.Hist.Sample(end)
		if m.Watch != nil {
			m.Watch.Eval(end)
		}
	}
	if m.Watch != nil {
		m.Watch.Finish(end)
	}
	m.Tel.Stop()
	m.RunEnded = true
}
