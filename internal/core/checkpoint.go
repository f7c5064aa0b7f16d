package core

import (
	"epajsrm/internal/prof"
	"epajsrm/internal/simulator"
	"epajsrm/internal/trace"
)

// runPhase is where a running job is in its checkpoint lifecycle. The job
// holds its nodes in every phase; it makes compute progress only while
// phaseComputing.
type runPhase int

const (
	// phaseComputing: normal execution, finish event armed.
	phaseComputing runPhase = iota
	// phaseCkptWrite: a periodic checkpoint image is being written; the
	// image becomes durable only when the write completes.
	phaseCkptWrite
	// phaseRestore: the job is reading its image back after a restart;
	// compute resumes when the read completes.
	phaseRestore
	// phasePreemptDrain: a demand checkpoint is being written so the job
	// can vacate its nodes; the nodes release when the write commits.
	phasePreemptDrain
)

// ckptActive reports whether the checkpoint substrate governs this run.
// FreeCheckpoint bypasses it entirely (the legacy zero-cost idealization).
func (m *Manager) ckptActive() bool {
	return m.Ckpt != nil && m.Ckpt.Cfg.Enabled() && !m.FreeCheckpoint
}

// armCkptTimer schedules the next periodic checkpoint for r. The timer is
// a daemon event: pending future checkpoints never keep an unbounded run
// alive (in-flight checkpoint I/O does — see beginCheckpoint).
func (m *Manager) armCkptTimer(r *running) {
	if !m.ckptActive() || m.Ckpt.Cfg.Interval <= 0 {
		return
	}
	r.ckptTimer = m.Eng.AfterDaemon(m.Ckpt.Cfg.Interval, "ckpt-timer", func(t simulator.Time) {
		m.beginCheckpoint(r, t)
	})
}

// beginCheckpoint starts a periodic checkpoint write: progress is synced
// and frozen, the finish event is cancelled, the job draws I/O power, and
// a non-daemon completion event is scheduled — an in-flight write always
// runs to completion (or aborts on crash/kill), even in unbounded runs.
func (m *Manager) beginCheckpoint(r *running, now simulator.Time) {
	r.ckptTimer = simulator.Handle{}
	if m.runningJobs[r.job.ID] != r || r.phase != phaseComputing {
		return
	}
	if m.Prof != nil {
		m.Prof.Enter(prof.Checkpoint)
		defer m.Prof.Exit()
	}
	m.syncProgress(r, now)
	r.finish.Cancel()
	r.finish = simulator.Handle{}
	r.phase = phaseCkptWrite
	r.ioActive = true
	r.ioWork = r.job.WorkDone
	dur := m.Ckpt.BeginWrite(len(r.nodes), m.Cl.Cfg.MemGB)
	m.Pw.SetJobAux(now, r.job.ID, m.Ckpt.Cfg.IOPowerW)
	r.ioDone = m.Eng.After(dur, "ckpt-write", func(t simulator.Time) {
		m.commitCheckpoint(r, t, float64(dur))
	})
}

// commitCheckpoint makes the in-flight image durable. If a preemption
// converted the write into a drain, the job releases its nodes now;
// otherwise compute resumes and the next periodic checkpoint is armed.
func (m *Manager) commitCheckpoint(r *running, now simulator.Time, stall float64) {
	if m.Prof != nil {
		m.Prof.Enter(prof.Checkpoint)
		defer m.Prof.Exit()
	}
	r.ioDone = simulator.Handle{}
	r.ioActive = false
	m.Ckpt.EndIO()
	j := r.job
	j.CheckpointWork = r.ioWork
	j.Checkpoints++
	m.Metrics.CheckpointsWritten++
	m.Metrics.CheckpointWriteSeconds += stall
	if m.Tr != nil {
		name := "ckpt-write"
		if r.phase == phasePreemptDrain {
			name = "ckpt-drain"
		}
		m.Tr.Span(trace.PidJobs, int(j.ID), name, now-simulator.Time(stall), now,
			trace.Arg{Key: "work_captured_s", Val: r.ioWork})
	}
	for _, h := range m.hooks.checkpoints {
		h(m, j, CkptWritten, stall)
	}
	if r.phase == phasePreemptDrain {
		r.phase = phaseComputing
		m.requeuePreempted(r, now) // EndJob clears the aux draw with the loads
		return
	}
	m.Pw.SetJobAux(now, j.ID, 0)
	r.phase = phaseComputing
	m.scheduleFinish(r, now)
	m.armCkptTimer(r)
}

// beginRestore starts the restart read for a job resuming from its image.
// Called from startJob after the placement and power registration, before
// any finish event exists.
func (m *Manager) beginRestore(r *running, now simulator.Time) {
	if m.Prof != nil {
		m.Prof.Enter(prof.Checkpoint)
		defer m.Prof.Exit()
	}
	r.phase = phaseRestore
	r.ioActive = true
	dur := m.Ckpt.BeginRead(len(r.nodes), m.Cl.Cfg.MemGB)
	m.Pw.SetJobAux(now, r.job.ID, m.Ckpt.Cfg.IOPowerW)
	r.ioDone = m.Eng.After(dur, "ckpt-restore", func(t simulator.Time) {
		m.finishRestore(r, t, float64(dur))
	})
}

// finishRestore completes the restart read; compute resumes from the
// restored WorkDone. Restores interrupted by a crash or preemption never
// reach here and are not counted — only completed reads are.
func (m *Manager) finishRestore(r *running, now simulator.Time, stall float64) {
	if m.Prof != nil {
		m.Prof.Enter(prof.Checkpoint)
		defer m.Prof.Exit()
	}
	r.ioDone = simulator.Handle{}
	r.ioActive = false
	m.Ckpt.EndIO()
	m.Pw.SetJobAux(now, r.job.ID, 0)
	m.Metrics.CheckpointRestores++
	m.Metrics.RestartReadSeconds += stall
	if m.Tr != nil {
		m.Tr.Span(trace.PidJobs, int(r.job.ID), "ckpt-restore", now-simulator.Time(stall), now,
			trace.Arg{Key: "resume_work_s", Val: r.job.WorkDone})
	}
	r.phase = phaseComputing
	r.lastSync = now
	r.job.LastProgress = now
	m.scheduleFinish(r, now)
	m.armCkptTimer(r)
	for _, h := range m.hooks.checkpoints {
		h(m, r.job, CkptRestored, stall)
	}
}

// preemptWithCheckpoint implements PreemptJob under an active substrate:
// the job drains through a demand-checkpoint write before vacating.
func (m *Manager) preemptWithCheckpoint(r *running, now simulator.Time) bool {
	if m.Prof != nil {
		m.Prof.Enter(prof.Checkpoint)
		defer m.Prof.Exit()
	}
	switch r.phase {
	case phaseRestore:
		// Nothing new has been computed and the durable image is intact:
		// abort the read and release immediately.
		m.cancelIO(r)
		m.requeuePreempted(r, now)
	case phaseCkptWrite:
		// A periodic write is already in flight — let it double as the
		// demand checkpoint; the nodes release when it commits.
		r.phase = phasePreemptDrain
	default:
		m.syncProgress(r, now)
		r.finish.Cancel()
		r.finish = simulator.Handle{}
		r.ckptTimer.Cancel()
		r.ckptTimer = simulator.Handle{}
		r.phase = phasePreemptDrain
		r.ioActive = true
		r.ioWork = r.job.WorkDone
		dur := m.Ckpt.BeginWrite(len(r.nodes), m.Cl.Cfg.MemGB)
		m.Pw.SetJobAux(now, r.job.ID, m.Ckpt.Cfg.IOPowerW)
		r.ioDone = m.Eng.After(dur, "ckpt-drain", func(t simulator.Time) {
			m.commitCheckpoint(r, t, float64(dur))
		})
	}
	return true
}

// PendingShedW estimates the IT power that will drop once in-flight
// preemption drains commit: for every job in phasePreemptDrain, the draw
// of its nodes above what the same nodes cost idle. Shedding policies
// subtract this before choosing more victims — a drain takes a checkpoint
// write to land, and a control loop that only watches instantaneous power
// would preempt the whole machine while the first drain is still writing.
// It walks the ID-ordered running index so the float sum is deterministic.
func (m *Manager) PendingShedW() float64 {
	t := 0.0
	m.runIndex.each(func(r *running) {
		if r.phase != phasePreemptDrain {
			return
		}
		shed := m.Pw.PowerOfNodes(r.nodes) - float64(len(r.nodes))*m.Pw.Model.IdleW
		if shed > 0 {
			t += shed
		}
	})
	return t
}

// cancelIO tears down r's checkpoint machinery: the pending periodic
// timer, and any in-flight write or read — which thereby never becomes
// durable (write) or counted (read). Callers that end the job rely on
// Pw.EndJob to clear the aux I/O draw along with the loads.
func (m *Manager) cancelIO(r *running) {
	r.ckptTimer.Cancel()
	r.ckptTimer = simulator.Handle{}
	if r.ioActive {
		r.ioDone.Cancel()
		r.ioDone = simulator.Handle{}
		r.ioActive = false
		m.Ckpt.EndIO()
	}
	r.phase = phaseComputing
}
