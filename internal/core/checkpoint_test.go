package core

import (
	"testing"

	"epajsrm/internal/checkpoint"
	"epajsrm/internal/cluster"
	"epajsrm/internal/jobs"
	"epajsrm/internal/sched"
	"epajsrm/internal/simulator"
)

// ckptMgr builds a manager with the checkpoint substrate enabled. With the
// default cluster (128 GB nodes) and BW 10 GB/s / StateFrac 0.3, a 4-node
// image is 153.6 GB: 16 s to write or read uncontended.
func ckptMgr(t *testing.T, interval simulator.Time) *Manager {
	t.Helper()
	return NewManager(Options{
		Cluster:   cluster.DefaultConfig(),
		Scheduler: sched.EASY{},
		Seed:      1,
		Checkpoint: checkpoint.Config{
			Interval:  interval,
			BWGBps:    10,
			StateFrac: 0.3,
			IOPowerW:  30,
		},
	})
}

// ckptJob is a compute-bound job so progress arithmetic is exact: 1 s of
// wall time = 1 s of work at nominal frequency.
func ckptJob(id int64, nodes int, run simulator.Time) *jobs.Job {
	j := mkJob(id, nodes, run)
	j.MemFrac = 0
	j.Walltime = 4 * run
	return j
}

// TestCheckpointCrashTimelineExact walks the full lifecycle on an exact
// timeline: periodic writes stall compute, a crash rolls back to the last
// durable image, the restart read is charged before compute resumes.
func TestCheckpointCrashTimelineExact(t *testing.T) {
	m := ckptMgr(t, 30*simulator.Minute)
	j := ckptJob(1, 4, 2*simulator.Hour)
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	var written, restored, rolledBack int
	m.OnCheckpoint(func(_ *Manager, _ *jobs.Job, ev CkptEvent, _ float64) {
		switch ev {
		case CkptWritten:
			written++
		case CkptRestored:
			restored++
		case CkptRolledBack:
			rolledBack++
		}
	})
	// Checkpoints start at 1800 and 3616, committing at 1816 (work 1800)
	// and 3632 (work 3600). Crash one of the job's nodes at 4200.
	m.Eng.After(4200, "crash", func(now simulator.Time) {
		nodes := m.JobNodes(1)
		if nodes == nil {
			t.Fatal("job not running at crash time")
		}
		m.FailNode(nodes[0].ID, now)
	})
	m.Eng.After(4200, "post-crash", func(simulator.Time) {
		// Work at the crash was 3600 + (4200-3632) = 4168; the half
		// interval since the durable image rolls back.
		if j.WorkDone != 3600 {
			t.Fatalf("WorkDone after rollback = %f, want 3600", j.WorkDone)
		}
	})
	m.Run(-1)
	if j.State != jobs.StateCompleted {
		t.Fatalf("state = %v (%s)", j.State, j.KillReason)
	}
	// Restart at 4200 + 16 s restore; third checkpoint 6016→6032 (work
	// 5400); remaining 1800 s of work ends the job at 7832.
	if j.End != 7832 {
		t.Fatalf("end = %d, want 7832", j.End)
	}
	if m.Metrics.CheckpointsWritten != 3 || j.Checkpoints != 3 {
		t.Fatalf("checkpoints = %d/%d, want 3", m.Metrics.CheckpointsWritten, j.Checkpoints)
	}
	if m.Metrics.CheckpointRestores != 1 {
		t.Fatalf("restores = %d, want 1", m.Metrics.CheckpointRestores)
	}
	if m.Metrics.CheckpointWriteSeconds != 48 || m.Metrics.RestartReadSeconds != 16 {
		t.Fatalf("stall seconds = %f write / %f read, want 48/16",
			m.Metrics.CheckpointWriteSeconds, m.Metrics.RestartReadSeconds)
	}
	// 568 s of work × 4 nodes rolled back.
	if m.Metrics.LostWorkSeconds != 2272 {
		t.Fatalf("lost work = %f node-s, want 2272", m.Metrics.LostWorkSeconds)
	}
	if written != 3 || restored != 1 || rolledBack != 1 {
		t.Fatalf("hooks: written=%d restored=%d rolledBack=%d, want 3/1/1", written, restored, rolledBack)
	}
	if m.Ckpt.InFlight() != 0 {
		t.Fatalf("in-flight I/O leaked: %d", m.Ckpt.InFlight())
	}
}

// TestCrashDuringCheckpointWrite crashes a node while the image is being
// written: the half-written image must never become durable, so the job
// rolls back to the previous durable state (here: nothing).
func TestCrashDuringCheckpointWrite(t *testing.T) {
	m := ckptMgr(t, 30*simulator.Minute)
	j := ckptJob(1, 4, 2*simulator.Hour)
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	// First write runs 1800–1816; crash in the middle of it.
	m.Eng.After(1810, "crash", func(now simulator.Time) {
		m.FailNode(m.JobNodes(1)[0].ID, now)
	})
	m.Eng.After(1810, "post-crash", func(simulator.Time) {
		if j.WorkDone != 0 {
			t.Fatalf("rolled back to %f; a half-written image must not be durable", j.WorkDone)
		}
		if j.CheckpointWork != 0 || j.Checkpoints != 0 {
			t.Fatalf("aborted write became durable: work=%f count=%d", j.CheckpointWork, j.Checkpoints)
		}
		if m.Ckpt.InFlight() != 0 {
			t.Fatalf("aborted write leaked in-flight slot: %d", m.Ckpt.InFlight())
		}
	})
	m.Run(-1)
	if j.State != jobs.StateCompleted {
		t.Fatalf("state = %v (%s)", j.State, j.KillReason)
	}
	// All 1800 s × 4 nodes were lost — the write never committed.
	if m.Metrics.LostWorkSeconds != 7200 {
		t.Fatalf("lost work = %f, want 7200", m.Metrics.LostWorkSeconds)
	}
	// Restarted from scratch at 1810: no restore read happened.
	if m.Metrics.CheckpointRestores != 0 {
		t.Fatalf("restores = %d, want 0 (restart was from scratch)", m.Metrics.CheckpointRestores)
	}
}

// TestCrashDuringRestore crashes a node while the job is reading its image
// back: the durable image survives, nothing new is lost, and the aborted
// read is not counted as a completed restore.
func TestCrashDuringRestore(t *testing.T) {
	m := ckptMgr(t, 30*simulator.Minute)
	j := ckptJob(1, 4, 2*simulator.Hour)
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	// Durable image at 1816 (work 1800). First crash at 2000 rolls back
	// 184 s and triggers a restore 2000–2016; second crash at 2010 lands
	// mid-restore.
	m.Eng.After(2000, "crash-1", func(now simulator.Time) {
		m.FailNode(m.JobNodes(1)[0].ID, now)
	})
	m.Eng.After(2010, "crash-2", func(now simulator.Time) {
		m.FailNode(m.JobNodes(1)[0].ID, now)
	})
	m.Eng.After(2010, "post-crash", func(simulator.Time) {
		if j.WorkDone != 1800 {
			t.Fatalf("WorkDone = %f, want the durable 1800 (restore loses nothing)", j.WorkDone)
		}
		if j.Requeues != 2 {
			t.Fatalf("requeues = %d, want 2", j.Requeues)
		}
		// The aborted read released its bandwidth slot and the restart at
		// 2010 already began a fresh read — exactly one in flight.
		if m.Ckpt.InFlight() != 1 {
			t.Fatalf("in-flight = %d, want 1 (aborted read freed, new read started)", m.Ckpt.InFlight())
		}
	})
	m.Run(-1)
	if j.State != jobs.StateCompleted {
		t.Fatalf("state = %v (%s)", j.State, j.KillReason)
	}
	// Crash 1: 184 s × 4 = 736 node-s lost; crash 2: zero (mid-restore).
	if m.Metrics.LostWorkSeconds != 736 {
		t.Fatalf("lost work = %f, want 736", m.Metrics.LostWorkSeconds)
	}
	// Only the restore that ran to completion (2010–2026) counts.
	if m.Metrics.CheckpointRestores != 1 {
		t.Fatalf("restores = %d, want 1 (the aborted read must not count)", m.Metrics.CheckpointRestores)
	}
	// Resume at 2026 with 5400 s left; checkpoints at 3826→3842 (3600)
	// and 5642→5658 (5400); finish 1800 s later.
	if j.End != 7458 {
		t.Fatalf("end = %d, want 7458", j.End)
	}
}

// TestPreemptDrainsThroughDemandCheckpoint: with the substrate active,
// PreemptJob holds the nodes for a demand-checkpoint write, then releases
// them; the job later resumes from the image, paying the restart read.
func TestPreemptDrainsThroughDemandCheckpoint(t *testing.T) {
	m := ckptMgr(t, 0) // demand checkpoints only
	j := ckptJob(1, 4, 2*simulator.Hour)
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	gate := true
	m.OnStartGate(func(_ *Manager, _ *jobs.Job) bool { return gate })
	m.Eng.After(3600, "preempt", func(now simulator.Time) {
		gate = false
		if !m.PreemptJob(1, now) {
			t.Error("preempt refused")
		}
		// The drain holds the nodes until the write commits at 3616, and
		// their draw above idle counts as pending shed until then.
		nodes := m.JobNodes(1)
		if nodes == nil {
			t.Error("nodes released before the demand checkpoint committed")
		}
		want := m.Pw.PowerOfNodes(nodes) - float64(len(nodes))*m.Pw.Model.IdleW
		if got := m.PendingShedW(); want <= 0 || got != want {
			t.Errorf("pending shed during the drain = %f, want %f > 0", got, want)
		}
		if m.PreemptJob(1, now) {
			t.Error("double preempt of a draining job must be refused")
		}
	})
	m.Eng.After(3620, "post-drain", func(simulator.Time) {
		if m.JobNodes(1) != nil {
			t.Error("nodes still held after the drain committed")
		}
		if got := m.PendingShedW(); got != 0 {
			t.Errorf("pending shed after the drain committed = %f, want 0", got)
		}
		if j.WorkDone != 3600 || j.CheckpointWork != 3600 {
			t.Errorf("drain saved work=%f ckpt=%f, want 3600", j.WorkDone, j.CheckpointWork)
		}
	})
	m.Eng.After(5000, "resume", func(now simulator.Time) {
		gate = true
		m.TrySchedule(now)
	})
	m.Run(-1)
	if j.State != jobs.StateCompleted {
		t.Fatalf("state = %v", j.State)
	}
	// Resume at 5000, 16 s restore, 3600 s of work left.
	if j.End != 8616 {
		t.Fatalf("end = %d, want 8616", j.End)
	}
	if m.Metrics.Preemptions != 1 || m.Metrics.CheckpointsWritten != 1 || m.Metrics.CheckpointRestores != 1 {
		t.Fatalf("preempts/writes/restores = %d/%d/%d, want 1/1/1",
			m.Metrics.Preemptions, m.Metrics.CheckpointsWritten, m.Metrics.CheckpointRestores)
	}
	if m.Metrics.LostWorkSeconds != 0 {
		t.Fatalf("lost work = %f, want 0 (drain preserves everything)", m.Metrics.LostWorkSeconds)
	}
}

// TestPreemptDuringWriteConverts: preempting a job mid-periodic-write lets
// the in-flight write double as the demand checkpoint — the nodes release
// when it commits, with no second write.
func TestPreemptDuringWriteConverts(t *testing.T) {
	m := ckptMgr(t, 30*simulator.Minute)
	j := ckptJob(1, 4, 2*simulator.Hour)
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	gate := true
	m.OnStartGate(func(_ *Manager, _ *jobs.Job) bool { return gate })
	m.Eng.After(1805, "preempt", func(now simulator.Time) { // write runs 1800–1816
		gate = false
		if !m.PreemptJob(1, now) {
			t.Error("preempt refused")
		}
	})
	m.Eng.After(1817, "post-commit", func(simulator.Time) {
		if m.JobNodes(1) != nil {
			t.Error("nodes still held after the converted write committed")
		}
		if j.CheckpointWork != 1800 {
			t.Errorf("converted write saved %f, want 1800", j.CheckpointWork)
		}
	})
	m.Eng.After(3000, "resume", func(now simulator.Time) {
		gate = true
		m.TrySchedule(now)
	})
	m.Run(-1)
	if j.State != jobs.StateCompleted {
		t.Fatalf("state = %v", j.State)
	}
	if m.Ckpt.Writes != 3 {
		// 1 converted drain + periodic ones after resume (3016+16 restore,
		// timers at 4832→commit, 6648→commit; finish fires before the
		// next). No extra drain write happened.
		t.Fatalf("writes = %d, want 3 (conversion, then two periodic)", m.Ckpt.Writes)
	}
	if m.Metrics.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", m.Metrics.Preemptions)
	}
}

// TestPreemptWithoutSubstrateLosesProgress: honest accounting — preemption
// without a checkpoint substrate discards progress like a crash.
func TestPreemptWithoutSubstrateLosesProgress(t *testing.T) {
	m := newTestManager(t)
	j := ckptJob(1, 4, 2*simulator.Hour)
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	gate := true
	m.OnStartGate(func(_ *Manager, _ *jobs.Job) bool { return gate })
	m.Eng.After(3600, "preempt", func(now simulator.Time) {
		gate = false
		m.PreemptJob(1, now)
		if j.WorkDone != 0 {
			t.Errorf("WorkDone = %f after uncheckpointed preemption, want 0", j.WorkDone)
		}
	})
	m.Eng.After(5000, "resume", func(now simulator.Time) {
		gate = true
		m.TrySchedule(now)
	})
	m.Run(-1)
	if j.State != jobs.StateCompleted {
		t.Fatalf("state = %v", j.State)
	}
	// Restarted from scratch at 5000: full 7200 s again.
	if j.End != 12200 {
		t.Fatalf("end = %d, want 12200", j.End)
	}
	if m.Metrics.LostWorkSeconds != 14400 { // 3600 s × 4 nodes
		t.Fatalf("lost work = %f, want 14400", m.Metrics.LostWorkSeconds)
	}
}

// TestCheckpointIOPowerVisible: the I/O draw of a checkpoint burst is
// additive on the job's nodes and lands in cap accounting — a site sitting
// at its cap goes over it exactly while the write is in flight.
func TestCheckpointIOPowerVisible(t *testing.T) {
	m := ckptMgr(t, 30*simulator.Minute)
	j := ckptJob(1, 4, 2*simulator.Hour)
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	var before, during, after float64
	m.Eng.After(1799, "before", func(simulator.Time) { before = m.Pw.TotalPower() })
	m.Eng.After(1805, "during", func(simulator.Time) { during = m.Pw.TotalPower() })
	m.Eng.After(1817, "after", func(simulator.Time) { after = m.Pw.TotalPower() })
	// A cap set just above steady state is violated only during the burst.
	capW := 0.0
	viol := 0.0
	m.Eng.After(1700, "set-cap", func(simulator.Time) { capW = m.Pw.TotalPower() + 1 })
	m.Eng.Every(simulator.Second, "viol-probe", func(simulator.Time) {
		if capW > 0 && m.Pw.TotalPower() > capW {
			viol++
		}
	})
	m.Run(3000)
	want := before + 4*30 // IOPowerW on each of the 4 nodes
	if during != want {
		t.Fatalf("power during write = %f, want %f (base %f + 4×30)", during, want, before)
	}
	if after != before {
		t.Fatalf("power after write = %f, want back to %f", after, before)
	}
	if viol == 0 {
		t.Fatal("checkpoint burst did not register as a cap violation")
	}
	if viol > 17 {
		t.Fatalf("violation lasted %f s, want only the 16 s write window", viol)
	}
}

// TestCheckpointZeroConfigMatchesBaseline: a manager with the substrate
// disabled behaves bit-for-bit like the seed — same finish time, no
// checkpoint metrics — and so does FreeCheckpoint with a live config.
func TestCheckpointZeroConfigMatchesBaseline(t *testing.T) {
	run := func(m *Manager) simulator.Time {
		j := ckptJob(1, 4, 2*simulator.Hour)
		if err := m.Submit(j, 0); err != nil {
			t.Fatal(err)
		}
		m.Run(-1)
		if m.Metrics.CheckpointsWritten != 0 || m.Metrics.CheckpointRestores != 0 {
			t.Fatalf("inactive substrate wrote %d/%d checkpoints", m.Metrics.CheckpointsWritten, m.Metrics.CheckpointRestores)
		}
		return j.End
	}
	base := run(newTestManager(t))
	zero := run(NewManager(Options{Cluster: cluster.DefaultConfig(), Scheduler: sched.EASY{}, Seed: 1}))
	free := NewManager(Options{
		Cluster: cluster.DefaultConfig(), Scheduler: sched.EASY{}, Seed: 1,
		Checkpoint: checkpoint.Config{Interval: simulator.Hour, BWGBps: 10, StateFrac: 0.3},
	})
	free.FreeCheckpoint = true
	freeEnd := run(free)
	if base != zero || base != freeEnd {
		t.Fatalf("ends diverge: base=%d zero=%d free=%d", base, zero, freeEnd)
	}
}

// TestContendedCheckpointsSlowEachOther: two jobs whose periodic writes
// overlap share the burst-buffer bandwidth, so the contended write takes
// longer than an uncontended one.
func TestContendedCheckpointsSlowEachOther(t *testing.T) {
	m := ckptMgr(t, 30*simulator.Minute)
	j1 := ckptJob(1, 4, 2*simulator.Hour)
	j2 := ckptJob(2, 4, 2*simulator.Hour)
	if err := m.Submit(j1, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(j2, 0); err != nil {
		t.Fatal(err)
	}
	m.Run(-1)
	// Both start at 0, both checkpoint at 1800: the first Begin sees one
	// in-flight (16 s), the second two (31 s). Total write stall across
	// the run reflects the contention (uncontended total would be 16×4).
	if m.Metrics.CheckpointWriteSeconds <= 64 {
		t.Fatalf("write stall = %f s, want > 64 (contention must cost)", m.Metrics.CheckpointWriteSeconds)
	}
	if j1.State != jobs.StateCompleted || j2.State != jobs.StateCompleted {
		t.Fatalf("states = %v/%v", j1.State, j2.State)
	}
}
