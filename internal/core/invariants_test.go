package core

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"epajsrm/internal/cluster"
	"epajsrm/internal/jobs"
	"epajsrm/internal/sched"
	"epajsrm/internal/simulator"
	"epajsrm/internal/workload"
)

// stint identifies one run stint of a job: its ID and start time.
type stint struct {
	id    int64
	start simulator.Time
}

// checkInvariants asserts the structural facts that must hold at any
// instant of any run, whatever the policies do. It returns every running
// stint's expected end, recomputed from the job, and the length of the
// clamped prefix: the running jobs due by now+1.
func checkInvariants(t *testing.T, m *Manager) (ends map[stint]simulator.Time, clamped int) {
	t.Helper()
	// 1. Node bookkeeping: a node is busy iff it carries a job ID, and
	// every running job's nodes agree.
	busyNodes := 0
	for _, n := range m.Cl.Nodes {
		busy := n.State == cluster.StateBusy || n.State == cluster.StateDraining
		if busy && n.JobID == 0 {
			t.Fatalf("node %d busy without a job", n.ID)
		}
		if !busy && n.JobID != 0 {
			t.Fatalf("node %d state %v still holds job %d", n.ID, n.State, n.JobID)
		}
		if n.State == cluster.StateBusy {
			busyNodes++
		}
	}
	running := 0
	for _, j := range m.Running() {
		nodes := m.JobNodes(j.ID)
		if len(nodes) != j.Nodes {
			t.Fatalf("job %d holds %d nodes, wants %d", j.ID, len(nodes), j.Nodes)
		}
		running += len(nodes)
		for _, n := range nodes {
			if n.JobID != j.ID {
				t.Fatalf("node %d claims job %d, expected %d", n.ID, n.JobID, j.ID)
			}
		}
		// 2. Progress never exceeds the work.
		if j.WorkDone > float64(j.TrueRuntime)+1 {
			t.Fatalf("job %d overworked: %f > %d", j.ID, j.WorkDone, j.TrueRuntime)
		}
	}
	// Draining nodes also carry jobs; count them for the running total.
	draining := m.Cl.CountState(cluster.StateDraining)
	if running != busyNodes+draining {
		t.Fatalf("running jobs hold %d nodes, cluster says %d busy + %d draining",
			running, busyNodes, draining)
	}
	// 3. Power books: total power equals the per-node sum and never
	// exceeds the physical envelope.
	sum := 0.0
	for i := range m.Cl.Nodes {
		sum += m.Pw.NodePower(i)
	}
	if tp := m.Pw.TotalPower(); tp < sum-1e-6 || tp > sum+1e-6 {
		t.Fatalf("total power %f != node sum %f", tp, sum)
	}
	if tp := m.Pw.TotalPower(); tp > m.Pw.MaxPossiblePower()+1e-6 {
		t.Fatalf("power %f beyond physical max", tp)
	}
	if tp := m.Pw.TotalPower(); tp < m.Pw.MinPossiblePower()-1e-6 {
		t.Fatalf("power %f below physical min", tp)
	}
	// 4. Running index: Running() is strictly ID-ascending, covers exactly
	// the running set, holds only placed jobs, and hands out a copy —
	// re-sorting it widest-first as Status does must not reach the index.
	rs := m.Running()
	if len(rs) != m.RunningCount() {
		t.Fatalf("Running() has %d jobs, RunningCount() = %d", len(rs), m.RunningCount())
	}
	for i, j := range rs {
		if i > 0 && rs[i-1].ID >= j.ID {
			t.Fatalf("Running() not strictly ID-ascending: job %d before job %d", rs[i-1].ID, j.ID)
		}
		if m.JobNodes(j.ID) == nil {
			t.Fatalf("running job %d has no placement", j.ID)
		}
	}
	before := slices.Clone(rs)
	sort.SliceStable(rs, func(a, b int) bool { return rs[a].Nodes > rs[b].Nodes })
	if after := m.Running(); !slices.Equal(after, before) {
		t.Fatalf("re-sorting Running()'s result changed the next Running()")
	}
	// 5. End index: the running set schedulers read, prepared at now, is
	// the ID-ordered set stable-sorted by clamped expected end. The ends are
	// recomputed from Start, Walltime and curFrac rather than read from the
	// stored key, so a record the index failed to move shows up here.
	now := m.Eng.Now()
	ends = make(map[stint]simulator.Time, len(before))
	want := make([]sched.RunningJob, 0, len(before))
	for _, j := range before {
		r := m.runningJobs[j.ID]
		wall := float64(j.Walltime)
		if r.curFrac > 0 && r.curFrac < 1 {
			wall /= r.curFrac
		}
		end := j.Start + simulator.Time(wall)
		ends[stint{j.ID, j.Start}] = end
		if end <= now {
			end = now + 1
			clamped++
		}
		want = append(want, sched.RunningJob{Job: j, Nodes: len(r.nodes), ExpectedEnd: end})
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].ExpectedEnd < want[b].ExpectedEnd })
	var set runningSet
	set.prepare(&m.endIndex, now)
	if set.Len() != len(want) {
		t.Fatalf("running set has %d jobs, want %d", set.Len(), len(want))
	}
	for i, w := range want {
		if got := set.At(i); got != w {
			t.Fatalf("running set[%d] = job %d nodes %d end %v, want job %d nodes %d end %v",
				i, got.Job.ID, got.Nodes, got.ExpectedEnd, w.Job.ID, w.Nodes, w.ExpectedEnd)
		}
	}
	// At is random-access too: walking back rewinds the cursor.
	for i := len(want) - 1; i >= 0; i-- {
		if got := set.At(i); got != want[i] {
			t.Fatalf("running set[%d] read backwards = job %d, want job %d", i, got.Job.ID, want[i].Job.ID)
		}
	}
	if n := len(checkOrder(t, &m.runIndex)); n != m.RunningCount() {
		t.Fatalf("ID index holds %d records, RunningCount() = %d", n, m.RunningCount())
	}
	if n := len(checkOrder(t, &m.endIndex)); n != m.RunningCount() {
		t.Fatalf("end index holds %d records, RunningCount() = %d", n, m.RunningCount())
	}
	return ends, clamped
}

// TestFuzzRandomActuations drives a run with random mid-flight control
// actions — node caps, frequency changes, kills, preemptions, power
// off/on, node crashes and repairs — and checks the invariants at every
// step and the accounting at the end. Across its seeds it asserts that the
// checks saw a running job's expected end move (a frequency change the end
// index had to follow) and a clamped prefix of at least two overdue jobs
// (whose ID order the running set must restore).
func TestFuzzRandomActuations(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	moved, maxClamped := 0, 0
	var prev map[stint]simulator.Time
	check := func(m *Manager) {
		ends, clamped := checkInvariants(t, m)
		for k, e := range ends {
			if p, ok := prev[k]; ok && p != e {
				moved++
			}
		}
		prev, maxClamped = ends, max(maxClamped, clamped)
	}
	for _, seed := range seeds {
		seed := seed
		m := NewManager(Options{
			Cluster:   cluster.DefaultConfig(),
			Scheduler: sched.EASY{},
			Seed:      seed,
			VarSigma:  0.05,
		})
		rng := simulator.NewRNG(seed * 977)
		spec := workload.DefaultSpec()
		spec.ArrivalMeanSec = 300
		if seed%2 == 0 {
			// Exact walltimes and a steep topology penalty: jobs that span
			// racks overrun their requests, so overdue jobs pile up in the
			// clamped prefix.
			spec.WalltimeFactorMax = 1
			m.TopoPenaltyPerHop = 1
		}
		js := workload.NewGenerator(spec, seed).Generate(80)
		for _, j := range js {
			if err := m.Submit(j, j.Submit); err != nil {
				t.Fatal(err)
			}
		}
		// Random actuations every 10 minutes of virtual time.
		stop := m.Eng.Every(10*simulator.Minute, "fuzz", func(now simulator.Time) {
			switch rng.Intn(8) {
			case 0: // random node cap on/off
				n := m.Cl.Nodes[rng.Intn(m.Cl.Size())]
				if n.CapW == 0 {
					m.Pw.SetNodeCap(now, n, 150+float64(rng.Intn(200)))
				} else {
					m.Pw.SetNodeCap(now, n, 0)
				}
				m.RetimeAll(now)
			case 1: // random frequency for a running job
				if r := m.Running(); len(r) > 0 {
					j := r[rng.Intn(len(r))]
					f := 0.5 + rng.Float64()*0.5
					m.Pw.SetJobFreq(now, j.ID, f)
					m.RetimeJob(j.ID, now)
				}
			case 2: // kill someone
				if r := m.Running(); len(r) > 0 {
					m.KillJob(r[rng.Intn(len(r))].ID, "fuzz", now)
				}
			case 3: // preempt someone
				if r := m.Running(); len(r) > 0 {
					m.PreemptJob(r[rng.Intn(len(r))].ID, now)
				}
			case 4: // power an idle node off
				for _, n := range m.Cl.Nodes {
					if n.State == cluster.StateIdle {
						_ = m.Ctrl.PowerOff(n.ID)
						break
					}
				}
			case 5: // power an off node on
				for _, n := range m.Cl.Nodes {
					if n.State == cluster.StateOff {
						_ = m.Ctrl.PowerOn(n.ID, func(tt simulator.Time) { m.TrySchedule(tt) })
						break
					}
				}
			case 6: // crash a random node, busy or not
				m.FailNode(rng.Intn(m.Cl.Size()), now)
			case 7: // repair a crashed node
				for _, n := range m.Cl.Nodes {
					if n.State == cluster.StateDown {
						m.RepairNode(n.ID, now)
						break
					}
				}
			}
			check(m)
		})
		end := m.Run(5 * simulator.Day)
		stop()
		check(m)
		// End accounting: every job reached a terminal state or is still
		// tracked (queued behind dead capacity is legal if nodes were
		// powered off).
		terminal := m.Metrics.Completed + m.Metrics.Killed + m.Metrics.Cancelled
		inFlight := m.RunningCount() + m.Queue.Len()
		if terminal+inFlight != len(js) {
			t.Fatalf("seed %d: %d terminal + %d in flight != %d submitted",
				seed, terminal, inFlight, len(js))
		}
		// Energy is exactly the integral of the (sampled) power: weaker
		// cross-check, energy within [min, max] possible envelopes.
		e := m.Pw.TotalEnergy()
		if e < m.Pw.MinPossiblePower()*float64(end)*0.99 {
			t.Fatalf("seed %d: energy %f below physical floor", seed, e)
		}
		if e > m.Pw.MaxPossiblePower()*float64(end)*1.01 {
			t.Fatalf("seed %d: energy %f above physical ceiling", seed, e)
		}
	}
	if moved == 0 || maxClamped < 2 {
		t.Fatalf("checks saw %d expected-end moves and a clamped prefix of at most %d jobs; want a move and at least 2",
			moved, maxClamped)
	}
	t.Logf("%d expected-end moves seen, clamped prefix up to %d jobs", moved, maxClamped)
}

// TestPreemptAtQuickRandomTimes property-checks the progress model: a
// compute-bound job preempted and resumed at arbitrary instants always
// accumulates exactly its TrueRuntime of work.
func TestPreemptAtQuickRandomTimes(t *testing.T) {
	f := func(cutRaw uint16) bool {
		cut := simulator.Time(cutRaw%7000) + 60 // preempt between 1 and ~118 min
		m := NewManager(Options{Cluster: cluster.DefaultConfig(), Scheduler: sched.EASY{}, Seed: 1})
		m.FreeCheckpoint = true // this property asserts the idealized instant save/resume
		j := mkJob(1, 4, 2*simulator.Hour)
		j.MemFrac = 0
		j.Walltime = 12 * simulator.Hour
		if err := m.Submit(j, 0); err != nil {
			return false
		}
		resumeAt := cut + simulator.Hour
		hold := false
		m.OnStartGate(func(_ *Manager, _ *jobs.Job) bool { return !hold })
		m.Eng.After(cut, "cut", func(now simulator.Time) {
			hold = true
			m.PreemptJob(1, now)
		})
		m.Eng.After(resumeAt, "resume", func(now simulator.Time) {
			hold = false
			m.TrySchedule(now)
		})
		m.Run(-1)
		if j.State != jobs.StateCompleted {
			return false
		}
		// Total on-CPU time = TrueRuntime; wall end = resume + remaining.
		wantEnd := resumeAt + (2*simulator.Hour - cut)
		return j.End >= wantEnd-2 && j.End <= wantEnd+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTopologyCommPenaltyExact checks the comm slowdown formula end to end
// for a forced scatter placement.
func TestTopologyCommPenaltyExact(t *testing.T) {
	m := NewManager(Options{Cluster: cluster.DefaultConfig(), Scheduler: sched.EASY{}, Seed: 1})
	m.TopoPenaltyPerHop = 0.10
	m.OnPlacement(func(_ *Manager, _ *jobs.Job) (cluster.Strategy, bool) {
		return cluster.PlaceScatter, true
	})
	j := mkJob(1, 8, simulator.Hour)
	j.MemFrac = 0
	j.CommFrac = 0.5
	j.Walltime = 6 * simulator.Hour
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	var span int
	m.Eng.After(1, "span", func(simulator.Time) {
		span = cluster.PlacementSpan(m.JobNodes(1))
		if got := m.CommSlowdown(1); got <= 1 {
			t.Errorf("comm slowdown = %f, want > 1 for scatter", got)
		}
	})
	m.Run(-1)
	want := float64(simulator.Hour) * (0.5 + 0.5*(1+0.10*float64(span-1)))
	got := float64(j.End - j.Start)
	if got < want-2 || got > want+2 {
		t.Fatalf("runtime %f, want %f (span %d)", got, want, span)
	}
}

func TestResumedJobNeverReshaped(t *testing.T) {
	m := NewManager(Options{Cluster: cluster.DefaultConfig(), Scheduler: sched.EASY{}, Seed: 1})
	m.FreeCheckpoint = true // exact-end arithmetic assumes zero-cost preemption
	// A shaper that would halve any moldable job's width.
	m.OnShape(func(_ *Manager, j *jobs.Job, free int) (jobs.MoldConfig, bool) {
		if cfg, ok := j.BestMoldUnder(j.Nodes / 2); ok {
			return cfg, true
		}
		return jobs.MoldConfig{}, false
	})
	j := mkJob(1, 8, 2*simulator.Hour)
	j.MemFrac = 0
	j.Walltime = 12 * simulator.Hour
	j.Mold = []jobs.MoldConfig{
		{Nodes: 8, Runtime: 2 * simulator.Hour},
		{Nodes: 4, Runtime: 4 * simulator.Hour},
		{Nodes: 2, Runtime: 8 * simulator.Hour},
	}
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	m.Eng.After(simulator.Hour, "preempt", func(now simulator.Time) {
		m.PreemptJob(1, now)
		m.TrySchedule(now)
	})
	m.Run(-1)
	if j.State != jobs.StateCompleted {
		t.Fatalf("state = %v", j.State)
	}
	// First start shaped 8 -> 4 nodes (4h of work). Preempted at 1h with
	// 1h done; the resume must keep the 4-node/4h shape, not reshape to 2.
	if j.Nodes != 4 {
		t.Fatalf("resumed job ran at %d nodes; reshaping a checkpointed job is invalid", j.Nodes)
	}
	// 1h done before preempt, 3h remaining after immediate resume: 4h total.
	if j.End != 4*simulator.Hour {
		t.Fatalf("end = %v, want 4h", j.End)
	}
}
