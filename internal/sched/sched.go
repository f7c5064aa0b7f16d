// Package sched implements the baseline job scheduling algorithms every
// surveyed production stack builds on: FCFS, EASY backfilling (Mu'alem &
// Feitelson, the survey's reference [35]) and conservative backfilling.
// The EPA policies in internal/policy wrap these, filtering candidates and
// shaping starts; the algorithms themselves remain power-oblivious.
package sched

import (
	"slices"
	"sync"

	"epajsrm/internal/jobs"
	"epajsrm/internal/prof"
	"epajsrm/internal/simulator"
)

// Pick-scratch pools. Schedulers are stateless values shared across
// goroutines, so per-Pick scratch lives in pools rather than on the
// scheduler — the parallel experiment runner calls Pick from many
// managers concurrently.
var (
	headScratch = sync.Pool{New: func() any { s := make([]RunningJob, 0, 16); return &s }}
	planScratch = sync.Pool{New: func() any { return new(conservativePlan) }}
)

// conservativePlan is Conservative's per-pass scratch: the availability
// profile and, for each queue position, the narrowest width from there to
// the end of the queue.
type conservativePlan struct {
	prof      Profile
	narrowest []int
}

// RunningJob pairs a running job with its current placement width and the
// scheduler-visible completion estimate (based on the walltime request,
// not ground truth — schedulers never see true runtimes).
type RunningJob struct {
	Job         *jobs.Job
	Nodes       int
	ExpectedEnd simulator.Time
}

// RunningSet is the scheduler's read-only view of the running jobs, in
// expected-end order: first the jobs already due, their ends clamped to
// Now+1 and in job-ID order, then the rest by (ExpectedEnd, job ID). That
// is the sequence a stable sort of the ID-ordered set by clamped end
// yields. At(i) is O(1) when i is one past the previous call's, so a walk
// that stops early reads only the prefix it needs.
type RunningSet interface {
	Len() int
	At(i int) RunningJob
}

// View is the scheduler's snapshot of the system at a decision point.
type View struct {
	Now        simulator.Time
	Free       int // eligible idle nodes right now
	TotalNodes int // eligible node capacity (excludes down/maintenance)
	Queue      []*jobs.Job
	// Running is valid only during the Pick it is passed to: the manager
	// re-reads its running index for every pass.
	Running RunningSet

	// Prof, when non-nil, attributes the pass's reservation computation
	// and backfill walk to their own phases (the split the parallelization
	// work needs). Schedulers are stateless shared values, so the profiler rides on the
	// per-pass view rather than on the scheduler. Nil costs one branch.
	Prof *prof.Profiler
}

// Scheduler decides which waiting jobs to start now. Implementations must
// not start more nodes than v.Free in total; the returned jobs are started
// in order.
type Scheduler interface {
	Name() string
	Pick(v View) []*jobs.Job
}

// Decision explains one per-job choice a scheduling pass made: whether the
// job was picked to start now, and why (or why not). The reasons are the
// algorithm's own vocabulary — "backfill-before-shadow" names the EASY
// condition that admitted the job — so a decision trace reads as the
// algorithm's reasoning, not a post-hoc guess.
type Decision struct {
	Job    *jobs.Job
	Picked bool
	Reason string
}

// Explainer is the optional tracing face of a Scheduler: PickExplain
// behaves exactly like Pick but reports a Decision for every queued job it
// considered. rec may be nil, in which case PickExplain must be
// byte-for-byte equivalent to Pick — all three built-in schedulers
// implement Pick as PickExplain(v, nil), so the traced and untraced paths
// cannot drift apart.
type Explainer interface {
	PickExplain(v View, rec func(Decision)) []*jobs.Job
}

// FCFS starts jobs strictly in queue order, stopping at the first job that
// does not fit.
type FCFS struct{}

// Name implements Scheduler.
func (FCFS) Name() string { return "fcfs" }

// Pick implements Scheduler.
func (f FCFS) Pick(v View) []*jobs.Job { return f.PickExplain(v, nil) }

// PickExplain implements Explainer.
func (FCFS) PickExplain(v View, rec func(Decision)) []*jobs.Job {
	var out []*jobs.Job
	free := v.Free
	for i, j := range v.Queue {
		if j.Nodes > free {
			if rec != nil {
				rec(Decision{Job: j, Reason: "blocks-queue-insufficient-nodes"})
				for _, b := range v.Queue[i+1:] {
					rec(Decision{Job: b, Reason: "behind-blocked-head"})
				}
			}
			break
		}
		out = append(out, j)
		free -= j.Nodes
		if rec != nil {
			rec(Decision{Job: j, Picked: true, Reason: "fits-in-order"})
		}
	}
	return out
}

// EASY is aggressive (EASY) backfilling: the head job gets a reservation at
// the earliest time enough nodes will be free; later jobs may start now if
// they fit and do not delay that reservation.
type EASY struct{}

// Name implements Scheduler.
func (EASY) Name() string { return "easy" }

// Pick implements Scheduler.
func (e EASY) Pick(v View) []*jobs.Job { return e.PickExplain(v, nil) }

// PickExplain implements Explainer. EASY's reason vocabulary: the head run
// starts with "head-fits"; a blocked head gets a reservation
// ("head-blocked-awaits-reservation"); later jobs backfill when they end
// before the shadow time ("backfill-before-shadow") or fit in the nodes
// left beside the reservation ("backfill-beside-reservation"), and are
// skipped as "wider-than-free" or "would-delay-head-reservation".
func (EASY) PickExplain(v View, rec func(Decision)) []*jobs.Job {
	var out []*jobs.Job
	free := v.Free
	queue := v.Queue
	// Start head jobs while they fit.
	for len(queue) > 0 && queue[0].Nodes <= free {
		j := queue[0]
		out = append(out, j)
		free -= j.Nodes
		queue = queue[1:]
		if rec != nil {
			rec(Decision{Job: j, Picked: true, Reason: "head-fits"})
		}
	}
	if len(queue) == 0 {
		return out
	}

	// Head job blocked: compute its shadow time and the extra nodes. The
	// head starts above hold their nodes until their walltime runs out.
	head := queue[0]
	v.Prof.Enter(prof.SchedReservation)
	hp := headScratch.Get().(*[]RunningJob)
	heads := (*hp)[:0]
	for _, j := range out {
		heads = append(heads, RunningJob{Job: j, Nodes: j.Nodes, ExpectedEnd: v.Now + j.Walltime})
	}
	shadow, extra := reservation(v.Now, free, head.Nodes, v.Running, heads)
	clear(heads)
	*hp = heads[:0]
	headScratch.Put(hp)
	v.Prof.Exit()
	if rec != nil {
		rec(Decision{Job: head, Reason: "head-blocked-awaits-reservation"})
	}

	// Backfill the remainder.
	v.Prof.Enter(prof.SchedBackfill)
	defer v.Prof.Exit()
	for _, j := range queue[1:] {
		if j.Nodes > free {
			if rec != nil {
				rec(Decision{Job: j, Reason: "wider-than-free"})
			}
			continue
		}
		fitsBefore := v.Now+j.Walltime <= shadow
		fitsBeside := j.Nodes <= extra
		if fitsBefore || fitsBeside {
			out = append(out, j)
			free -= j.Nodes
			if fitsBeside {
				extra -= j.Nodes
			}
			if rec != nil {
				reason := "backfill-before-shadow"
				if !fitsBefore {
					reason = "backfill-beside-reservation"
				}
				rec(Decision{Job: j, Picked: true, Reason: reason})
			}
		} else if rec != nil {
			rec(Decision{Job: j, Reason: "would-delay-head-reservation"})
		}
	}
	return out
}

// reservation returns the earliest time `need` nodes will be free given the
// running jobs and this pass's head starts (by their walltime-based
// expected ends), plus how many nodes will be left over at that time
// beyond the reservation ("extra" nodes a backfilled job may hold past the
// shadow time). It merges the two in end order — running jobs already come
// that way, heads is stable insertion-sorted in place, and a running job
// wins a tie — and stops at the shadow, so it reads the running set only
// up to the job whose end frees the last node needed.
func reservation(now simulator.Time, free, need int, running RunningSet, heads []RunningJob) (shadow simulator.Time, extra int) {
	if free >= need {
		return now, free - need
	}
	for i := 1; i < len(heads); i++ {
		for k := i; k > 0 && heads[k].ExpectedEnd < heads[k-1].ExpectedEnd; k-- {
			heads[k], heads[k-1] = heads[k-1], heads[k]
		}
	}
	avail := free
	n := running.Len()
	var r RunningJob
	loaded := false // r holds running.At(i)
	for i, h := 0, 0; ; {
		if !loaded && i < n {
			r, loaded = running.At(i), true
		}
		var e RunningJob
		switch {
		case loaded && (h == len(heads) || r.ExpectedEnd <= heads[h].ExpectedEnd):
			e, i, loaded = r, i+1, false
		case h < len(heads):
			e, h = heads[h], h+1
		default:
			// Should not happen if need <= total nodes; treat as never.
			return now + 365*simulator.Day, 0
		}
		avail += e.Nodes
		if avail >= need {
			return e.ExpectedEnd, avail - need
		}
	}
}

// Conservative is conservative backfilling: every queued job receives a
// reservation in queue order on a node-availability profile, and only jobs
// whose reservation begins now are started. No job can be delayed by a
// later arrival, which gives predictable start times at some utilization
// cost relative to EASY.
type Conservative struct{}

// Name implements Scheduler.
func (Conservative) Name() string { return "conservative" }

// Pick implements Scheduler.
func (c Conservative) Pick(v View) []*jobs.Job { return c.PickExplain(v, nil) }

// PickExplain implements Explainer. Every queued job gets a reservation in
// order; "reservation-begins-now" starts, "reserved-for-later" waits.
//
// Planning stops once the nodes free now are fewer than the narrowest job
// left in the queue. A job starts only if its reservation begins now,
// which needs its width free in the profile's first step; reservations
// only add usage, and each affects only the jobs planned after it. So no
// later job could start, and each is recorded "reserved-for-later" without
// being planned: the picks and decisions are those of planning every job.
func (Conservative) PickExplain(v View, rec func(Decision)) []*jobs.Job {
	// The whole pass is reservation work — every queued job is placed on
	// the availability profile — so it attributes to one phase.
	v.Prof.Enter(prof.SchedReservation)
	defer v.Prof.Exit()
	plan := planScratch.Get().(*conservativePlan)
	defer planScratch.Put(plan)
	p := &plan.prof
	p.Reset(v.Now, v.TotalNodes)
	for i, n := 0, v.Running.Len(); i < n; i++ {
		r := v.Running.At(i)
		p.Reserve(v.Now, r.ExpectedEnd, r.Nodes)
	}
	narrowest := slices.Grow(plan.narrowest[:0], len(v.Queue))[:len(v.Queue)]
	plan.narrowest = narrowest
	for i := len(v.Queue) - 1; i >= 0; i-- {
		narrowest[i] = v.Queue[i].Nodes
		if i+1 < len(narrowest) {
			narrowest[i] = min(narrowest[i], narrowest[i+1])
		}
	}
	var out []*jobs.Job
	for i, j := range v.Queue {
		if p.freeAtStart() < narrowest[i] {
			if rec != nil {
				for _, later := range v.Queue[i:] {
					rec(Decision{Job: later, Reason: "reserved-for-later"})
				}
			}
			break
		}
		start := p.EarliestFit(j.Nodes, j.Walltime)
		p.Reserve(start, start+j.Walltime, j.Nodes)
		if start == v.Now {
			out = append(out, j)
			if rec != nil {
				rec(Decision{Job: j, Picked: true, Reason: "reservation-begins-now"})
			}
		} else if rec != nil {
			rec(Decision{Job: j, Reason: "reserved-for-later"})
		}
	}
	return out
}
