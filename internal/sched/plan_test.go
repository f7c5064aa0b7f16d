package sched

import (
	"slices"
	"testing"

	"epajsrm/internal/jobs"
	"epajsrm/internal/simulator"
)

// naiveEarliestFit tries every whole second from the profile start: the
// first t with n nodes free over all of [t, t+d).
func naiveEarliestFit(p *Profile, n int, d simulator.Time) simulator.Time {
	for t := p.start; ; t++ {
		if p.MaxUsedIn(t, t+d) <= p.Capacity-n {
			return t
		}
	}
}

// TestEarliestFitIsEarliest pins EarliestFit's skip over blocked windows to
// a second-by-second scan: the start it returns is the earliest feasible
// one, not merely a feasible one. Reservations are placed anywhere they
// fit, not only at earliest-fit slots, so profiles have gaps of every
// shape.
func TestEarliestFitIsEarliest(t *testing.T) {
	rng := simulator.NewRNG(5)
	for trial := 0; trial < 300; trial++ {
		capacity := 1 + rng.Intn(24)
		start := simulator.Time(rng.Intn(100))
		p := NewProfile(start, capacity)
		for i, k := 0, rng.Intn(40); i < k; i++ {
			from := start + simulator.Time(rng.Intn(3000))
			to := from + simulator.Time(1+rng.Intn(800))
			n := 1 + rng.Intn(capacity)
			if p.MaxUsedIn(from, to)+n <= capacity {
				p.Reserve(from, to, n)
			}
		}
		for q := 0; q < 20; q++ {
			n := 1 + rng.Intn(capacity)
			d := simulator.Time(1 + rng.Intn(1500))
			if got, want := p.EarliestFit(n, d), naiveEarliestFit(p, n, d); got != want {
				t.Fatalf("trial %d: EarliestFit(%d, %d) = %d, naive scan %d", trial, n, d, got, want)
			}
		}
	}
}

// fullReplan is Conservative's pass without the early stop: every queued
// job is planned on the profile, in queue order. stop is the first queue
// position at which the nodes free now are fewer than every remaining
// job's width, or -1 if there is none.
func fullReplan(v View, rec func(Decision)) (out []*jobs.Job, stop int) {
	p := NewProfile(v.Now, v.TotalNodes)
	for i, n := 0, v.Running.Len(); i < n; i++ {
		r := v.Running.At(i)
		p.Reserve(v.Now, r.ExpectedEnd, r.Nodes)
	}
	stop = -1
	for i, j := range v.Queue {
		if stop < 0 && !slices.ContainsFunc(v.Queue[i:], func(q *jobs.Job) bool { return q.Nodes <= p.freeAtStart() }) {
			stop = i
		}
		start := p.EarliestFit(j.Nodes, j.Walltime)
		p.Reserve(start, start+j.Walltime, j.Nodes)
		if start == v.Now {
			out = append(out, j)
			rec(Decision{Job: j, Picked: true, Reason: "reservation-begins-now"})
		} else {
			rec(Decision{Job: j, Reason: "reserved-for-later"})
		}
	}
	return out, stop
}

// TestConservativeEarlyStopMatchesFullReplan: stopping once nothing more
// can start now leaves Pick's result and every PickExplain decision as a
// full replan of the queue makes them. Queues mix narrow jobs with jobs
// wider than the free nodes, and the running set holds overdue jobs
// (their ends clamped to now+1, first and in ID order, as the manager's
// running set presents them).
func TestConservativeEarlyStopMatchesFullReplan(t *testing.T) {
	rng := simulator.NewRNG(9)
	stopped := 0
	for trial := 0; trial < 2000; trial++ {
		total := 4 + rng.Intn(60)
		now := simulator.Time(10000)
		var overdue, rest runSlice
		used := 0
		for id := int64(1); used < total; id++ {
			w := 1 + rng.Intn(1+total/4)
			if used+w > total || rng.Float64() < 0.15 {
				break
			}
			used += w
			r := RunningJob{Job: qj(id, w, 0), Nodes: w, ExpectedEnd: now + simulator.Time(1+rng.Intn(5000))}
			if rng.Float64() < 0.2 {
				r.ExpectedEnd = now + 1
				overdue = append(overdue, r)
			} else {
				rest = append(rest, r)
			}
		}
		running := append(overdue, endOrder(rest)...)
		free := total - used
		var queue []*jobs.Job
		for i, n := 0, rng.Intn(40); i < n; i++ {
			w := 1 + rng.Intn(max(1, free))
			if rng.Float64() < 0.3 {
				w = min(total, free+1+rng.Intn(total)) // wider than free
			}
			queue = append(queue, qj(int64(1000+i), w, simulator.Time(1+rng.Intn(4000))))
		}
		v := View{Now: now, Free: free, TotalNodes: total, Queue: queue, Running: running}

		var want, got []Decision
		wantPick, stop := fullReplan(v, func(d Decision) { want = append(want, d) })
		gotPick := Conservative{}.PickExplain(v, func(d Decision) { got = append(got, d) })
		plain := Conservative{}.Pick(v)
		if a, b, c := ids(gotPick), ids(wantPick), ids(plain); !slices.Equal(a, b) || !slices.Equal(c, b) {
			t.Fatalf("trial %d: picks explain=%v pick=%v, full replan %v", trial, a, c, b)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d decisions, full replan %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d decision %d: %+v, full replan %+v", trial, i, got[i], want[i])
			}
		}
		if stop >= 0 {
			stopped++
		}
	}
	if stopped < 500 {
		t.Fatalf("the early stop applied in only %d of 2000 passes", stopped)
	}
}
