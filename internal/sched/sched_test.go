package sched

import (
	"testing"
	"testing/quick"

	"epajsrm/internal/jobs"
	"epajsrm/internal/simulator"
)

func qj(id int64, nodes int, wall simulator.Time) *jobs.Job {
	return &jobs.Job{ID: id, Nodes: nodes, Walltime: wall, TrueRuntime: wall, PowerPerNodeW: 200}
}

func TestFCFSStopsAtFirstBlocker(t *testing.T) {
	v := View{
		Now: 0, Free: 10, TotalNodes: 10,
		Queue: []*jobs.Job{qj(1, 4, 100), qj(2, 8, 100), qj(3, 1, 100)},
	}
	got := FCFS{}.Pick(v)
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("FCFS picked %v, want only job 1", ids(got))
	}
}

func TestEASYBackfillsAroundBlocker(t *testing.T) {
	// 10 nodes. Job 1 (4 nodes) runs until t=1000. Head queue job wants 8 —
	// blocked until 1000. A 1-node 500s job can backfill (ends before the
	// shadow time); a 1-node 2000s job also fits: 10-4-8 is negative, so
	// extra = free-at-shadow minus head... verify the invariant instead:
	// the short job is picked, and the reservation is not delayed.
	v := View{
		Now: 0, Free: 6, TotalNodes: 10,
		Running: runSlice{{Job: qj(99, 4, 1000), Nodes: 4, ExpectedEnd: 1000}},
		Queue:   []*jobs.Job{qj(1, 8, 1000), qj(2, 1, 500), qj(3, 6, 5000)},
	}
	got := EASY{}.Pick(v)
	if !contains(got, 2) {
		t.Fatalf("EASY should backfill job 2; got %v", ids(got))
	}
	if contains(got, 1) {
		t.Fatalf("blocked head started: %v", ids(got))
	}
	// Job 3 (6 nodes, 5000s) would occupy nodes past the shadow time and
	// exceed the extra pool (at shadow 1000 there are 10 free, head takes 8,
	// extra=2 < 6), so it must not start.
	if contains(got, 3) {
		t.Fatalf("job 3 would delay the reservation: %v", ids(got))
	}
}

func TestEASYStartsEverythingThatFits(t *testing.T) {
	v := View{
		Now: 0, Free: 10, TotalNodes: 10,
		Queue: []*jobs.Job{qj(1, 3, 100), qj(2, 3, 100), qj(3, 4, 100)},
	}
	got := EASY{}.Pick(v)
	if len(got) != 3 {
		t.Fatalf("picked %v", ids(got))
	}
}

func TestEASYBackfillBesideReservation(t *testing.T) {
	// Head needs 8 at shadow time 1000 when 10 free: extra = 2. A long
	// 2-node job fits beside the reservation even though it outlives it.
	v := View{
		Now: 0, Free: 6, TotalNodes: 10,
		Running: runSlice{{Job: qj(99, 4, 1000), Nodes: 4, ExpectedEnd: 1000}},
		Queue:   []*jobs.Job{qj(1, 8, 1000), qj(2, 2, 100000)},
	}
	got := EASY{}.Pick(v)
	if !contains(got, 2) {
		t.Fatalf("2-node job fits beside the 8-node reservation; got %v", ids(got))
	}
}

func TestConservativeNoLaterJobDelaysEarlier(t *testing.T) {
	// With conservative backfilling, job 3 may only start now if it delays
	// neither job 1's nor job 2's reservation.
	v := View{
		Now: 0, Free: 6, TotalNodes: 10,
		Running: runSlice{{Job: qj(99, 4, 1000), Nodes: 4, ExpectedEnd: 1000}},
		Queue: []*jobs.Job{
			qj(1, 8, 1000),  // reserved at t=1000
			qj(2, 10, 1000), // reserved at t=2000
			qj(3, 2, 500),   // fits now and ends at 500 < 1000
		},
	}
	got := Conservative{}.Pick(v)
	if !contains(got, 3) {
		t.Fatalf("conservative should start job 3; got %v", ids(got))
	}
	if contains(got, 1) || contains(got, 2) {
		t.Fatalf("blocked jobs started: %v", ids(got))
	}
}

func TestConservativeRespectsAllReservations(t *testing.T) {
	// Job 3 runs 1500s on 2 nodes: it would overlap job 1's reservation
	// window (1000..2000) during which 8+2 = 10 <= 10 — so it *can* start.
	// But job 4 (6 nodes, 1500s) would collide with job 1's 8 nodes. Check
	// both decisions.
	v := View{
		Now: 0, Free: 6, TotalNodes: 10,
		Running: runSlice{{Job: qj(99, 4, 1000), Nodes: 4, ExpectedEnd: 1000}},
		Queue: []*jobs.Job{
			qj(1, 8, 1000),
			qj(3, 2, 1500),
			qj(4, 6, 1500),
		},
	}
	got := Conservative{}.Pick(v)
	if !contains(got, 3) {
		t.Fatalf("job 3 coexists with the reservation; got %v", ids(got))
	}
	if contains(got, 4) {
		t.Fatalf("job 4 would collide with job 1's reservation; got %v", ids(got))
	}
}

func TestSchedulersNeverOvercommit(t *testing.T) {
	scheds := []Scheduler{FCFS{}, EASY{}, Conservative{}}
	v := View{
		Now: 0, Free: 7, TotalNodes: 10,
		Running: runSlice{{Job: qj(99, 3, 400), Nodes: 3, ExpectedEnd: 400}},
		Queue: []*jobs.Job{
			qj(1, 5, 300), qj(2, 4, 200), qj(3, 2, 100), qj(4, 1, 50), qj(5, 3, 700),
		},
	}
	for _, s := range scheds {
		total := 0
		for _, j := range s.Pick(v) {
			total += j.Nodes
		}
		if total > v.Free {
			t.Errorf("%s overcommitted: %d > %d free", s.Name(), total, v.Free)
		}
	}
}

func TestProfileReserveAndFit(t *testing.T) {
	p := NewProfile(0, 10)
	p.Reserve(0, 100, 6)
	if got := p.UsedAt(50); got != 6 {
		t.Fatalf("used at 50 = %d", got)
	}
	if got := p.UsedAt(100); got != 0 {
		t.Fatalf("used at 100 = %d", got)
	}
	// 4 free now; 5-node job must wait until 100.
	if got := p.EarliestFit(5, 50); got != 100 {
		t.Fatalf("earliest fit = %d, want 100", got)
	}
	if got := p.EarliestFit(4, 50); got != 0 {
		t.Fatalf("earliest fit for 4 = %d, want 0", got)
	}
}

func TestProfileFitSpansBreakpoints(t *testing.T) {
	p := NewProfile(0, 10)
	p.Reserve(100, 200, 8)
	// A 5-node 300s job starting at 0 would hit the 100..200 bump: must
	// wait until 200.
	if got := p.EarliestFit(5, 300); got != 200 {
		t.Fatalf("fit = %d, want 200", got)
	}
	// A 2-node job fits through the bump.
	if got := p.EarliestFit(2, 300); got != 0 {
		t.Fatalf("small fit = %d, want 0", got)
	}
}

func TestProfilePanicsOnOvercommit(t *testing.T) {
	p := NewProfile(0, 4)
	p.Reserve(0, 10, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("overcommit should panic")
		}
	}()
	p.Reserve(5, 15, 2)
}

func TestProfileMaxUsedIn(t *testing.T) {
	p := NewProfile(0, 10)
	p.Reserve(10, 20, 3)
	p.Reserve(15, 30, 4)
	if got := p.MaxUsedIn(0, 40); got != 7 {
		t.Fatalf("max used = %d", got)
	}
	if got := p.MaxUsedIn(25, 40); got != 4 {
		t.Fatalf("max used tail = %d", got)
	}
}

// runSlice is a slice-backed RunningSet; the slice must already be in
// RunningSet order.
type runSlice []RunningJob

func (s runSlice) Len() int            { return len(s) }
func (s runSlice) At(i int) RunningJob { return s[i] }

func ids(js []*jobs.Job) []int64 {
	var out []int64
	for _, j := range js {
		out = append(out, j.ID)
	}
	return out
}

func contains(js []*jobs.Job, id int64) bool {
	for _, j := range js {
		if j.ID == id {
			return true
		}
	}
	return false
}

func TestProfileEarliestFitProperty(t *testing.T) {
	// Property: the time EarliestFit returns really has n nodes free for
	// the whole duration, and reserving there never panics.
	f := func(resRaw []uint16, nRaw, dRaw uint8) bool {
		p := NewProfile(0, 32)
		for i := 0; i+2 < len(resRaw) && i < 30; i += 3 {
			dur := simulator.Time(resRaw[i+1]%1000) + 1
			n := int(resRaw[i+2]%8) + 1
			start := p.EarliestFit(n, dur)
			p.Reserve(start, start+dur, n)
		}
		need := int(nRaw%16) + 1
		dur := simulator.Time(dRaw)*3 + 1
		at := p.EarliestFit(need, dur)
		// Verify directly against the profile.
		if p.MaxUsedIn(at, at+dur) > 32-need {
			return false
		}
		p.Reserve(at, at+dur, need) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEASYNeverDelaysHeadReservation(t *testing.T) {
	// Property: whatever EASY backfills, the head job could still start at
	// its shadow time computed before backfilling.
	f := func(widths []uint8) bool {
		if len(widths) < 2 {
			return true
		}
		var queue []*jobs.Job
		for i, w := range widths {
			if i > 12 {
				break
			}
			queue = append(queue, qj(int64(i+1), int(w%10)+1, simulator.Time(int(w)*100+600)))
		}
		queue[0].Nodes = 9 // force head blockage against 8 free
		v := View{
			Now: 0, Free: 8, TotalNodes: 16,
			Running: runSlice{{Job: qj(99, 8, 2000), Nodes: 8, ExpectedEnd: 2000}},
			Queue:   queue,
		}
		head := queue[0]
		running := v.Running.(runSlice)
		shadow, _ := reservation(v.Now, v.Free, head.Nodes, running, nil)
		picked := EASY{}.Pick(v)
		// Simulate: at the shadow time, running jobs with ExpectedEnd <=
		// shadow have freed their nodes; backfilled jobs that end after the
		// shadow must fit in the leftover.
		freeAtShadow := v.Free
		for _, r := range running {
			if r.ExpectedEnd <= shadow {
				freeAtShadow += r.Nodes
			}
		}
		for _, j := range picked {
			if j.ID == head.ID {
				continue
			}
			if v.Now+j.Walltime > shadow {
				freeAtShadow -= j.Nodes
			}
		}
		return freeAtShadow >= head.Nodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
