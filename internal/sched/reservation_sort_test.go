package sched

import (
	"slices"
	"sort"
	"testing"

	"epajsrm/internal/jobs"
	"epajsrm/internal/simulator"
)

// refReservation is the copy-and-sort implementation the merged walk
// replaced: append this pass's head starts to the ID-ordered running set,
// stable-sort the copy by expected end, and walk it to the shadow. It
// also returns the sorted sequence and the position of the shadow element
// in it (-1 when no element reaches need).
func refReservation(now simulator.Time, free, need int, byID, heads []RunningJob) (simulator.Time, int, []RunningJob, int) {
	ends := append(slices.Clone(byID), heads...)
	sort.SliceStable(ends, func(a, b int) bool { return ends[a].ExpectedEnd < ends[b].ExpectedEnd })
	if free >= need {
		return now, free - need, ends, -1
	}
	avail := free
	for i, r := range ends {
		avail += r.Nodes
		if avail >= need {
			return r.ExpectedEnd, avail - need, ends, i
		}
	}
	return now + 365*simulator.Day, 0, ends, -1
}

// endOrder returns the ID-ordered set in RunningSet order: a stable sort by
// expected end, which the manager's index yields without sorting.
func endOrder(byID []RunningJob) runSlice {
	out := slices.Clone(byID)
	sort.SliceStable(out, func(a, b int) bool { return out[a].ExpectedEnd < out[b].ExpectedEnd })
	return out
}

// countingSet records every At call, so a test can see how far into the
// running set a walk read.
type countingSet struct {
	runSlice
	calls []int
}

func (c *countingSet) At(i int) RunningJob {
	c.calls = append(c.calls, i)
	return c.runSlice[i]
}

// randomPass builds one blocked-head pass: an ID-ordered running set whose
// ends, the overdue ones already clamped to now+1, take few distinct
// values, and head starts drawn from the same few ends, so ties occur
// inside the running set, inside the heads, and across the two.
func randomPass(rng *simulator.RNG, maxRun int) (now simulator.Time, free, need int, byID, heads []RunningJob) {
	now = 1000
	total := 0
	for i, n := 0, rng.Intn(maxRun); i < n; i++ {
		w := 1 + rng.Intn(16)
		total += w
		byID = append(byID, RunningJob{
			Job:         &jobs.Job{ID: int64(i + 1)},
			Nodes:       w,
			ExpectedEnd: now + 1 + simulator.Time(100*rng.Intn(6)),
		})
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		w := 1 + rng.Intn(16)
		total += w
		heads = append(heads, RunningJob{
			Job:         &jobs.Job{ID: int64(100000 + i)},
			Nodes:       w,
			ExpectedEnd: now + 1 + simulator.Time(100*rng.Intn(6)),
		})
	}
	free = rng.Intn(20)
	need = 1 + rng.Intn(total+free+4)
	return now, free, need, byID, heads
}

// TestReservationSortEquivalence checks the merged walk against the
// copy-and-sort reference on running sets with heavy expected-end ties,
// where taking a head before a tied running job (or an unstable order
// among either) would reorder node counts and change `extra`.
func TestReservationSortEquivalence(t *testing.T) {
	rng := simulator.NewRNG(31)
	for trial := 0; trial < 2000; trial++ {
		now, free, need, byID, heads := randomPass(rng, 300)
		wantShadow, wantExtra, _, _ := refReservation(now, free, need, byID, heads)
		gotShadow, gotExtra := reservation(now, free, need, endOrder(byID), slices.Clone(heads))
		if gotShadow != wantShadow || gotExtra != wantExtra {
			t.Fatalf("trial %d (R=%d heads=%d free=%d need=%d): got (%v,%d), want (%v,%d)",
				trial, len(byID), len(heads), free, need, gotShadow, gotExtra, wantShadow, wantExtra)
		}
	}
}

// TestReservationReadsOnlyToShadow is the structural check that a blocked
// pass no longer scales with the running set: reservation calls At for
// consecutive indexes from 0, exactly up to the shadow element — plus, when
// a head start supplies the shadow, the one running job it was compared
// against.
func TestReservationReadsOnlyToShadow(t *testing.T) {
	rng := simulator.NewRNG(77)
	for trial := 0; trial < 2000; trial++ {
		now, free, need, byID, heads := randomPass(rng, 300)
		_, _, ends, at := refReservation(now, free, need, byID, heads)
		want := 0
		switch {
		case free >= need:
		case at < 0:
			want = len(byID)
		default:
			isHead := false
			for _, e := range ends[:at+1] {
				if e.Job.ID < 100000 {
					want++
				}
				isHead = e.Job.ID >= 100000
			}
			if isHead && want < len(byID) {
				want++
			}
		}
		rs := &countingSet{runSlice: endOrder(byID)}
		reservation(now, free, need, rs, slices.Clone(heads))
		if len(rs.calls) != want {
			t.Fatalf("trial %d (R=%d heads=%d): %d At calls, want %d", trial, len(byID), len(heads), len(rs.calls), want)
		}
		for i, c := range rs.calls {
			if c != i {
				t.Fatalf("trial %d: At call %d read index %d, want %d", trial, i, c, i)
			}
		}
	}

	// A large running set whose first ten jobs free enough nodes: the walk
	// reads those ten, not the thousands behind them.
	big := make(runSlice, 50000)
	for i := range big {
		big[i] = RunningJob{Job: &jobs.Job{ID: int64(i + 1)}, Nodes: 1, ExpectedEnd: simulator.Time(10 + i)}
	}
	rs := &countingSet{runSlice: big}
	if shadow, extra := reservation(0, 2, 12, rs, nil); shadow != 19 || extra != 0 {
		t.Fatalf("shadow %v extra %d, want 19 and 0", shadow, extra)
	}
	if len(rs.calls) != 10 {
		t.Fatalf("%d At calls on a 50000-job set, want 10", len(rs.calls))
	}
}
