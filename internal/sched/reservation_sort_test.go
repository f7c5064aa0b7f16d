package sched

import (
	"testing"

	"epajsrm/internal/jobs"
	"epajsrm/internal/simulator"
)

// refReservation is the pre-threshold implementation: always insertion
// sort. The production path switches to slices.SortStableFunc on
// ExpectedEnd above 64 running jobs; both sorts are stable, so shadow and
// extra must match on any input.
func refReservation(now simulator.Time, free, need int, running []RunningJob) (simulator.Time, int) {
	if free >= need {
		return now, free - need
	}
	ends := append([]RunningJob(nil), running...)
	for i := 1; i < len(ends); i++ {
		for k := i; k > 0 && ends[k].ExpectedEnd < ends[k-1].ExpectedEnd; k-- {
			ends[k], ends[k-1] = ends[k-1], ends[k]
		}
	}
	avail := free
	for _, r := range ends {
		avail += r.Nodes
		if avail >= need {
			return r.ExpectedEnd, avail - need
		}
	}
	return now + 365*simulator.Day, 0
}

// TestReservationSortEquivalence exercises running sets straddling the
// sort-path threshold, so both the insertion sort and
// slices.SortStableFunc run, with heavy ExpectedEnd ties (the case where
// an unstable sort would reorder node counts and change `extra`).
func TestReservationSortEquivalence(t *testing.T) {
	rng := simulator.NewRNG(31)
	for trial := 0; trial < 300; trial++ {
		nRun := rng.Intn(300) // well past the 64-element threshold
		running := make([]RunningJob, nRun)
		total := 0
		for i := range running {
			w := 1 + rng.Intn(16)
			total += w
			running[i] = RunningJob{
				Job:   &jobs.Job{ID: int64(i + 1)},
				Nodes: w,
				// Few distinct end times: lots of ties.
				ExpectedEnd: simulator.Time(100 * (1 + rng.Intn(8))),
			}
		}
		free := rng.Intn(20)
		need := 1 + rng.Intn(total+free+4)
		gotShadow, gotExtra := reservation(0, free, need, running)
		wantShadow, wantExtra := refReservation(0, free, need, running)
		if gotShadow != wantShadow || gotExtra != wantExtra {
			t.Fatalf("trial %d (R=%d free=%d need=%d): got (%v,%d), want (%v,%d)",
				trial, nRun, free, need, gotShadow, gotExtra, wantShadow, wantExtra)
		}
	}
}
