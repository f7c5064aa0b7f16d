package scale

import (
	"testing"

	"epajsrm/internal/simulator"
)

// TestHollowPointSmall runs a miniature curve point end to end: the pump
// must deliver exactly Jobs jobs, the run must drain, and the shaped load
// must land near the target.
func TestHollowPointSmall(t *testing.T) {
	c := Config{
		Nodes:      256,
		Jobs:       2000,
		Horizon:    2 * simulator.Day,
		Seed:       7,
		TargetUtil: 0.85,
	}
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != c.Jobs {
		t.Fatalf("pump submitted %d of %d jobs", res.Submitted, c.Jobs)
	}
	if done := res.Completed + res.Killed; done != c.Jobs {
		t.Fatalf("run did not drain: completed+killed=%d of %d", done, c.Jobs)
	}
	if res.UtilPct < 40 || res.UtilPct > 100 {
		t.Errorf("utilization %.1f%% wildly off the 85%% target", res.UtilPct)
	}
	if res.SimDays < 2 {
		t.Errorf("sim span %.2f days, want >= arrival window of 2", res.SimDays)
	}
	if res.Events <= int64(c.Jobs) {
		t.Errorf("only %d events fired for %d jobs", res.Events, c.Jobs)
	}
	if res.Ckpts == 0 {
		t.Error("no checkpoints written; checkpoint substrate not exercised")
	}
	if res.Requeues == 0 {
		t.Log("note: no fault requeues at this size (acceptable at small N)")
	}
}

// TestHollowPointPinned pins the 1k-node standard curve point to counts
// recorded before the manager kept its running set in an ID-ordered
// index. Its running set peaks at 163 jobs (checked once with a start
// hook), so the run drives the index at that size through 10240 starts
// and ends, and takes the EASY reservation's stable-sort path for more
// than 64 running jobs; any change to event order or to the reservation's
// tie order moves these numbers.
func TestHollowPointPinned(t *testing.T) {
	res, err := Run(DefaultConfig(1024, 7))
	if err != nil {
		t.Fatal(err)
	}
	got := [5]int64{int64(res.Completed), int64(res.Killed), int64(res.Requeues), int64(res.Ckpts), res.Events}
	if want := [5]int64{10240, 0, 17, 12395, 55251}; got != want {
		t.Errorf("completed/killed/requeues/ckpts/events = %v, want %v", got, want)
	}
	if want := 81.78507831902866; res.UtilPct != want {
		t.Errorf("utilization %v%%, want %v%%", res.UtilPct, want)
	}
}

// TestSpecForLoadShaping pins the load solver: bigger machines with the
// same jobs-per-node density keep the same target by raising the
// capability fraction, and the arrival mean spreads jobs over the horizon.
func TestSpecForLoadShaping(t *testing.T) {
	c := DefaultConfig(10000, 1)
	s := SpecFor(c)
	wantArrival := float64(c.Horizon) / float64(c.Jobs)
	if s.ArrivalMeanSec != wantArrival {
		t.Errorf("arrival mean %.3f, want %.3f", s.ArrivalMeanSec, wantArrival)
	}
	if s.MaxNodes != 256 {
		t.Errorf("MaxNodes = %d, want 256 cap", s.MaxNodes)
	}
	if s.CapabilityFrac <= 0 || s.CapabilityFrac > 0.5 {
		t.Errorf("capability frac %.3f out of the solver's range", s.CapabilityFrac)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
