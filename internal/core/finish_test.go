package core

import (
	"testing"

	"epajsrm/internal/jobs"
	"epajsrm/internal/simulator"
)

// TestRetimeSwitchesFinishAndWalltimeKill retimes one job under
// EnforceWalltime through every transition of its finish event: capped
// until its retimed end passes its walltime (job-finish → walltime-kill),
// retimed again while still over (kill → kill, moved in place), uncapped
// (walltime-kill → job-finish), and retimed at nominal (finish → finish,
// moved in place). With MemFrac 0 and a cap below idle, the job runs at
// MinFrac 0.5, so each end is plain arithmetic. Left capped, it is killed
// at its walltime.
func TestRetimeSwitchesFinishAndWalltimeKill(t *testing.T) {
	for _, uncap := range []bool{true, false} {
		m := newTestManager(t)
		m.EnforceWalltime = true
		j := mkJob(1, 1, simulator.Hour) // 3,600 s of work
		j.MemFrac = 0
		j.Walltime = 90 * simulator.Minute // 5,400 s
		if err := m.Submit(j, 0); err != nil {
			t.Fatal(err)
		}
		type step struct {
			at        simulator.Time
			capW      float64 // -1: leave the cap
			kill      bool    // the armed event is a walltime-kill
			sameEvent bool    // moved in place: the handle is unchanged
		}
		steps := []step{
			// 600 s done; 3,000 left at half speed would end at 6,600,
			// past the walltime: a kill at 5,400.
			{at: 600, capW: 50, kill: true},
			// 900 done; 2,700 left at half speed still ends at 6,600.
			{at: 1200, capW: -1, kill: true, sameEvent: true},
			// 1,200 done; 2,400 left at full speed ends at 4,200.
			{at: 1800, capW: 0, kill: false},
			// 1,800 done; 1,800 left ends at 4,200 as before.
			{at: 2400, capW: -1, kill: false, sameEvent: true},
		}
		if !uncap {
			steps = steps[:2]
		}
		for i, s := range steps {
			m.Eng.At(s.at, "retime", func(now simulator.Time) {
				r := m.runningJobs[j.ID]
				if r == nil {
					t.Fatalf("step %d: job not running at %d", i, now)
				}
				before, pending := r.finish, m.Eng.Pending()
				if s.capW >= 0 {
					m.Pw.SetNodeCap(now, r.nodes[0], s.capW)
				}
				m.RetimeJob(j.ID, now)
				if r.killArmed != s.kill {
					t.Fatalf("step %d: walltime-kill armed = %v, want %v", i, r.killArmed, s.kill)
				}
				if (r.finish == before) != s.sameEvent {
					t.Fatalf("step %d: handle kept = %v, want %v", i, r.finish == before, s.sameEvent)
				}
				if m.Eng.Pending() != pending {
					t.Fatalf("step %d: %d events pending after the retime, %d before", i, m.Eng.Pending(), pending)
				}
			})
		}
		m.Run(-1)
		if uncap {
			if j.State != jobs.StateCompleted || j.End != 4200 {
				t.Fatalf("uncapped job: state %v, end %d; want completed at 4200", j.State, j.End)
			}
		} else if j.State != jobs.StateKilled || j.End != 5400 {
			t.Fatalf("capped job: state %v, end %d; want killed at 5400", j.State, j.End)
		}
	}
}
