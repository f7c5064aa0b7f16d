package experiments

import (
	"fmt"

	"epajsrm/internal/jobs"
	"epajsrm/internal/policy"
	"epajsrm/internal/report"
	"epajsrm/internal/runner"
	"epajsrm/internal/simulator"
	"epajsrm/internal/stats"
	"epajsrm/internal/workload"
)

// E20FairShare validates the "fairness" scheduling goal Q3(d) lists, with
// the EPA twist of charging energy: a machine shared by one heavy user and
// four light users. Without fairshare the heavy user's queue depth
// monopolizes starts; with energy-charged fairshare the light users' mean
// bounded slowdown and median wait shrink, and the heavy user pays for it.
func E20FairShare(seed uint64) Result {
	horizon := 4 * simulator.Day

	run := func(withFS bool) (lightSlow, heavySlow, lightWait, heavyWait float64) {
		m := stdMgr(seed, 0, nil)
		if withFS {
			m.Use(&policy.FairShare{HalfLife: simulator.Day, Levels: 5, ChargeEnergy: true})
		}
		var all []*jobs.Job
		// One heavy user floods the queue; four light users trickle.
		spec := workload.DefaultSpec()
		spec.ArrivalMeanSec = 150
		spec.Users = 1
		for i, j := range workload.NewGenerator(spec, seed^71).Generate(600) {
			j.ID = int64(i + 1)
			j.User = "heavy"
			j.Priority = 0
			if err := m.Submit(j, j.Submit); err != nil {
				panic(err)
			}
			all = append(all, j)
		}
		lightSpec := workload.DefaultSpec()
		lightSpec.ArrivalMeanSec = 2400
		for u := 0; u < 4; u++ {
			for i, j := range workload.NewGenerator(lightSpec, seed^uint64(100+u)).Generate(40) {
				j.ID = int64(10000 + u*1000 + i)
				j.User = fmt.Sprintf("light%d", u)
				j.Priority = 0
				if err := m.Submit(j, j.Submit); err != nil {
					panic(err)
				}
				all = append(all, j)
			}
		}
		m.Run(horizon)

		// Fairness here is entitlement-relative: the light users consume a
		// tiny fraction of their fair share, so a fair scheduler should
		// serve them as if the machine were idle (bounded slowdown -> 1).
		// FIFO instead makes them queue behind the flood — everyone equally
		// miserable, which is not fairness.
		var heavySlows, lightSlows, heavyWaits, lightWaits stats.Sample
		for _, j := range all {
			if j.State != jobs.StateCompleted {
				continue
			}
			if j.User == "heavy" {
				heavySlows.Add(j.BoundedSlowdown())
				heavyWaits.Add(float64(j.WaitTime()))
			} else {
				lightSlows.Add(j.BoundedSlowdown())
				lightWaits.Add(float64(j.WaitTime()))
			}
		}
		return lightSlows.Mean(), heavySlows.Mean(), lightWaits.Median(), heavyWaits.Median()
	}

	type cell struct{ ls, hs, lw, hw float64 }
	cells := runner.Map(2, func(k int) cell {
		ls, hs, lw, hw := run(k == 1)
		return cell{ls, hs, lw, hw}
	})
	lsBase, hsBase, lwBase, hwBase := cells[0].ls, cells[0].hs, cells[0].lw, cells[0].hw
	lsFS, hsFS, lwFS, hwFS := cells[1].ls, cells[1].hs, cells[1].lw, cells[1].hw

	tbl := report.Table{
		Header: []string{"configuration", "light mean slowdown", "heavy mean slowdown", "light median wait", "heavy median wait"},
		Rows: [][]string{
			{"no fairshare", fmt.Sprintf("%.1f", lsBase), fmt.Sprintf("%.1f", hsBase),
				simulator.Time(lwBase).String(), simulator.Time(hwBase).String()},
			{"energy fairshare", fmt.Sprintf("%.1f", lsFS), fmt.Sprintf("%.1f", hsFS),
				simulator.Time(lwFS).String(), simulator.Time(hwFS).String()},
		},
	}
	return Result{
		ID:    "E20",
		Title: "Fairness as a scheduling goal, energy-charged (survey Q3d)",
		Table: tbl,
		Notes: []string{
			fmt.Sprintf("light users' mean slowdown %.1f -> %.1f; their median wait %s -> %s; the flooding user pays %.0f%% more slowdown",
				lsBase, lsFS, simulator.Time(lwBase), simulator.Time(lwFS), 100*(hsFS/hsBase-1)),
		},
		Values: map[string]float64{
			"light_slow_base": lsBase,
			"light_slow_fs":   lsFS,
			"heavy_slow_base": hsBase,
			"heavy_slow_fs":   hsFS,
			"light_base":      lwBase,
			"light_fs":        lwFS,
		},
	}
}
