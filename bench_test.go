package epajsrm_test

// The benchmark harness: one testing.B target per paper exhibit (Tables
// I/II, Figures 1/2), one per validation experiment (E1–E22 in DESIGN.md's
// experiment index), and one per ablation DESIGN.md calls out. Each bench
// reports its experiment's key shape numbers through b.ReportMetric so
// `go test -bench=. -benchmem` regenerates the full results table of
// EXPERIMENTS.md.

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"epajsrm/internal/cluster"
	"epajsrm/internal/core"
	"epajsrm/internal/experiments"
	"epajsrm/internal/jobs"
	"epajsrm/internal/policy"
	"epajsrm/internal/power"
	"epajsrm/internal/predict"
	"epajsrm/internal/prof"
	"epajsrm/internal/runner"
	"epajsrm/internal/scale"
	"epajsrm/internal/sched"
	"epajsrm/internal/simulator"
	"epajsrm/internal/stats"
	"epajsrm/internal/workload"
)

// profIfEnv attaches a live phase profiler to the hot-path benchmarks
// when EPA_PROF=1, so CI gates the profiler's *enabled* overhead
// against the same baselines it gates the nil fast path with. The
// default (nil) measures the phases-off cost every instrumented call
// site pays: one pointer nil-check.
func profIfEnv() *prof.Profiler {
	if os.Getenv("EPA_PROF") == "1" {
		return prof.New()
	}
	return nil
}

// -- Full suite through the parallel runner -----------------------------------

// BenchmarkSuite runs every exhibit and experiment through runner.Map at
// procs=1 and procs=GOMAXPROCS. The two sub-benchmarks measure the same
// deterministic work, so their ratio is the harness's parallel speedup on
// the current machine (identical on a single-core box).
func BenchmarkSuite(b *testing.B) {
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		name := "procs=1"
		if procs != 1 {
			name = "procs=max"
		}
		b.Run(name, func(b *testing.B) {
			prev := runner.Procs()
			runner.SetProcs(procs)
			defer runner.SetProcs(prev)
			for i := 0; i < b.N; i++ {
				rs := experiments.All(uint64(i + 1))
				if i == 0 {
					b.ReportMetric(float64(len(rs)), "experiments")
				}
			}
		})
		if procs == 1 && runtime.GOMAXPROCS(0) == 1 {
			break // both sub-benchmarks would be identical
		}
	}
}

// -- Paper exhibits ---------------------------------------------------------

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.T1TableI()
		if i == 0 {
			b.ReportMetric(r.Values["rows"], "rows")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.T2TableII()
		if i == 0 {
			b.ReportMetric(r.Values["rows"], "rows")
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.F1ComponentDiagram()
		if i == 0 {
			b.ReportMetric(r.Values["policies"], "policies")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.F2WorldMap()
		if i == 0 {
			b.ReportMetric(r.Values["sites"], "sites")
		}
	}
}

// -- Validation experiments E1–E22 -------------------------------------------

func BenchmarkE1StaticCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E1StaticCap(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(r.Values["base_peak_w"]/1000, "base-peak-kW")
			b.ReportMetric(r.Values["cap_peak_w"]/1000, "capped-peak-kW")
			b.ReportMetric(100*(1-r.Values["cap_thr"]/r.Values["base_thr"]), "thr-loss-%")
		}
	}
}

func BenchmarkE2IdleShutdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E2IdleShutdown(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(100*r.Values["saved_400"], "saved-busy-%")
			b.ReportMetric(100*r.Values["saved_3600"], "saved-sparse-%")
		}
	}
}

func BenchmarkE3DVFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E3DVFS()
		if i == 0 {
			b.ReportMetric(r.Values["beststar_mem0"], "fstar-cpu-bound")
			b.ReportMetric(r.Values["beststar_mem80"], "fstar-mem-bound")
		}
	}
}

func BenchmarkE4PowerSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E4PowerSharing(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(100*r.Values["gain_9600"], "gain-tight-%")
			b.ReportMetric(100*r.Values["gain_17920"], "gain-loose-%")
		}
	}
}

func BenchmarkE5Overprovision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E5Overprovision(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(100*(r.Values["over_thr"]/r.Values["small_thr"]-1), "gain-%")
		}
	}
}

func BenchmarkE6Emergency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E6Emergency(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(r.Values["kills_nogate"], "kills-nogate")
			b.ReportMetric(r.Values["kills_gate"], "kills-gated")
		}
	}
}

func BenchmarkE7EnergyTag(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E7EnergyTag(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(100*(1-r.Values["energy_job_kwh"]/r.Values["perf_job_kwh"]), "energy-saved-%")
			b.ReportMetric(100*(r.Values["energy_rt"]/r.Values["perf_rt"]-1), "rt-stretch-%")
		}
	}
}

func BenchmarkE8Prediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E8Prediction(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(100*r.Values["mape_naive-mean"], "naive-MAPE-%")
			b.ReportMetric(100*r.Values["mape_tag-history"], "tag-MAPE-%")
			b.ReportMetric(100*r.Values["mape_regression"], "reg-MAPE-%")
		}
	}
}

func BenchmarkE9InterSystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E9InterSystem(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(r.Values["share1_day0"]/1000, "loaded-share-kW")
			b.ReportMetric(r.Values["share1_day1"]/1000, "drained-share-kW")
			b.ReportMetric(r.Values["combined_peak"]/r.Values["budget"], "peak/budget")
		}
	}
}

func BenchmarkE10Layout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E10Layout(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(r.Values["violations"], "pdu-violations")
			b.ReportMetric(r.Values["avoided"], "nodes-avoided")
		}
	}
}

func BenchmarkE11MS3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E11MS3(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(r.Values["summer_busy"], "summer-busy-max")
			b.ReportMetric(r.Values["winter_busy"], "winter-busy-max")
		}
	}
}

func BenchmarkE12Backfill(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E12Backfill(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(100*r.Values["util_fcfs"], "fcfs-util-%")
			b.ReportMetric(100*r.Values["util_easy"], "easy-util-%")
		}
	}
}

func BenchmarkE13GridAware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E13GridAware(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(r.Values["cost_base"]/r.Values["done_base"], "cost/job-base")
			b.ReportMetric(r.Values["cost_shift"]/r.Values["done_shift"], "cost/job-shifted")
		}
	}
}

func BenchmarkE14RuntimeBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E14RuntimeBalance(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(100*r.Values["speedup_2"], "speedup-2%var-%")
			b.ReportMetric(100*r.Values["speedup_10"], "speedup-10%var-%")
		}
	}
}

func BenchmarkE15Topology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E15Topology(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(100*(1-r.Values["rt_compact"]/r.Values["rt_oblivious"]), "rt-saved-%")
			b.ReportMetric(100*(1-r.Values["pdu_scatter"]/r.Values["pdu_compact"]), "pdu-saved-%")
		}
	}
}

func BenchmarkE16CapabilityWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E16CapabilityWindow(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(100*r.Values["wide_in_window_frac"], "wide-in-window-%")
		}
	}
}

func BenchmarkE17RampLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E17RampLimit(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(r.Values["ramp_base"]/1000, "ramp-base-kW")
			b.ReportMetric(r.Values["ramp_limit"]/1000, "ramp-limited-kW")
		}
	}
}

func BenchmarkE18CoolingAware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E18CoolingAware(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(100*(1-r.Values["site_cool"]/r.Values["site_base"]), "site-saved-%")
		}
	}
}

func BenchmarkE19Monitoring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E19Monitoring(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(r.Values["samples"], "samples")
		}
	}
}

func BenchmarkE20FairShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E20FairShare(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(r.Values["light_slow_base"], "light-slowdown-fifo")
			b.ReportMetric(r.Values["light_slow_fs"], "light-slowdown-fairshare")
		}
	}
}

func BenchmarkE21Resilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E21Resilience(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(r.Values["crashes_high"], "crashes-high")
			b.ReportMetric(r.Values["requeues_high"], "requeues-high")
			b.ReportMetric(r.Values["goodput_high"]/r.Values["goodput_base"], "goodput-ratio-high")
		}
	}
}

func BenchmarkE22Checkpoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E22CheckpointSweep(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(r.Values["goodput_yd_high"]/r.Values["goodput_off_high"], "goodput-gain-yd")
			b.ReportMetric(r.Values["lostwork_off_high"]/3600, "lost-off-node-h")
			b.ReportMetric(r.Values["lostwork_yd_high"]/3600, "lost-yd-node-h")
			b.ReportMetric(r.Values["yd_interval_s"], "yd-interval-s")
		}
	}
}

func BenchmarkE24SLOWatchdog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E24SLOWatchdog(uint64(i + 1))
		if i == 0 {
			b.ReportMetric(r.Values["first_fire_burn_s"]/3600, "burn-first-fire-h")
			b.ReportMetric(r.Values["first_fire_threshold_s"]/3600, "threshold-first-fire-h")
			b.ReportMetric(r.Values["lead_s"]/3600, "burn-lead-h")
		}
	}
}

// -- Ablations (DESIGN.md "design choices called out for ablation") ----------

// BenchmarkAblationWindow sweeps the boot-window enforcement length around
// Tokyo Tech's ~30 minutes: shorter windows actuate more (tighter control,
// more churn), longer windows tolerate excursions.
func BenchmarkAblationWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, window := range []simulator.Time{10 * simulator.Minute, 30 * simulator.Minute, 60 * simulator.Minute} {
			p := &policy.BootWindowCap{CapW: 64 * 220, Window: window}
			m := core.NewManager(core.Options{
				Cluster: cluster.DefaultConfig(), Scheduler: sched.EASY{}, Seed: uint64(i + 1),
			})
			m.Use(p)
			spec := workload.DefaultSpec()
			spec.ArrivalMeanSec = 200
			for _, j := range workload.NewGenerator(spec, 5).Generate(250) {
				if err := m.Submit(j, j.Submit); err != nil {
					b.Fatal(err)
				}
			}
			m.Run(2 * simulator.Day)
			if i == 0 {
				mins := float64(window / simulator.Minute)
				b.ReportMetric(float64(p.Shutdowns+p.Boots), fmtMetric("actuations-", mins, "min"))
				b.ReportMetric(float64(p.Violations), fmtMetric("violations-", mins, "min"))
			}
		}
	}
}

// BenchmarkAblationUncappedFraction sweeps KAUST's 30 % uncapped pool.
func BenchmarkAblationUncappedFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, frac := range []float64{0, 0.30, 0.60} {
			m := core.NewManager(core.Options{
				Cluster: cluster.DefaultConfig(), Scheduler: sched.EASY{}, Seed: uint64(i + 1), VarSigma: 0.05,
			})
			m.Use(&policy.StaticCap{CapW: 270, UncappedFrac: frac, RouteHungry: frac > 0})
			spec := workload.DefaultSpec()
			spec.ArrivalMeanSec = 150
			for _, j := range workload.NewGenerator(spec, 7).Generate(400) {
				if err := m.Submit(j, j.Submit); err != nil {
					b.Fatal(err)
				}
			}
			peak := 0.0
			m.Eng.Every(30*simulator.Second, "probe", func(simulator.Time) {
				if p := m.Pw.TotalPower(); p > peak {
					peak = p
				}
			})
			m.Run(3 * simulator.Day)
			if i == 0 {
				b.ReportMetric(peak/1000, fmtMetric("peak-kW-", frac*100, "%unc"))
				b.ReportMetric(m.Metrics.ThroughputNodeHoursPerDay(), fmtMetric("thr-", frac*100, "%unc"))
			}
		}
	}
}

// BenchmarkAblationPowerExponent compares dynamic-power exponents 2 and 3:
// the cap-to-frequency inversion softens as alpha rises.
func BenchmarkAblationPowerExponent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, alpha := range []float64{2, 3} {
			model := power.DefaultNodeModel()
			model.Alpha = alpha
			frac, ok := model.FreqForCap(250, 360, 1)
			if !ok {
				b.Fatal("cap should be feasible")
			}
			e := model.EnergyToSolution(360, 0.7, 0.5)
			if i == 0 {
				b.ReportMetric(frac, fmtMetric("frac@250W-a", alpha, ""))
				b.ReportMetric(e, fmtMetric("energy@0.7f-a", alpha, ""))
			}
		}
	}
}

// BenchmarkAblationTopoPenalty sweeps the per-hop communication penalty:
// the topology effect on a span-3 placement at each setting (E15's
// fragmented-machine scenario is penalty-sensitive by design).
func BenchmarkAblationTopoPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, pen := range []float64{0.02, 0.05, 0.15} {
			m := core.NewManager(core.Options{
				Cluster: cluster.DefaultConfig(), Scheduler: sched.EASY{}, Seed: uint64(i + 1),
			})
			m.TopoPenaltyPerHop = pen
			// Force the widest placement (scatter across PDUs) so the
			// span-dependent stretch isolates the penalty parameter.
			m.OnPlacement(func(m *core.Manager, j *jobs.Job) (cluster.Strategy, bool) {
				return cluster.PlaceScatter, true
			})
			j := &jobs.Job{ID: 1, User: "u", Nodes: 16, Walltime: 6 * simulator.Hour,
				TrueRuntime: simulator.Hour, PowerPerNodeW: 300, MemFrac: 0.2, CommFrac: 0.6}
			if err := m.Submit(j, 1); err != nil {
				b.Fatal(err)
			}
			m.Run(12 * simulator.Hour)
			if i == 0 {
				stretch := float64(j.End-j.Start)/float64(simulator.Hour) - 1
				b.ReportMetric(100*stretch, fmtMetric("stretch%-p", pen*100, ""))
			}
		}
	}
}

// BenchmarkAblationHistoryDepth sweeps the tag-history predictor's window.
func BenchmarkAblationHistoryDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		js := workload.NewGenerator(workload.DefaultSpec(), uint64(i+1)).Generate(1500)
		for _, depth := range []int{1, 8, 64} {
			p := predict.NewTagHistory(250, depth)
			var pe, ae []float64
			for _, j := range js {
				pe = append(pe, p.Predict(j))
				ae = append(ae, j.PowerPerNodeW)
				p.Observe(j, j.PowerPerNodeW)
			}
			h := len(pe) / 2
			if i == 0 {
				b.ReportMetric(100*stats.MAPE(pe[h:], ae[h:]), fmtMetric("MAPE%-d", float64(depth), ""))
			}
		}
	}
}

// -- hollow-site scale curve --------------------------------------------------

// BenchmarkScale runs the internal/scale harness at 1k/10k/100k hollow
// nodes (10 jobs per node over a simulated week, full control loop:
// scheduling, power caps, faults, checkpoints) and reports the nodes x jobs
// vs wall-time/RSS curve. In -short mode the 100k point is skipped; the
// full curve lands in BENCH_<date>.json via `make bench`.
func BenchmarkScale(b *testing.B) {
	for _, nodes := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			if testing.Short() && nodes > 10000 {
				b.Skip("100k point skipped in -short mode")
			}
			for i := 0; i < b.N; i++ {
				res, err := scale.Run(scale.DefaultConfig(nodes, uint64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				if done := res.Completed + res.Killed; done != res.Jobs {
					b.Fatalf("run did not drain: %d of %d jobs terminal", done, res.Jobs)
				}
				if i == 0 {
					b.ReportMetric(res.WallSec, "wall-s")
					b.ReportMetric(res.PeakRSSMB, "rss-MB")
					b.ReportMetric(float64(res.Events), "events")
					b.ReportMetric(float64(res.Jobs), "jobs")
					b.ReportMetric(res.UtilPct, "util-%")
				}
			}
		})
	}
}

// -- micro-benchmarks on the hot paths ---------------------------------------

func BenchmarkEngineEventThroughput(b *testing.B) {
	eng := simulator.NewEngine()
	eng.Prof = profIfEnv()
	n := 0
	var fn func(now simulator.Time)
	fn = func(now simulator.Time) {
		n++
		if n < b.N {
			eng.After(1, "tick", fn)
		}
	}
	b.ResetTimer()
	eng.After(1, "tick", fn)
	eng.Run()
}

// BenchmarkEngineDeepQueue measures event push/pop with a million-entry
// backlog resident in the queue — the regime the calendar queue exists
// for. A deep daemon backlog parks far in the future while a
// fire-one-schedule-one tick stream runs through the near term, so every
// measured operation pays the at-depth insert and extract cost.
func BenchmarkEngineDeepQueue(b *testing.B) {
	eng := simulator.NewEngine()
	const depth = 1 << 20
	for i := 0; i < depth; i++ {
		eng.AtDaemon(simulator.Time(1<<30+i), "backlog", func(simulator.Time) {})
	}
	n := 0
	var fn func(now simulator.Time)
	fn = func(now simulator.Time) {
		n++
		if n < b.N {
			eng.After(1, "tick", fn)
		}
	}
	b.ResetTimer()
	eng.After(1, "tick", fn)
	eng.Run()
}

func BenchmarkSchedulerPickEASY(b *testing.B) {
	var queue []*jobs.Job
	for i := 0; i < 100; i++ {
		queue = append(queue, &jobs.Job{
			ID: int64(i + 1), Nodes: (i % 16) + 1,
			Walltime: simulator.Time(1000 + i*100), TrueRuntime: 1000, PowerPerNodeW: 300,
		})
	}
	var running runSlice
	for i := 0; i < 20; i++ {
		running = append(running, sched.RunningJob{
			Job:         &jobs.Job{ID: int64(1000 + i), Nodes: 2},
			Nodes:       2,
			ExpectedEnd: simulator.Time(500 + i*200),
		})
	}
	v := sched.View{Now: 0, Free: 24, TotalNodes: 64, Queue: queue, Running: running, Prof: profIfEnv()}
	s := sched.EASY{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Pick(v)
	}
}

// runSlice is a slice-backed sched.RunningSet, already in end order.
type runSlice []sched.RunningJob

func (s runSlice) Len() int                  { return len(s) }
func (s runSlice) At(i int) sched.RunningJob { return s[i] }

func BenchmarkPowerSystemRefresh(b *testing.B) {
	cl := cluster.New(cluster.DefaultConfig())
	sys := power.NewSystem(cl, power.DefaultNodeModel(), power.DefaultPStates(), 0.05, simulator.NewRNG(1))
	cl.Allocate(1, 32, 0, nil)
	sys.Prof = profIfEnv()
	sys.StartJob(0, 1, cl.JobNodes(1), 300, 0.3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.RefreshAll(simulator.Time(i + 1))
	}
}

func BenchmarkFullSiteWeek(b *testing.B) {
	// End-to-end cost of one simulated week of the KAUST profile.
	for i := 0; i < b.N; i++ {
		m := core.NewManager(core.Options{
			Cluster: cluster.DefaultConfig(), Scheduler: sched.EASY{}, Seed: uint64(i + 1), VarSigma: 0.05,
		})
		m.Use(&policy.StaticCap{CapW: 270, UncappedFrac: 0.3, RouteHungry: true})
		m.Use(&policy.EnergyReport{})
		for _, j := range workload.NewGenerator(workload.DefaultSpec(), uint64(i+3)).Generate(500) {
			if err := m.Submit(j, j.Submit); err != nil {
				b.Fatal(err)
			}
		}
		m.Run(7 * simulator.Day)
	}
}

// fmtMetric builds a parameterized metric label like "peak-kW-30%unc".
func fmtMetric(prefix string, v float64, suffix string) string {
	if v == float64(int64(v)) {
		return prefix + itoa(int64(v)) + suffix
	}
	return prefix + itoa(int64(v*10)) + "e-1" + suffix
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
