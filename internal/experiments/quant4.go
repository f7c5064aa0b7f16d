package experiments

import (
	"fmt"
	"sort"

	"epajsrm/internal/cluster"
	"epajsrm/internal/core"
	"epajsrm/internal/jobs"
	"epajsrm/internal/metrics"
	"epajsrm/internal/policy"
	"epajsrm/internal/power"
	"epajsrm/internal/report"
	"epajsrm/internal/runner"
	"epajsrm/internal/sched"
	"epajsrm/internal/simulator"
	"epajsrm/internal/tsdb"
	"epajsrm/internal/workload"
)

// E15Topology validates survey Q6's claim: topology-aware allocation
// indirectly improves energy by improving performance. The same workload
// runs with first-fit (oblivious), always-compact, and the joint policy
// (compact for communication-heavy jobs, scatter for power-hungry ones);
// compact placement shortens communication-bound runtimes, scatter lowers
// the worst per-PDU draw.
func E15Topology(seed uint64) Result {
	// Part A — a deterministically fragmented machine: blockers hold the
	// first half of rack 0, all of rack 1, and the first half of rack 2,
	// leaving free nodes in racks 0, 2 and 3. A 16-node communication-heavy
	// job placed first-fit lands across racks 0+2 (span 3: two PDUs); the
	// compact strategy takes rack 3 whole (span 1). The runtime difference
	// is the Q6 effect in isolation.
	runA := func(s cluster.Strategy) (float64, float64) {
		m := stdMgr(seed, 0, nil)
		m.OnPlacement(func(m *core.Manager, j *jobs.Job) (cluster.Strategy, bool) { return s, true })
		mkBlock := func(id int64, nodes []int) {
			// Pin blockers to exact nodes via a one-shot filter.
			want := map[int]bool{}
			for _, n := range nodes {
				want[n] = true
			}
			j := &jobs.Job{ID: id, User: "b", Nodes: len(nodes), Walltime: 12 * simulator.Hour,
				TrueRuntime: 10 * simulator.Hour, PowerPerNodeW: 150, MemFrac: 0.5}
			m.OnNodeFilter(func(m *core.Manager, jj *jobs.Job, n *cluster.Node) bool {
				if jj.ID != id {
					return true
				}
				return want[n.ID]
			})
			if err := m.Submit(j, 0); err != nil {
				panic(err)
			}
		}
		var r0, r1, r2 []int
		for i := 0; i < 8; i++ {
			r0 = append(r0, i)
			r2 = append(r2, 32+i)
		}
		for i := 16; i < 32; i++ {
			r1 = append(r1, i)
		}
		mkBlock(101, r0)
		mkBlock(102, r1)
		mkBlock(103, r2)

		j := &jobs.Job{ID: 1, User: "u", Nodes: 16, Walltime: 6 * simulator.Hour,
			TrueRuntime: simulator.Hour, PowerPerNodeW: 300, MemFrac: 0.2, CommFrac: 0.6}
		if err := m.Submit(j, 10); err != nil {
			panic(err)
		}
		m.Run(-1)
		return float64(j.End - j.Start), j.EnergyJ / 3.6e6
	}
	// Part B declared below; both parts' runs execute on the worker pool.
	// Part B — one hungry 32-node job on an empty machine: compact loads a
	// single PDU with the whole job; scatter splits it across both.
	runB := func(s cluster.Strategy) float64 {
		m := stdMgr(seed, 0, nil)
		m.OnPlacement(func(m *core.Manager, j *jobs.Job) (cluster.Strategy, bool) { return s, true })
		j := &jobs.Job{ID: 1, User: "u", Nodes: 32, Walltime: 2 * simulator.Hour,
			TrueRuntime: simulator.Hour, PowerPerNodeW: 350, MemFrac: 0.1}
		if err := m.Submit(j, 0); err != nil {
			panic(err)
		}
		maxPDU := 0.0
		m.Eng.After(1, "probe", func(simulator.Time) {
			_, maxPDU = m.Cl.PDUPower(m.Pw.NodePower)
		})
		m.Run(-1)
		return maxPDU
	}
	type cell struct{ rt, e, pdu float64 }
	cells := runner.Map(4, func(k int) cell {
		switch k {
		case 0:
			rt, e := runA(cluster.PlaceFirstFit)
			return cell{rt: rt, e: e}
		case 1:
			rt, e := runA(cluster.PlaceCompact)
			return cell{rt: rt, e: e}
		case 2:
			return cell{pdu: runB(cluster.PlaceCompact)}
		default:
			return cell{pdu: runB(cluster.PlaceScatter)}
		}
	})
	rtObl, eObl := cells[0].rt, cells[0].e
	rtCompact, eCompact := cells[1].rt, cells[1].e
	pduCompact, pduScatter := cells[2].pdu, cells[3].pdu

	tbl := report.Table{
		Header: []string{"scenario", "metric", "oblivious", "topology-aware"},
		Rows: [][]string{
			{"fragmented machine, comm-heavy 16-node job", "runtime", simulator.Time(rtObl).String(), simulator.Time(rtCompact).String()},
			{"fragmented machine, comm-heavy 16-node job", "job energy (kWh)", fmt.Sprintf("%.2f", eObl), fmt.Sprintf("%.2f", eCompact)},
			{"hungry 32-node job, empty machine", "max PDU draw (kW)", fmtW(pduCompact) + " (compact)", fmtW(pduScatter) + " (scatter)"},
		},
	}
	return Result{
		ID:    "E15",
		Title: "Topology-aware task allocation (survey Q6)",
		Table: tbl,
		Notes: []string{
			fmt.Sprintf("compact placement cut the comm-heavy job's runtime %s and its energy %s — the Q6 'indirect energy improvement'",
				fmtPct(1-rtCompact/rtObl), fmtPct(1-eCompact/eObl)),
			fmt.Sprintf("scattering the hungry job cut the worst PDU draw %s", fmtPct(1-pduScatter/pduCompact)),
		},
		Values: map[string]float64{
			"rt_oblivious": rtObl,
			"rt_compact":   rtCompact,
			"e_oblivious":  eObl,
			"e_compact":    eCompact,
			"pdu_compact":  pduCompact,
			"pdu_scatter":  pduScatter,
		},
	}
}

// E16CapabilityWindow validates RIKEN's "3 days for large jobs each
// month": wide jobs concentrate into the window (their power ramps land on
// planned days), small jobs keep the machine busy the rest of the month.
func E16CapabilityWindow(seed uint64) Result {
	spec := workload.DefaultSpec()
	spec.ArrivalMeanSec = 400
	spec.MaxNodes = 64
	spec.CapabilityFrac = 0.20
	horizon := 65 * simulator.Day
	n := 900

	p := &policy.CapabilityWindow{WideNodes: 32, WindowDays: 3, MonthDays: 30, HoldWideOutside: true}
	m := stdMgr(seed, 0, nil, p)
	feed(m, spec, seed^53, n)

	// Track when wide-job node-seconds execute relative to the window.
	var wideInWindow, wideOutside float64
	m.Eng.Every(10*simulator.Minute, "probe", func(now simulator.Time) {
		wide := 0
		for _, j := range m.Running() {
			if j.Nodes >= 32 {
				wide += j.Nodes
			}
		}
		if p.InWindow(now) {
			wideInWindow += float64(wide)
		} else {
			wideOutside += float64(wide)
		}
	})
	m.Run(horizon)

	frac := 1.0
	if wideInWindow+wideOutside > 0 {
		frac = wideInWindow / (wideInWindow + wideOutside)
	}
	tbl := report.Table{
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"window", fmt.Sprintf("%d days of every %d", p.WindowDays, p.MonthDays)},
			{"wide-job node-time inside window", fmtPct(frac)},
			{"small jobs held during window", fmt.Sprint(p.HeldSmall)},
			{"wide jobs held outside window", fmt.Sprint(p.HeldWide)},
			{"completed", fmt.Sprint(m.Metrics.Completed)},
		},
	}
	return Result{
		ID:    "E16",
		Title: "Monthly capability window for large jobs (RIKEN production)",
		Table: tbl,
		Notes: []string{"wide jobs execute (almost) exclusively inside the planned days; the window fraction of the calendar is 10%"},
		Values: map[string]float64{
			"wide_in_window_frac": frac,
			"completed":           float64(m.Metrics.Completed),
		},
	}
}

// E17RampLimit validates the introduction's motivation about power
// fluctuation rates: the ramp limiter bounds the steepest power rise at a
// small wait cost.
func E17RampLimit(seed uint64) Result {
	spec := workload.DefaultSpec()
	spec.ArrivalMeanSec = 250
	horizon := 3 * simulator.Day
	n := 300
	window := 5 * simulator.Minute

	run := func(name string, pols ...core.Policy) (string, float64, float64) {
		m := stdMgr(seed, 0, nil, pols...)
		feed(m, spec, seed^59, n)
		var series []float64
		m.Eng.Every(30*simulator.Second, "probe", func(simulator.Time) {
			series = append(series, m.Pw.TotalPower())
		})
		m.Run(horizon)
		worst := 0.0
		k := int(window / (30 * simulator.Second))
		for i := k; i < len(series); i++ {
			if rise := series[i] - series[i-k]; rise > worst {
				worst = rise
			}
		}
		return name, worst, m.Metrics.Waits.Median()
	}

	type cell struct {
		name       string
		ramp, wait float64
	}
	cells := runner.Map(2, func(k int) cell {
		if k == 0 {
			n, r, w := run("unconstrained")
			return cell{n, r, w}
		}
		n, r, w := run("ramp limit 2 kW / 5 min", &policy.RampLimit{MaxRampW: 2000, Window: window})
		return cell{n, r, w}
	})
	bName, bRamp, bWait := cells[0].name, cells[0].ramp, cells[0].wait
	lName, lRamp, lWait := cells[1].name, cells[1].ramp, cells[1].wait

	tbl := report.Table{
		Header: []string{"configuration", "worst 5-min ramp (kW)", "median wait"},
		Rows: [][]string{
			{bName, fmtW(bRamp), simulator.Time(bWait).String()},
			{lName, fmtW(lRamp), simulator.Time(lWait).String()},
		},
	}
	return Result{
		ID:    "E17",
		Title: "Power ramp-rate limiting (paper §I: power fluctuation rates)",
		Table: tbl,
		Notes: []string{fmt.Sprintf("worst ramp cut %s", fmtPct(1-lRamp/bRamp))},
		Values: map[string]float64{
			"ramp_base":  bRamp,
			"ramp_limit": lRamp,
			"wait_base":  bWait,
			"wait_limit": lWait,
		},
	}
}

// E18CoolingAware validates LRZ's research row: deferring low-priority
// jobs away from inefficient (hot, high-PUE) hours cuts facility energy
// per unit of work even though IT energy is unchanged.
func E18CoolingAware(seed uint64) Result {
	spec := workload.DefaultSpec()
	spec.ArrivalMeanSec = 600
	spec.PriorityLevels = 10
	horizon := 6 * simulator.Day
	n := 300
	// Hot climate with strong daily swing so the PUE cycle matters.
	mkFac := func() *power.Facility {
		f := power.DefaultFacility()
		f.Climate = power.Climate{MeanC: 22, SeasonAmpC: 2, DailyAmpC: 10}
		f.PUEPerDegree = 0.02
		return f
	}

	run := func(name string, attach bool) (string, float64, float64, float64) {
		m := traced(core.NewManager(core.Options{
			Cluster:   cluster.DefaultConfig(),
			Scheduler: sched.EASY{},
			Seed:      seed,
			Facility:  mkFac(),
		}))
		if attach {
			m.Use(&policy.CoolingAware{MaxPUE: 1.2, DeferBelowPriority: 7})
		}
		feed(m, spec, seed^61, n)
		// Integrate facility (site) energy: IT * PUE at each minute.
		siteJ := 0.0
		last := simulator.Time(0)
		m.Eng.Every(simulator.Minute, "site-probe", func(now simulator.Time) {
			siteJ += m.Fac.SitePower(now, m.Pw.TotalPower()) * float64(now-last)
			last = now
		})
		m.Run(horizon)
		return name, m.Pw.TotalEnergy() / 3.6e6, siteJ / 3.6e6, m.Metrics.Waits.Median()
	}

	type cell struct {
		name           string
		it, site, wait float64
	}
	cells := runner.Map(2, func(k int) cell {
		if k == 0 {
			n, it, site, w := run("PUE-oblivious", false)
			return cell{n, it, site, w}
		}
		n, it, site, w := run("cooling-aware deferral", true)
		return cell{n, it, site, w}
	})
	bName, bIT, bSite, bWait := cells[0].name, cells[0].it, cells[0].site, cells[0].wait
	cName, cIT, cSite, cWait := cells[1].name, cells[1].it, cells[1].site, cells[1].wait

	tbl := report.Table{
		Header: []string{"configuration", "IT energy (kWh)", "site energy (kWh)", "median wait"},
		Rows: [][]string{
			{bName, fmt.Sprintf("%.0f", bIT), fmt.Sprintf("%.0f", bSite), simulator.Time(bWait).String()},
			{cName, fmt.Sprintf("%.0f", cIT), fmt.Sprintf("%.0f", cSite), simulator.Time(cWait).String()},
		},
	}
	return Result{
		ID:    "E18",
		Title: "Cooling-aware job deferral (LRZ research row)",
		Table: tbl,
		Notes: []string{
			fmt.Sprintf("site energy cut %s at ~equal IT energy; the saving is pure cooling overhead", fmtPct(1-cSite/bSite)),
		},
		Values: map[string]float64{
			"site_base": bSite,
			"site_cool": cSite,
			"it_base":   bIT,
			"it_cool":   cIT,
			"wait_base": bWait,
			"wait_cool": cWait,
		},
	}
}

// E19Monitoring exercises the hierarchical monitoring substrate at system
// scale: archive consistency and hottest-node detection under load
// (STFC/CINECA production monitoring). The node, rack, PDU and system
// draws are registry gauges sampled every 30 s by a tsdb store whose raw
// tier holds the whole run.
func E19Monitoring(seed uint64) Result {
	const step, horizon = 30 * simulator.Second, 2 * simulator.Day
	const pduLimitW = 32 * 330
	m := stdMgr(seed, 0.06, nil)
	reg := metrics.New()
	tree := m.Pw.RegisterTree(reg)
	m.AttachHistory(tsdb.New(reg, tsdb.Config{Step: step, RawCap: int(horizon / step)}))
	spec := workload.DefaultSpec()
	spec.ArrivalMeanSec = 200
	feed(m, spec, seed^67, 300)
	m.Run(horizon)

	h := m.Hist
	mean, n, _ := h.Reduce(tree.System, 0, horizon, tsdb.OpMean)
	peak, _, _ := h.Reduce(tree.System, 0, horizon, tsdb.OpMax)
	// The row counts raw PDU samples over the limit, not alert episodes.
	overLimit := 0
	for _, name := range tree.PDUs {
		raw, _ := h.Samples(name, tsdb.TierRaw)
		for _, s := range raw {
			if s.V > pduLimitW {
				overLimit++
			}
		}
	}
	nodeMean := make([]float64, len(tree.Nodes))
	hottest := make([]int, len(tree.Nodes))
	for i, name := range tree.Nodes {
		nodeMean[i], _, _ = h.Reduce(name, 0, horizon, tsdb.OpMean)
		hottest[i] = i
	}
	sort.Slice(hottest, func(a, b int) bool { return nodeMean[hottest[a]] > nodeMean[hottest[b]] })
	hottest = hottest[:5]
	tbl := report.Table{
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"samples (system channel)", fmt.Sprint(n)},
			{"system mean / max (kW)", fmt.Sprintf("%.1f / %.1f", mean/1000, peak/1000)},
			{"PDU over-limit alerts", fmt.Sprint(overLimit)},
			{"hottest nodes (mean draw)", fmt.Sprint(hottest)},
		},
	}
	return Result{
		ID:    "E19",
		Title: "Hierarchical power monitoring: data center, machine, job levels (STFC/CINECA)",
		Table: tbl,
		Notes: []string{"node, rack, PDU and system channels archived at three resolutions"},
		Values: map[string]float64{
			"samples": float64(n),
			"mean_w":  mean,
		},
	}
}
