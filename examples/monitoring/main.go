// Monitoring: an STFC/CINECA-style observability tour. The power
// hierarchy (node → rack → PDU → system) is registered as gauges on the
// manager's registry and archived by a tsdb store at three resolutions
// while a workload runs, with one alert threshold rule per PDU. The
// example then queries the archive, lists the most power-hungry nodes
// (KAUST's "detecting most power hungry applications"), and shows the
// PDU alerts.
package main

import (
	"fmt"
	"sort"

	"epajsrm/internal/alert"
	"epajsrm/internal/cluster"
	"epajsrm/internal/core"
	"epajsrm/internal/sched"
	"epajsrm/internal/simulator"
	"epajsrm/internal/tsdb"
	"epajsrm/internal/workload"
)

func main() {
	const horizon = 2 * simulator.Day
	m := core.NewManager(core.Options{
		Cluster:   cluster.DefaultConfig(),
		Scheduler: sched.EASY{},
		Seed:      9,
		VarSigma:  0.06,
	})
	tree := m.Pw.RegisterTree(m.Reg)
	// 30 s raw samples for the last ~4 h, 7.5-min rollups for a week and
	// hourly rollups beyond.
	h := tsdb.New(m.Reg, tsdb.Config{Step: 30 * simulator.Second, RawCap: 512})
	m.AttachHistory(h)

	var rules alert.Rules
	for i, name := range tree.PDUs {
		rules.Rules = append(rules.Rules, alert.Rule{
			Name: fmt.Sprintf("pdu%d_over_9kw", i), Kind: "threshold", Metric: name,
			Op: ">", Value: 9000, Severity: "ticket",
		})
	}
	w, err := alert.New(h, m.Reg, rules, horizon)
	if err != nil {
		panic(err)
	}
	m.AttachWatchdog(w)

	spec := workload.DefaultSpec()
	spec.ArrivalMeanSec = 180
	for _, j := range workload.NewGenerator(spec, 21).Generate(400) {
		if err := m.Submit(j, j.Submit); err != nil {
			panic(err)
		}
	}
	end := m.Run(horizon)

	// A reduction over the whole run is served by the finest tier that
	// still reaches back to its start.
	mean, n, step := h.Reduce(tree.System, 0, end, tsdb.OpMean)
	peak, _, _ := h.Reduce(tree.System, 0, end, tsdb.OpMax)
	fmt.Printf("monitored %s: system mean %.1f kW, peak %.1f kW (%d samples at %s)\n",
		end, mean/1000, peak/1000, n, step)

	// A recent window is served raw; one from the first hours, long
	// evicted from the raw ring, comes from the rollups.
	recent, recentStep, _ := h.Query(tree.System, end-10*simulator.Minute, end, 0)
	old, oldStep, _ := h.Query(tree.System, simulator.Hour, 3*simulator.Hour, 0)
	fmt.Printf("archive: last 10 min -> %d samples at %s; hours 1-3 -> %d samples at %s\n",
		len(recent), recentStep, len(old), oldStep)

	fmt.Println("\nper-PDU draw:")
	for i, name := range tree.PDUs {
		mean, _, _ := h.Reduce(name, 0, end, tsdb.OpMean)
		peak, _, _ := h.Reduce(name, 0, end, tsdb.OpMax)
		fmt.Printf("  pdu%02d  %.1f kW mean, %.1f kW peak\n", i, mean/1000, peak/1000)
	}

	fmt.Println("\nfive most power-hungry nodes (mean draw):")
	nodeMean := make([]float64, len(tree.Nodes))
	ids := make([]int, len(tree.Nodes))
	for id, name := range tree.Nodes {
		nodeMean[id], _, _ = h.Reduce(name, 0, end, tsdb.OpMean)
		ids[id] = id
	}
	sort.Slice(ids, func(a, b int) bool { return nodeMean[ids[a]] > nodeMean[ids[b]] })
	for _, id := range ids[:5] {
		fmt.Printf("  %s  %.0f W mean (variability factor %.3f)\n",
			m.Cl.Nodes[id].Name, nodeMean[id], m.Pw.VarFactor(id))
	}

	fmt.Println()
	fmt.Print(w.Summary().Render())
}
