package core

import (
	"fmt"
	"sort"
	"strings"

	"epajsrm/internal/cluster"
	"epajsrm/internal/simulator"
)

// Status renders the live system state the way an operator's squeue/sinfo
// pair would — Q3(a)'s "what is running right now, or what does a typical
// snapshot look like?" as a function.
func (m *Manager) Status() string {
	now := m.Eng.Now()
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s @ %s ===\n", m.Cl.Cfg.Name, now)

	// Node states.
	states := []cluster.NodeState{
		cluster.StateIdle, cluster.StateBusy, cluster.StateOff,
		cluster.StateBooting, cluster.StateShuttingDown,
		cluster.StateDraining, cluster.StateDown,
	}
	fmt.Fprintf(&b, "nodes:")
	for _, s := range states {
		if k := m.Cl.CountState(s); k > 0 {
			fmt.Fprintf(&b, " %d %s", k, s)
		}
	}
	fmt.Fprintf(&b, " (of %d)\n", m.Cl.Size())
	fmt.Fprintf(&b, "power: %.1f kW now, %.1f kW peak; %.2f MWh consumed\n",
		m.Pw.TotalPower()/1000, func() float64 { p, _ := m.Pw.PeakPower(); return p }()/1000,
		m.Pw.TotalEnergy()/3.6e9)

	// Running jobs, widest first; Running's ID order breaks ties.
	running := m.Running()
	sort.SliceStable(running, func(i, j int) bool { return running[i].Nodes > running[j].Nodes })
	fmt.Fprintf(&b, "running (%d):\n", len(running))
	for i, j := range running {
		if i >= 10 {
			fmt.Fprintf(&b, "  ... and %d more\n", len(running)-10)
			break
		}
		frac := m.Pw.JobFrac(j.ID)
		elapsed := now - j.Start
		fmt.Fprintf(&b, "  job %-6d %-8s %-10s %3d nodes  %s elapsed  f=%.2f  %.1f kWh\n",
			j.ID, j.User, j.Tag, j.Nodes, elapsed, frac, m.Pw.JobEnergy(j.ID)/3.6e6)
	}

	// Queue backlog — Q3(b).
	queued := m.Queue.Jobs()
	demand := m.Queue.TotalNodeDemand()
	fmt.Fprintf(&b, "queued (%d jobs, %d nodes demanded):\n", len(queued), demand)
	for i, j := range queued {
		if i >= 10 {
			fmt.Fprintf(&b, "  ... and %d more\n", len(queued)-10)
			break
		}
		fmt.Fprintf(&b, "  job %-6d %-8s %3d nodes  wall %s  prio %d  waiting %s\n",
			j.ID, j.User, j.Nodes, j.Walltime, j.Priority, now-j.Submit)
	}
	_ = simulator.Time(0)
	return b.String()
}
