package policy

import (
	"fmt"

	"epajsrm/internal/cluster"
	"epajsrm/internal/core"
	"epajsrm/internal/jobs"
	"epajsrm/internal/simulator"
)

// DynamicPowerSharing implements the SLURM Dynamic Power Management idea
// KAUST co-developed with SchedMD, following Ellsworth et al. [17]:
// a cluster-wide power budget is divided into node caps periodically, and
// budget that capped-but-cool nodes are not using is shifted to nodes whose
// workloads actually want the power. Compared with a uniform static split
// of the same budget, throughput rises because caps bind only where demand
// exists.
type DynamicPowerSharing struct {
	// BudgetW is the cluster IT power budget to divide.
	BudgetW float64
	// Period is how often budgets are rebalanced (Ellsworth uses seconds;
	// production SDPM uses tens of seconds).
	Period simulator.Time

	// Rebalances counts how many redistribution passes ran.
	Rebalances int

	m           *core.Manager
	rebalancing bool
	busy        []busyNode // rebalance's scratch, kept across calls
}

// busyNode is a busy node and the uncapped draw its workload wants.
type busyNode struct {
	n      *cluster.Node
	demand float64
}

// Name implements core.Policy.
func (p *DynamicPowerSharing) Name() string {
	return fmt.Sprintf("dynamic-power-sharing(%.0fkW)", p.BudgetW/1000)
}

// Attach implements core.Policy.
func (p *DynamicPowerSharing) Attach(m *core.Manager) {
	if p.BudgetW <= 0 {
		panic("policy: DynamicPowerSharing needs a positive budget")
	}
	if p.Period <= 0 {
		p.Period = 30 * simulator.Second
	}
	p.m = m
	m.ScheduleEvery(p.Period, "power-sharing", p.rebalance)
	// Unlike a power-headroom start gate, admission here is by node
	// availability alone: the caps assigned at rebalance are what hold the
	// envelope (Ellsworth's design). Rebalancing on every start/end keeps
	// the books tight between periodic passes.
	m.OnJobStart(func(m *core.Manager, j *jobs.Job, _ []*cluster.Node) {
		p.rebalance(m.Eng.Now())
	})
	m.OnJobEnd(func(m *core.Manager, j *jobs.Job) {
		p.rebalance(m.Eng.Now())
	})
}

// rebalance divides the budget across nodes by demand: every powered node
// is guaranteed its idle draw; the remainder goes to busy nodes in
// proportion to their uncapped demand. Nodes with no demand get exactly
// their guarantee, so no budget idles while jobs are throttled elsewhere.
func (p *DynamicPowerSharing) rebalance(now simulator.Time) {
	if p.rebalancing {
		return // a rebalance-triggered start must not recurse
	}
	p.rebalancing = true
	defer func() { p.rebalancing = false }()
	m := p.m
	p.Rebalances++
	model := m.Pw.Model

	busy := p.busy[:0]
	guaranteed := 0.0
	for _, n := range m.Cl.Nodes {
		switch n.State {
		case cluster.StateOff, cluster.StateDown:
			guaranteed += model.OffW
		case cluster.StateBooting, cluster.StateShuttingDown:
			guaranteed += model.BootW
		case cluster.StateBusy, cluster.StateDraining:
			guaranteed += model.IdleW
			d := p.nodeDemand(n)
			busy = append(busy, busyNode{n: n, demand: d})
		default:
			guaranteed += model.IdleW
		}
	}
	p.busy = busy
	spare := p.BudgetW - guaranteed
	if spare < 0 {
		spare = 0
	}
	totalWant := 0.0
	for _, b := range busy {
		totalWant += b.demand - model.IdleW
	}
	for _, b := range busy {
		want := b.demand - model.IdleW
		var grant float64
		if totalWant <= spare {
			grant = want // everyone runs uncapped
		} else if totalWant > 0 {
			grant = spare * want / totalWant
		}
		cap := model.IdleW + grant
		m.Pw.SetNodeCap(now, b.n, cap)
	}
	m.RetimeAll(now)
	m.TrySchedule(now)
}

// nodeDemand returns what the node would draw uncapped at its assigned
// frequency.
func (p *DynamicPowerSharing) nodeDemand(n *cluster.Node) float64 {
	m := p.m
	if j := m.RunningJob(n.JobID); j != nil {
		return m.Pw.Model.BusyPower(j.PowerPerNodeW, j.FreqFrac, m.Pw.VarFactor(n.ID))
	}
	return m.Pw.Model.IdleW
}
