package power

import (
	"fmt"
	"sort"

	"epajsrm/internal/cluster"
	"epajsrm/internal/metrics"
	"epajsrm/internal/simulator"
	"epajsrm/internal/trace"
)

// Controller is a CAPMC-style out-of-band control plane: the administrative
// interface Cray ships on all XC systems (per the Trinity/LANL+Sandia and
// KAUST survey rows) for reading power and setting system-wide and
// node-level power caps without involving the jobs' in-band software.
// This model is the actuation side: node, group and system caps and node
// power-off/on; power readings come from System and Telemetry.
// Production sites need to reconstruct who capped what and when: with a
// tracer attached every actuation, failure and abandonment is a
// capmc.<action> instant on the power track, and the actuation counters
// below count failures, retries and abandonments either way.
type Controller struct {
	Eng *simulator.Engine
	Sys *System

	// SystemCapW is the administrative whole-system cap; 0 disables it.
	// It is advisory bookkeeping at this layer — enforcement is done by the
	// policies that divide it into node caps (see DivideSystemCap).
	SystemCapW float64

	// Out-of-band cap actuations can fail in production (BMC timeouts,
	// management-network loss). FaultProb is the injected per-actuation
	// failure probability drawn from FaultRNG (both zero-valued by default:
	// actuations never fail). A failed actuation is retried with capped
	// exponential backoff in virtual time — RetryBase, doubling per
	// attempt, capped at RetryMaxDelay, at most RetryMax retries. Each
	// failure and abandonment is a capmc.<action> trace instant.
	FaultProb float64
	FaultRNG  *simulator.RNG
	// RetryMax <= 0 means the default (4); RetryBase/RetryMaxDelay <= 0
	// mean the defaults (2 s and 60 s).
	RetryMax      int
	RetryBase     simulator.Time
	RetryMaxDelay simulator.Time

	// OnDeferredApply, if set, runs after an actuation succeeds on a retry
	// (asynchronously, outside the original caller's control flow). The
	// manager hooks this to re-time running jobs whose frequency the late
	// cap just changed.
	OnDeferredApply func(now simulator.Time)

	// Actuation fault counters for experiments and reports. Standalone
	// metrics counters so the owning manager can adopt them into its
	// registry (core wires them under actuation.*).
	ActuationFailures  *metrics.Counter
	ActuationRetries   *metrics.Counter
	ActuationAbandoned *metrics.Counter

	// Tr, when non-nil, receives an instant event per audited actuation on
	// the power track. Nil (the default) costs one pointer check per audit.
	Tr *trace.Tracer
}

// NewController returns a control plane over sys.
func NewController(eng *simulator.Engine, sys *System) *Controller {
	return &Controller{
		Eng:                eng,
		Sys:                sys,
		ActuationFailures:  metrics.NewCounter(),
		ActuationRetries:   metrics.NewCounter(),
		ActuationAbandoned: metrics.NewCounter(),
	}
}

func (c *Controller) audit(action, target string, value float64) {
	if c.Tr != nil {
		c.Tr.Instant(trace.PidPower, 0, "capmc."+action, c.Eng.Now(),
			trace.Arg{Key: "target", Val: target}, trace.Arg{Key: "value", Val: value})
	}
}

// SetNodeCap applies a node-level power cap out-of-band. capW below the
// node's off draw is rejected; capW = 0 removes the cap. An injected
// actuation failure (FaultProb) is not an error: the controller retries
// with capped exponential backoff and gives up only after RetryMax
// attempts, mirroring how production control planes absorb transient BMC
// faults without surfacing each one to the policy layer.
func (c *Controller) SetNodeCap(id int, capW float64) error {
	if id < 0 || id >= c.Sys.Cl.Size() {
		return fmt.Errorf("capmc: no node %d", id)
	}
	if capW < 0 {
		return fmt.Errorf("capmc: negative cap %f", capW)
	}
	if capW > 0 && capW < c.Sys.Model.OffW {
		return fmt.Errorf("capmc: cap %.1f W below off draw %.1f W", capW, c.Sys.Model.OffW)
	}
	c.applyNodeCap(id, capW, 0)
	return nil
}

func (c *Controller) actuationFails() bool {
	return c.FaultProb > 0 && c.FaultRNG != nil && c.FaultRNG.Float64() < c.FaultProb
}

// retryDelay returns the backoff before retry #attempt (0-based): base,
// 2*base, 4*base, ... capped at RetryMaxDelay.
func (c *Controller) retryDelay(attempt int) simulator.Time {
	base := c.RetryBase
	if base <= 0 {
		base = 2 * simulator.Second
	}
	maxDelay := c.RetryMaxDelay
	if maxDelay <= 0 {
		maxDelay = 60 * simulator.Second
	}
	d := base
	for i := 0; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	return d
}

// applyNodeCap performs one actuation attempt; on injected failure it
// schedules the next attempt as a daemon event (retries never keep a
// drained run alive).
func (c *Controller) applyNodeCap(id int, capW float64, attempt int) {
	n := c.Sys.Cl.Nodes[id]
	if c.actuationFails() {
		c.ActuationFailures.Inc()
		c.audit("set_node_cap.fail", n.Name, capW)
		retryMax := c.RetryMax
		if retryMax <= 0 {
			retryMax = 4
		}
		if attempt >= retryMax {
			c.ActuationAbandoned.Inc()
			c.audit("set_node_cap.abandon", n.Name, capW)
			return
		}
		c.ActuationRetries.Inc()
		c.Eng.AfterDaemon(c.retryDelay(attempt), "capmc-retry", func(simulator.Time) {
			c.applyNodeCap(id, capW, attempt+1)
		})
		return
	}
	c.Sys.SetNodeCap(c.Eng.Now(), n, capW)
	c.audit("set_node_cap", n.Name, capW)
	if attempt > 0 && c.OnDeferredApply != nil {
		c.OnDeferredApply(c.Eng.Now())
	}
}

// SetGroupCap applies one cap to every node in the group — JCAHPC's
// production capability ("set power caps for groups of nodes via the
// resource manager").
func (c *Controller) SetGroupCap(ids []int, capW float64) error {
	for _, id := range ids {
		if err := c.SetNodeCap(id, capW); err != nil {
			return err
		}
	}
	c.audit("set_group_cap", fmt.Sprintf("group(%d nodes)", len(ids)), capW)
	return nil
}

// SetSystemCap records an administrative system-wide cap and divides it
// uniformly across non-off nodes as node caps. LANL+Sandia's production row
// is exactly this: "administrator ability to set system-wide and node-level
// power caps".
func (c *Controller) SetSystemCap(capW float64) error {
	if capW < 0 {
		return fmt.Errorf("capmc: negative system cap")
	}
	c.SystemCapW = capW
	c.audit("set_system_cap", "system", capW)
	if capW == 0 {
		for _, n := range c.Sys.Cl.Nodes {
			c.applyNodeCap(n.ID, 0, 0)
		}
		return nil
	}
	caps := c.DivideSystemCap(capW)
	ids := make([]int, 0, len(caps))
	for id := range caps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		c.applyNodeCap(id, caps[id], 0)
	}
	return nil
}

// DivideSystemCap splits a system cap into per-node caps over the nodes
// that are not powered off, clamped to at least the idle draw so a cap can
// always be satisfied by an idle node. Off nodes get their trickle draw
// reserved first.
func (c *Controller) DivideSystemCap(capW float64) map[int]float64 {
	var active []*cluster.Node
	reserved := 0.0
	for _, n := range c.Sys.Cl.Nodes {
		if n.State == cluster.StateOff || n.State == cluster.StateDown {
			reserved += c.Sys.Model.OffW
		} else {
			active = append(active, n)
		}
	}
	out := map[int]float64{}
	if len(active) == 0 {
		return out
	}
	per := (capW - reserved) / float64(len(active))
	if per < c.Sys.Model.IdleW {
		per = c.Sys.Model.IdleW
	}
	sort.Slice(active, func(i, j int) bool { return active[i].ID < active[j].ID })
	for _, n := range active {
		out[n.ID] = per
	}
	return out
}

// PowerOff begins an out-of-band node power-off (idle nodes only) and
// schedules completion after the configured shutdown delay.
func (c *Controller) PowerOff(id int) error {
	if id < 0 || id >= c.Sys.Cl.Size() {
		return fmt.Errorf("capmc: no node %d", id)
	}
	n := c.Sys.Cl.Nodes[id]
	now := c.Eng.Now()
	if !c.Sys.Cl.BeginShutdown(n, now) {
		return fmt.Errorf("capmc: node %s not idle (%s)", n.Name, n.State)
	}
	c.Sys.RefreshNode(now, n)
	c.audit("power_off", n.Name, 0)
	c.Eng.After(c.Sys.Cl.Cfg.ShutdownDelay, "capmc-off", func(t simulator.Time) {
		c.Sys.Cl.FinishShutdown(n, t)
		c.Sys.RefreshNode(t, n)
	})
	return nil
}

// PowerOn begins an out-of-band node boot and schedules completion after
// the configured boot delay. onReady, if non-nil, runs when the node is up.
func (c *Controller) PowerOn(id int, onReady func(now simulator.Time)) error {
	if id < 0 || id >= c.Sys.Cl.Size() {
		return fmt.Errorf("capmc: no node %d", id)
	}
	n := c.Sys.Cl.Nodes[id]
	now := c.Eng.Now()
	if !c.Sys.Cl.BeginBoot(n, now) {
		return fmt.Errorf("capmc: node %s not off (%s)", n.Name, n.State)
	}
	c.Sys.RefreshNode(now, n)
	c.audit("power_on", n.Name, 0)
	c.Eng.After(c.Sys.Cl.Cfg.BootDelay, "capmc-on", func(t simulator.Time) {
		c.Sys.Cl.FinishBoot(n, t)
		c.Sys.RefreshNode(t, n)
		if onReady != nil {
			onReady(t)
		}
	})
	return nil
}
