package power

import (
	"slices"
	"testing"
	"testing/quick"

	"epajsrm/internal/cluster"
	"epajsrm/internal/simulator"
	"epajsrm/internal/trace"
)

func newTestController() (*Controller, *simulator.Engine, *cluster.Cluster) {
	eng := simulator.NewEngine()
	cl := cluster.New(cluster.DefaultConfig())
	sys := NewSystem(cl, DefaultNodeModel(), DefaultPStates(), 0, nil)
	return NewController(eng, sys), eng, cl
}

// watchActuations attaches a streaming tracer to c and returns a function
// that drains the capmc.<action> instants emitted since the last call, in
// emission order (Tracer.Events would sort same-instant events by name).
// The 64-event buffer holds more instants than any test here emits.
func watchActuations(t *testing.T, c *Controller) func() []string {
	c.Tr = trace.NewStreaming()
	ch, cancel := c.Tr.Subscribe(64)
	t.Cleanup(cancel)
	return func() []string {
		var names []string
		for {
			select {
			case e := <-ch:
				names = append(names, e.Name)
			default:
				return names
			}
		}
	}
}

func TestControllerNodeCapValidation(t *testing.T) {
	c, _, _ := newTestController()
	actions := watchActuations(t, c)
	if err := c.SetNodeCap(-1, 200); err == nil {
		t.Error("bad node id accepted")
	}
	if err := c.SetNodeCap(0, -5); err == nil {
		t.Error("negative cap accepted")
	}
	if err := c.SetNodeCap(0, 5); err == nil {
		t.Error("cap below off draw accepted")
	}
	if err := c.SetNodeCap(0, 250); err != nil {
		t.Fatal(err)
	}
	if got := actions(); !slices.Equal(got, []string{"capmc.set_node_cap"}) {
		t.Fatalf("actuations = %v, want one set_node_cap", got)
	}
}

func TestControllerSystemCapDividesBudget(t *testing.T) {
	c, _, cl := newTestController()
	budget := 64.0 * 200
	if err := c.SetSystemCap(budget); err != nil {
		t.Fatal(err)
	}
	for _, n := range cl.Nodes {
		if n.CapW != 200 {
			t.Fatalf("node %d cap = %f, want 200", n.ID, n.CapW)
		}
	}
	// Remove the cap.
	if err := c.SetSystemCap(0); err != nil {
		t.Fatal(err)
	}
	for _, n := range cl.Nodes {
		if n.CapW != 0 {
			t.Fatalf("node %d still capped", n.ID)
		}
	}
}

func TestControllerSystemCapReservesOffNodes(t *testing.T) {
	c, _, cl := newTestController()
	// Power two nodes off instantly for the division logic.
	cl.BeginShutdown(cl.Nodes[0], 0)
	cl.FinishShutdown(cl.Nodes[0], 0)
	cl.BeginShutdown(cl.Nodes[1], 0)
	cl.FinishShutdown(cl.Nodes[1], 0)
	caps := c.DivideSystemCap(64 * 200)
	if len(caps) != 62 {
		t.Fatalf("caps for %d nodes, want 62", len(caps))
	}
	per := caps[2]
	wantPer := (64*200 - 2*c.Sys.Model.OffW) / 62
	if per < wantPer-1e-9 || per > wantPer+1e-9 {
		t.Fatalf("per-node cap = %f, want %f", per, wantPer)
	}
}

func TestControllerPowerOffOn(t *testing.T) {
	c, eng, cl := newTestController()
	if err := c.PowerOff(3); err != nil {
		t.Fatal(err)
	}
	if cl.Nodes[3].State != cluster.StateShuttingDown {
		t.Fatalf("state = %v", cl.Nodes[3].State)
	}
	// Cannot power off a node that is not idle.
	if err := c.PowerOff(3); err == nil {
		t.Error("double power-off accepted")
	}
	eng.Run()
	if cl.Nodes[3].State != cluster.StateOff {
		t.Fatalf("state after run = %v", cl.Nodes[3].State)
	}
	ready := false
	if err := c.PowerOn(3, func(simulator.Time) { ready = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if cl.Nodes[3].State != cluster.StateIdle || !ready {
		t.Fatalf("state = %v ready = %v", cl.Nodes[3].State, ready)
	}
	// Boot delay must have elapsed between off and idle.
	if eng.Now() < cl.Cfg.BootDelay {
		t.Fatalf("engine time %d < boot delay", eng.Now())
	}
}

func TestWindowMeterAverage(t *testing.T) {
	w := NewWindowMeter(100, 60)
	w.Observe(200, 30) // half window at 200
	w.Observe(0, 30)   // half at 0
	if got := w.WindowAverage(); got != 100 {
		t.Fatalf("window average = %f, want 100", got)
	}
	if w.Violated() {
		t.Fatal("average exactly at cap should not violate")
	}
	w.Observe(200, 30) // window is now [0 for 30s, 200 for 30s]
	if got := w.WindowAverage(); got != 100 {
		t.Fatalf("rolling average = %f, want 100", got)
	}
	w.Observe(200, 30)
	if !w.Violated() {
		t.Fatal("sustained 200 W must violate a 100 W window cap")
	}
}

func TestWindowMeterToleratesExcursions(t *testing.T) {
	// RAPL's defining property: a short spike inside the window is fine if
	// the average holds.
	w := NewWindowMeter(100, 60)
	w.Observe(90, 50)
	w.Observe(150, 10)
	if w.Violated() {
		t.Fatalf("avg = %f: short excursion should not violate", w.WindowAverage())
	}
}

func TestWindowMeterUncappedNeverViolates(t *testing.T) {
	w := NewWindowMeter(0, 60)
	w.Observe(1e6, 600)
	if w.Violated() {
		t.Fatal("uncapped meter violated")
	}
}

func TestWindowMeterAverageNeverExceedsMaxObserved(t *testing.T) {
	f := func(vals []uint16) bool {
		w := NewWindowMeter(100, 60)
		maxP := 0.0
		for _, v := range vals {
			p := float64(v % 500)
			d := float64(v%7) + 1
			w.Observe(p, d)
			if p > maxP {
				maxP = p
			}
		}
		avg := w.WindowAverage()
		return avg >= 0 && avg <= maxP+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDivideSystemCapConservesBudget(t *testing.T) {
	f := func(capRaw uint16, offRaw uint8) bool {
		c, _, cl := newTestController()
		// Power a few nodes off.
		nOff := int(offRaw % 16)
		for i := 0; i < nOff; i++ {
			cl.BeginShutdown(cl.Nodes[i], 0)
			cl.FinishShutdown(cl.Nodes[i], 0)
		}
		budget := 64*90.0 + float64(capRaw%20000)
		caps := c.DivideSystemCap(budget)
		total := float64(nOff) * c.Sys.Model.OffW
		for _, w := range caps {
			total += w
		}
		// Division never exceeds the budget unless clamped to the idle
		// floor (caps below idle are unenforceable).
		floor := float64(nOff)*c.Sys.Model.OffW + float64(64-nOff)*c.Sys.Model.IdleW
		return total <= budget+1e-6 || total <= floor+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestControllerActuationRetrySucceeds(t *testing.T) {
	c, eng, cl := newTestController()
	actions := watchActuations(t, c)
	// Fail the first two attempts, then heal.
	c.FaultRNG = simulator.NewRNG(1)
	c.FaultProb = 1
	if err := c.SetNodeCap(0, 250); err != nil {
		t.Fatal(err)
	}
	if cl.Nodes[0].CapW != 0 {
		t.Fatal("cap applied despite injected failure")
	}
	c.FaultProb = 0 // heal before the retry fires
	eng.RunUntil(10 * simulator.Minute)
	if cl.Nodes[0].CapW != 250 {
		t.Fatalf("cap = %f after retry, want 250", cl.Nodes[0].CapW)
	}
	if c.ActuationFailures.Value() != 1 || c.ActuationRetries.Value() != 1 || c.ActuationAbandoned.Value() != 0 {
		t.Fatalf("counters = %d/%d/%d", c.ActuationFailures.Value(), c.ActuationRetries.Value(), c.ActuationAbandoned.Value())
	}
	// Trace instants: fail, then the successful set.
	want := []string{"capmc.set_node_cap.fail", "capmc.set_node_cap"}
	if got := actions(); !slices.Equal(got, want) {
		t.Fatalf("actuations = %v, want %v", got, want)
	}
}

func TestControllerActuationAbandonsAfterRetryMax(t *testing.T) {
	c, eng, cl := newTestController()
	actions := watchActuations(t, c)
	c.FaultRNG = simulator.NewRNG(2)
	c.FaultProb = 1 // every attempt fails
	c.RetryMax = 3
	if err := c.SetNodeCap(0, 250); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * simulator.Minute)
	if cl.Nodes[0].CapW != 0 {
		t.Fatal("cap applied despite permanent failure")
	}
	// Initial attempt + 3 retries all fail, then abandon.
	if c.ActuationFailures.Value() != 4 || c.ActuationRetries.Value() != 3 || c.ActuationAbandoned.Value() != 1 {
		t.Fatalf("counters = %d/%d/%d", c.ActuationFailures.Value(), c.ActuationRetries.Value(), c.ActuationAbandoned.Value())
	}
	// The abandon instant follows the last failure at the same virtual
	// time.
	fail := "capmc.set_node_cap.fail"
	want := []string{fail, fail, fail, fail, "capmc.set_node_cap.abandon"}
	if got := actions(); !slices.Equal(got, want) {
		t.Fatalf("actuations = %v, want %v", got, want)
	}
}

func TestControllerRetryBackoffGrowsAndCaps(t *testing.T) {
	c, _, _ := newTestController()
	want := []simulator.Time{2, 4, 8, 16, 32, 60, 60}
	for i, w := range want {
		if got := c.retryDelay(i); got != w {
			t.Fatalf("retryDelay(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestControllerRetriesAreDaemonEvents(t *testing.T) {
	c, eng, _ := newTestController()
	c.FaultRNG = simulator.NewRNG(3)
	c.FaultProb = 1
	if err := c.SetNodeCap(0, 250); err != nil {
		t.Fatal(err)
	}
	// With only retry daemons queued, an unbounded run must end immediately.
	end := eng.Run()
	if end != 0 {
		t.Fatalf("retries kept the run alive until %v", end)
	}
}

func TestControllerDeferredApplyCallback(t *testing.T) {
	c, eng, _ := newTestController()
	c.FaultRNG = simulator.NewRNG(4)
	c.FaultProb = 1
	fired := 0
	c.OnDeferredApply = func(simulator.Time) { fired++ }
	if err := c.SetNodeCap(0, 250); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("deferred-apply fired for the synchronous attempt")
	}
	c.FaultProb = 0
	eng.RunUntil(10 * simulator.Minute)
	if fired != 1 {
		t.Fatalf("deferred-apply fired %d times, want 1", fired)
	}
	// A clean synchronous actuation must not fire the callback.
	if err := c.SetNodeCap(1, 250); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatal("deferred-apply fired for a first-attempt success")
	}
}
