package power

import (
	"math"
	"testing"

	"epajsrm/internal/cluster"
	"epajsrm/internal/simulator"
)

func newTestSystem() (*System, *cluster.Cluster) {
	cl := cluster.New(cluster.DefaultConfig())
	sys := NewSystem(cl, DefaultNodeModel(), DefaultPStates(), 0, nil)
	return sys, cl
}

func TestIdlePowerBaseline(t *testing.T) {
	sys, cl := newTestSystem()
	want := float64(cl.Size()) * sys.Model.IdleW
	if got := sys.TotalPower(); got != want {
		t.Fatalf("idle total = %f, want %f", got, want)
	}
}

func TestEnergyIntegrationExact(t *testing.T) {
	sys, cl := newTestSystem()
	nodes := cl.Allocate(1, 4, 0, nil)
	sys.StartJob(0, 1, nodes, 300, 0.3, 1)
	sys.Advance(1000)
	// 4 busy at 300 W + 60 idle at 90 W for 1000 s.
	want := (4*300 + 60*90) * 1000.0
	if got := sys.TotalEnergy(); math.Abs(got-want) > 1 {
		t.Fatalf("energy = %f, want %f", got, want)
	}
	if got := sys.JobEnergy(1); math.Abs(got-4*300*1000) > 1 {
		t.Fatalf("job energy = %f", got)
	}
}

func TestAdvanceIdempotent(t *testing.T) {
	sys, _ := newTestSystem()
	sys.Advance(100)
	e1 := sys.TotalEnergy()
	sys.Advance(100)
	if sys.TotalEnergy() != e1 {
		t.Fatal("Advance at same time changed energy")
	}
}

func TestAdvancePanicsOnTimeReversal(t *testing.T) {
	sys, _ := newTestSystem()
	sys.Advance(100)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on backwards time")
		}
	}()
	sys.Advance(50)
}

func TestCapReducesPowerAndFrac(t *testing.T) {
	sys, cl := newTestSystem()
	nodes := cl.Allocate(1, 1, 0, nil)
	sys.StartJob(0, 1, nodes, 360, 0, 1)
	if got := sys.NodePower(nodes[0].ID); got != 360 {
		t.Fatalf("uncapped draw = %f", got)
	}
	if got := sys.JobFrac(1); got != 1 {
		t.Fatalf("uncapped frac = %f", got)
	}
	sys.SetNodeCap(10, nodes[0], 200)
	if got := sys.NodePower(nodes[0].ID); got > 200+1e-9 {
		t.Fatalf("capped draw = %f, want <= 200", got)
	}
	if got := sys.JobFrac(1); got >= 1 {
		t.Fatalf("capped frac = %f, want < 1", got)
	}
	sys.SetNodeCap(20, nodes[0], 0)
	if got := sys.NodePower(nodes[0].ID); got != 360 {
		t.Fatalf("uncapped again = %f", got)
	}
}

func TestJobFracIsCriticalPath(t *testing.T) {
	sys, cl := newTestSystem()
	nodes := cl.Allocate(1, 3, 0, nil)
	sys.StartJob(0, 1, nodes, 360, 0, 1)
	sys.SetNodeCap(0, nodes[1], 200) // one slow node
	frac, _ := sys.Model.FreqForCap(200, 360, 1)
	if got := sys.JobFrac(1); math.Abs(got-frac) > 1e-9 {
		t.Fatalf("job frac = %f, want slowest node's %f", got, frac)
	}
}

func TestSetJobFreq(t *testing.T) {
	sys, cl := newTestSystem()
	nodes := cl.Allocate(1, 2, 0, nil)
	sys.StartJob(0, 1, nodes, 360, 0, 1)
	p1 := sys.TotalPower()
	sys.SetJobFreq(10, 1, 0.5)
	if got := sys.JobFrac(1); got != 0.5 {
		t.Fatalf("frac = %f", got)
	}
	if sys.TotalPower() >= p1 {
		t.Fatal("halving frequency should reduce power")
	}
}

func TestVariabilityFactorsApplied(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig())
	rng := simulator.NewRNG(5)
	sys := NewSystem(cl, DefaultNodeModel(), DefaultPStates(), 0.05, rng)
	distinct := map[float64]bool{}
	for i := 0; i < cl.Size(); i++ {
		vf := sys.VarFactor(i)
		if vf < 0.7 || vf > 1.3 {
			t.Fatalf("vf out of clamp: %f", vf)
		}
		distinct[vf] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("variability factors look degenerate: %d distinct", len(distinct))
	}
	// Busy power at full load must differ across nodes.
	n1 := cl.Allocate(1, 2, 0, nil)
	sys.StartJob(0, 1, n1, 360, 0, 1)
	if sys.NodePower(n1[0].ID) == sys.NodePower(n1[1].ID) &&
		sys.VarFactor(n1[0].ID) != sys.VarFactor(n1[1].ID) {
		t.Fatal("variability not reflected in draw")
	}
}

func TestPeakPowerTracking(t *testing.T) {
	sys, cl := newTestSystem()
	nodes := cl.Allocate(1, 10, 0, nil)
	sys.StartJob(0, 1, nodes, 360, 0, 1)
	peak1, at1 := sys.PeakPower()
	cl.Release(1, 100)
	sys.EndJob(100, 1, nodes)
	peak2, _ := sys.PeakPower()
	if peak2 != peak1 || at1 != 0 {
		t.Fatalf("peak should persist: %f@%d then %f", peak1, at1, peak2)
	}
}

func TestOffNodesDrawTricklePower(t *testing.T) {
	sys, cl := newTestSystem()
	n := cl.Nodes[0]
	cl.BeginShutdown(n, 0)
	sys.RefreshNode(0, n)
	if got := sys.NodePower(0); got != sys.Model.BootW {
		t.Fatalf("shutting-down draw = %f", got)
	}
	cl.FinishShutdown(n, 60)
	sys.RefreshNode(60, n)
	if got := sys.NodePower(0); got != sys.Model.OffW {
		t.Fatalf("off draw = %f", got)
	}
}

func TestMinMaxPossiblePower(t *testing.T) {
	sys, cl := newTestSystem()
	if got := sys.MinPossiblePower(); got != float64(cl.Size())*sys.Model.OffW {
		t.Fatalf("min possible = %f", got)
	}
	if got := sys.MaxPossiblePower(); got != float64(cl.Size())*sys.Model.MaxW {
		t.Fatalf("max possible = %f", got)
	}
}

func TestPowerOfNodes(t *testing.T) {
	sys, cl := newTestSystem()
	subset := cl.Nodes[:5]
	want := 5 * sys.Model.IdleW
	if got := sys.PowerOfNodes(subset); got != want {
		t.Fatalf("subset power = %f, want %f", got, want)
	}
}
