package power

import (
	"math"
	"testing"

	"epajsrm/internal/cluster"
	"epajsrm/internal/simulator"
)

// TestDerivedDrawMatchesFresh drives random StartJob, SetNodeCap (the
// node's current cap as well as new ones), SetJobFreq, SetJobAux and EndJob
// steps. After every step each loaded node's cached frequency fraction and
// compute draw must equal, bit for bit, a fresh effectiveFrac and
// BusyPower; JobFrac must equal the minimum of fresh fractions; and every
// node's stored draw must equal computeNodePower, so no writer left a
// stale value behind.
func TestDerivedDrawMatchesFresh(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig())
	sys := NewSystem(cl, DefaultNodeModel(), DefaultPStates(), 0.08, simulator.NewRNG(3))
	rng := simulator.NewRNG(21)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var active []int64
	nextID := int64(1)
	anyFrac := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0 // unset: nominal
		case 1:
			return 1.2 // above nominal: clamped
		case 2:
			return 0.3 // below MinFrac
		}
		return 0.5 + rng.Float64()*0.5
	}
	check := func(step int) {
		t.Helper()
		for id, n := range cl.Nodes {
			if ld := sys.loads[id]; ld != nil {
				f := sys.effectiveFrac(n, ld)
				if !same(sys.frac[id], f) {
					t.Fatalf("step %d node %d: cached frac %v, fresh %v", step, id, sys.frac[id], f)
				}
				if w := sys.Model.BusyPower(ld.NominalW, f, sys.vf[id]); !same(sys.busyW[id], w) {
					t.Fatalf("step %d node %d: cached busy draw %v, fresh %v", step, id, sys.busyW[id], w)
				}
			}
			if p := sys.computeNodePower(n); !same(sys.NodePower(id), p) {
				t.Fatalf("step %d node %d: NodePower %v, computeNodePower %v", step, id, sys.NodePower(id), p)
			}
		}
		for _, job := range active {
			want := 1.0
			for _, n := range cl.JobNodes(job) {
				want = min(want, sys.effectiveFrac(n, sys.loads[n.ID]))
			}
			if got := sys.JobFrac(job); !same(got, want) {
				t.Fatalf("step %d job %d: JobFrac %v, fresh minimum %v", step, job, got, want)
			}
		}
	}

	now := simulator.Time(0)
	for step := 0; step < 3000; step++ {
		now += simulator.Time(rng.Intn(120))
		switch rng.Intn(6) {
		case 0, 1:
			w := 1 + rng.Intn(6)
			if nodes := cl.Allocate(nextID, w, now, nil); nodes != nil {
				sys.StartJob(now, nextID, nodes, 60+rng.Float64()*340, rng.Float64()*0.6, anyFrac())
				active = append(active, nextID)
				nextID++
			}
		case 2:
			if len(active) > 0 {
				k := rng.Intn(len(active))
				id := active[k]
				sys.EndJob(now, id, cl.Release(id, now))
				active = append(active[:k], active[k+1:]...)
			}
		case 3:
			if len(active) > 0 {
				sys.SetJobFreq(now, active[rng.Intn(len(active))], anyFrac())
			}
		case 4:
			if len(active) > 0 {
				sys.SetJobAux(now, active[rng.Intn(len(active))], rng.Float64()*40)
			}
		case 5:
			n := cl.Nodes[rng.Intn(cl.Size())]
			if len(active) > 0 && rng.Float64() < 0.6 {
				nodes := cl.JobNodes(active[rng.Intn(len(active))])
				n = nodes[rng.Intn(len(nodes))]
			}
			capW := n.CapW // unchanged
			switch rng.Intn(4) {
			case 0:
				capW = 0 // uncapped
			case 1:
				capW = 60 + rng.Float64()*40 // at or below idle: infeasible
			case 2:
				capW = 100 + rng.Float64()*300
			}
			sys.SetNodeCap(now, n, capW)
		}
		check(step)
	}
}
