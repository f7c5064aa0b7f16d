package power

import (
	"math"
	"testing"

	"epajsrm/internal/cluster"
	"epajsrm/internal/metrics"
	"epajsrm/internal/simulator"
	"epajsrm/internal/tsdb"
)

// TestTreeSumsAreConsistent samples the registered tree into a tsdb store
// while jobs start, get capped and end on a machine with per-node
// variability, and checks every sample: the node, rack and PDU series
// each sum to the system series within 1e-6, each rack and PDU series is
// the sum of the nodes the cluster places under it, and the system
// series is exactly PowerOfNodes over all nodes at that instant.
func TestTreeSumsAreConsistent(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig())
	sys := NewSystem(cl, DefaultNodeModel(), DefaultPStates(), 0.06, simulator.NewRNG(5))
	reg := metrics.New()
	tree := sys.RegisterTree(reg)
	if len(tree.Nodes) != cl.Size() || len(tree.Racks) != cl.Racks || len(tree.PDUs) != cl.PDUs {
		t.Fatalf("tree has %d nodes, %d racks, %d PDUs; cluster %d, %d, %d",
			len(tree.Nodes), len(tree.Racks), len(tree.PDUs), cl.Size(), cl.Racks, cl.PDUs)
	}
	st := tsdb.New(reg, tsdb.Config{Step: 10 * simulator.Second})

	var want []float64 // PowerOfNodes(cl.Nodes) at each sample
	sample := func(now simulator.Time) {
		st.Sample(now)
		want = append(want, sys.PowerOfNodes(cl.Nodes))
	}
	now := simulator.Time(0)
	sample(now)
	var running [][]*cluster.Node
	for id := int64(1); id <= 12; id++ {
		now += 10 * simulator.Second
		nodes := cl.Allocate(id, 1+int(id*7)%11, now, nil)
		if nodes == nil {
			t.Fatalf("job %d: no nodes", id)
		}
		sys.StartJob(now, id, nodes, 180+17*float64(id), 0.1*float64(id%5), 1)
		running = append(running, nodes)
		if id%3 == 0 {
			sys.SetNodeCap(now, nodes[0], 150)
		}
		if id%4 == 0 {
			first := int64(len(running) - 3)
			sys.EndJob(now, first+1, running[first])
			cl.Release(first+1, now)
		}
		sample(now)
	}

	series := func(name string) []tsdb.Sample {
		s, ok := st.Samples(name, tsdb.TierRaw)
		if !ok || len(s) != len(want) {
			t.Fatalf("%s: %d samples (ok %v), want %d", name, len(s), ok, len(want))
		}
		return s
	}
	near := func(k int, what string, got, want float64) {
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("sample %d: %s %v, want %v", k, what, got, want)
		}
	}
	system := series(tree.System)
	for k, s := range system {
		if s.V != want[k] {
			t.Fatalf("sample %d: system %v, PowerOfNodes %v", k, s.V, want[k])
		}
		// Each level sums to the system, and each rack and PDU to the
		// nodes the cluster places under it.
		rackW, pduW := make([]float64, cl.Racks), make([]float64, cl.PDUs)
		nodeSum := 0.0
		for _, n := range cl.Nodes {
			w := series(tree.Nodes[n.ID])[k].V
			nodeSum += w
			rackW[n.Rack] += w
			pduW[n.PDU] += w
		}
		near(k, "node sum", nodeSum, s.V)
		for _, level := range []struct {
			names []string
			want  []float64
		}{{tree.Racks, rackW}, {tree.PDUs, pduW}} {
			levelSum := 0.0
			for i, name := range level.names {
				v := series(name)[k].V
				near(k, name, v, level.want[i])
				levelSum += v
			}
			near(k, level.names[0]+"... sum", levelSum, s.V)
		}
	}
	if system[0].V == system[len(system)-1].V {
		t.Fatal("system draw never moved; the load changes did not reach the tree")
	}
}
