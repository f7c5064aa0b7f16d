package power

import (
	"fmt"

	"epajsrm/internal/cluster"
	"epajsrm/internal/metrics"
)

// Tree names the gauges RegisterTree registers: one per node, rack and
// PDU, in index order, and the system sum.
type Tree struct {
	Nodes, Racks, PDUs []string
	System             string
}

// RegisterTree registers the power hierarchy the surveyed sites monitor
// (node → rack → PDU → system) on reg as gauges, so a tsdb store over reg
// archives every level and alert rules can watch any of them. Each sum
// adds NodePower over its nodes in ID order through PowerOfNodes, so a
// rack, PDU or system reading is the exact float sum of the node
// readings taken at the same instant. The names ("power.node.<id>_w",
// "power.rack.<i>_w", "power.pdu.<i>_w", "power.system_w") do not collide
// with the manager's own power.* gauges.
func (s *System) RegisterTree(reg *metrics.Registry) Tree {
	cl := s.Cl
	racks := make([][]*cluster.Node, cl.Racks)
	pdus := make([][]*cluster.Node, cl.PDUs)
	var t Tree
	for _, n := range cl.Nodes {
		racks[n.Rack] = append(racks[n.Rack], n)
		pdus[n.PDU] = append(pdus[n.PDU], n)
		id := n.ID
		name := fmt.Sprintf("power.node.%d_w", id)
		reg.GaugeFunc(name, func() float64 { return s.NodePower(id) })
		t.Nodes = append(t.Nodes, name)
	}
	sum := func(name string, nodes []*cluster.Node) string {
		reg.GaugeFunc(name, func() float64 { return s.PowerOfNodes(nodes) })
		return name
	}
	for i, nodes := range racks {
		t.Racks = append(t.Racks, sum(fmt.Sprintf("power.rack.%d_w", i), nodes))
	}
	for i, nodes := range pdus {
		t.PDUs = append(t.PDUs, sum(fmt.Sprintf("power.pdu.%d_w", i), nodes))
	}
	t.System = sum("power.system_w", cl.Nodes)
	return t
}
