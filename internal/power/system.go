package power

import (
	"fmt"
	"sort"

	"epajsrm/internal/cluster"
	"epajsrm/internal/prof"
	"epajsrm/internal/simulator"
)

// Load describes the workload currently running on a node, in the terms the
// power model needs.
type Load struct {
	JobID    int64
	NominalW float64 // node draw at nominal frequency for this workload
	MemFrac  float64 // fraction of runtime that does not scale with frequency
	FreqFrac float64 // frequency assigned by software (DVFS policy), 1 = nominal
	// AuxW is additive draw from I/O the node is doing on top of its compute
	// load — burst-buffer checkpoint traffic. DVFS and node caps throttle the
	// compute draw, not this term: the NIC and SSDs do not slow down when the
	// CPU does, which is exactly why checkpoint bursts can push a capped site
	// over its limit.
	AuxW float64

	// meter points at the job's accounting record so Advance can integrate
	// per-job energy without a map lookup per busy node per interval.
	meter *JobMeter
}

// JobMeter is the per-job electrical account: exact integrated energy,
// the job's current aggregate draw across its nodes, and the highest
// instantaneous draw observed. Attribution is whole-node — a job is
// charged the full draw of every node it occupies for as long as it
// occupies it, matching how Tokyo Tech's and JCAHPC's job-level archives
// bill (the node is unavailable to anyone else either way). The meter
// survives requeues: energy and peak accumulate across run stints.
type JobMeter struct {
	EnergyJ float64
	PeakW   float64
	curW    float64 // sum of nodeP over this job's current nodes
}

// CurrentW returns the job's aggregate instantaneous draw.
func (jm *JobMeter) CurrentW() float64 { return jm.curW }

func (jm *JobMeter) adjust(deltaW float64) {
	jm.curW += deltaW
	if jm.curW > jm.PeakW {
		jm.PeakW = jm.curW
	}
}

// System tracks the live electrical state of one cluster: per-node draw,
// exact energy integration (power is piecewise constant between events, so
// integration is exact), per-job energy meters, and peak power. All state
// transitions must be routed through System so that the books stay correct.
type System struct {
	Cl      *cluster.Cluster
	Model   NodeModel
	PStates PStateTable

	vf    []float64 // manufacturing variability factor per node
	loads []*Load   // per node; nil when the node runs nothing

	// frac and busyW hold, for each node with a load, the frequency
	// fraction it runs at (effectiveFrac) and its compute draw there
	// (BusyPower, without AuxW). Their inputs are the load's NominalW and
	// FreqFrac, the node's cap and its variability factor, so only
	// StartJob, SetJobFreq and a SetNodeCap that changes the cap re-derive
	// them; draw refreshes and JobFrac read them. They live here rather
	// than in Load, which every job start allocates once per node.
	frac  []float64
	busyW []float64

	lastT simulator.Time
	nodeP []float64
	// totalW is the running sum of nodeP, maintained incrementally so that
	// TotalPower — consulted by every power gate on every candidate of every
	// scheduling pass — is O(1) instead of O(nodes). RefreshAll re-derives it
	// from scratch, bounding float drift.
	totalW float64
	nodeE  []float64 // joules per node
	jobE   map[int64]*JobMeter
	// attribJ is the running sum of all job-attributed energy, maintained
	// alongside the per-job meters in Advance (a single deterministic
	// accumulation in node order) so the conservation check — attributed
	// energy vs. TotalEnergy — never sums a map in iteration order.
	attribJ float64
	peakW   float64
	peakT   simulator.Time

	// jobNodes indexes the node IDs each active job occupies, ascending, so
	// per-job actuation (DVFS, aux draw, frac queries) touches only the
	// job's nodes instead of scanning every load slot. Ascending order
	// matters: setNodeP folds deltas into totalW, and applying them in the
	// same node order as the old full scans keeps float accumulation — and
	// therefore rendered reports — bit-identical. Entries are dropped at
	// EndJob; a requeued job is re-indexed by its next StartJob.
	jobNodes map[int64][]int32
	idScr    []int32 // scratch for building a sorted ID list

	// meterChunks slab-allocates JobMeters (see jobs.Arena for the
	// rationale: a million retired meters should be a few hundred blocks,
	// not a million GC-tracked objects). Meters live for the whole run.
	meterChunks [][]JobMeter
	meterUsed   int

	// lazy, when enabled, defers per-node energy integration from every
	// Advance (O(nodes) on every event that touches power — the single
	// biggest cost at 100k nodes) to per-node settlement at the instants a
	// node's draw actually changes, tracked in nodeT. Integration is still
	// exact — power is piecewise constant either way — but per-node float
	// additions happen in a different order, so totals can differ from the
	// eager mode in the last bits. Scale runs opt in; default runs keep the
	// eager order and stay byte-identical with historical reports.
	lazy  bool
	nodeT []simulator.Time

	// Prof, when non-nil, charges energy integration and draw refreshes
	// to the prof.Power phase. Sites enter the phase only after their
	// early-outs (an Advance with dt == 0 costs one nil-check and
	// nothing else), and Enter/Exit pairs avoid defer on the straight-
	// line paths — Advance is the hottest instrumented function in the
	// repo. Wired by core.Manager.AttachProfiler.
	Prof *prof.Profiler
}

// NewSystem wires a power system over cl. varSigma is the relative stddev
// of per-node manufacturing variability (Inadomi et al. report ~5-10 % for
// production systems; pass 0 for homogeneous nodes). rng may be nil when
// varSigma is 0.
func NewSystem(cl *cluster.Cluster, model NodeModel, pstates PStateTable, varSigma float64, rng *simulator.RNG) *System {
	if err := model.Validate(); err != nil {
		panic(err)
	}
	if err := pstates.Validate(); err != nil {
		panic(err)
	}
	s := &System{
		Cl:       cl,
		Model:    model,
		PStates:  pstates,
		vf:       make([]float64, cl.Size()),
		loads:    make([]*Load, cl.Size()),
		frac:     make([]float64, cl.Size()),
		busyW:    make([]float64, cl.Size()),
		nodeP:    make([]float64, cl.Size()),
		nodeE:    make([]float64, cl.Size()),
		jobE:     make(map[int64]*JobMeter),
		jobNodes: make(map[int64][]int32),
	}
	for i := range s.vf {
		f := 1.0
		if varSigma > 0 && rng != nil {
			f = rng.Normal(1, varSigma)
			if f < 0.7 {
				f = 0.7
			}
			if f > 1.3 {
				f = 1.3
			}
		}
		s.vf[i] = f
	}
	for i, n := range cl.Nodes {
		s.nodeP[i] = s.computeNodePower(n)
		s.totalW += s.nodeP[i]
	}
	return s
}

// sortInt32 sorts ascending; placements are usually narrow, so insertion
// sort wins below a comparison-sort threshold.
func sortInt32(a []int32) {
	if len(a) > 32 {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		return
	}
	for i := 1; i < len(a); i++ {
		for k := i; k > 0 && a[k] < a[k-1]; k-- {
			a[k], a[k-1] = a[k-1], a[k]
		}
	}
}

// EnableLazyEnergy switches the system to per-node lazy energy settlement
// (see the lazy field). Call once, immediately after NewSystem, before any
// simulation activity. Not for runs whose reports must be byte-comparable
// with eager-mode output.
func (s *System) EnableLazyEnergy() {
	s.lazy = true
	s.nodeT = make([]simulator.Time, len(s.nodeP))
	for i := range s.nodeT {
		s.nodeT[i] = s.lastT
	}
}

// settle integrates node id's energy up to the last Advance instant. Eager
// mode integrates in Advance itself, so this is lazy-mode only.
func (s *System) settle(id int) {
	if !s.lazy {
		return
	}
	if dt := float64(s.lastT - s.nodeT[id]); dt > 0 {
		e := s.nodeP[id] * dt
		s.nodeE[id] += e
		if ld := s.loads[id]; ld != nil {
			ld.meter.EnergyJ += e
			s.attribJ += e
		}
	}
	s.nodeT[id] = s.lastT
}

// settleAll brings every node's integration current — the lazy-mode entry
// fee for whole-system energy reads (report time, not the hot path).
func (s *System) settleAll() {
	if !s.lazy {
		return
	}
	for i := range s.nodeP {
		s.settle(i)
	}
}

// newMeter slab-allocates a JobMeter.
func (s *System) newMeter() *JobMeter {
	const chunk = 4096
	if len(s.meterChunks) == 0 || s.meterUsed == chunk {
		s.meterChunks = append(s.meterChunks, make([]JobMeter, chunk))
		s.meterUsed = 0
	}
	m := &s.meterChunks[len(s.meterChunks)-1][s.meterUsed]
	s.meterUsed++
	return m
}

// setNodeP updates one node's draw and keeps the running total — and, when
// a job occupies the node, that job's power meter — in sync.
func (s *System) setNodeP(id int, p float64) {
	s.settle(id)
	delta := p - s.nodeP[id]
	s.totalW += delta
	if ld := s.loads[id]; ld != nil {
		ld.meter.adjust(delta)
	}
	s.nodeP[id] = p
}

// VarFactor returns the manufacturing variability factor of node id.
func (s *System) VarFactor(id int) float64 { return s.vf[id] }

// effectiveFrac returns the frequency fraction node n actually runs at:
// the software-assigned frequency further clamped by any hardware cap.
func (s *System) effectiveFrac(n *cluster.Node, ld *Load) float64 {
	frac := ld.FreqFrac
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	if n.CapW > 0 {
		capFrac, _ := s.Model.FreqForCap(n.CapW, ld.NominalW, s.vf[n.ID])
		if capFrac < frac {
			frac = capFrac
		}
	}
	if frac < s.Model.MinFrac {
		frac = s.Model.MinFrac
	}
	return frac
}

// derive recomputes node id's cached frequency fraction and compute draw
// from its load, cap and variability factor; the node must have a load.
func (s *System) derive(id int) {
	f := s.effectiveFrac(s.Cl.Nodes[id], s.loads[id])
	s.frac[id] = f
	s.busyW[id] = s.Model.BusyPower(s.loads[id].NominalW, f, s.vf[id])
}

func (s *System) computeNodePower(n *cluster.Node) float64 {
	switch n.State {
	case cluster.StateOff, cluster.StateDown:
		return s.Model.OffW
	case cluster.StateBooting, cluster.StateShuttingDown:
		return s.Model.BootW
	case cluster.StateIdle:
		return s.Model.IdleW
	case cluster.StateBusy, cluster.StateDraining:
		ld := s.loads[n.ID]
		if ld == nil {
			return s.Model.IdleW
		}
		return s.busyW[n.ID] + ld.AuxW
	default:
		return s.Model.IdleW
	}
}

// Advance integrates energy from the last bookkeeping instant to now. It is
// idempotent for equal timestamps and must be called (directly or via
// Refresh*) before any power-relevant state change.
func (s *System) Advance(now simulator.Time) {
	dt := float64(now - s.lastT)
	if dt < 0 {
		panic(fmt.Sprintf("power: time went backwards %d -> %d", s.lastT, now))
	}
	if dt == 0 {
		return
	}
	if s.lazy {
		// Per-node integration happens at settle points; Advance only moves
		// the clock.
		s.lastT = now
		return
	}
	if s.Prof != nil {
		s.Prof.Enter(prof.Power)
	}
	for i, p := range s.nodeP {
		s.nodeE[i] += p * dt
		if ld := s.loads[i]; ld != nil {
			e := p * dt
			ld.meter.EnergyJ += e
			s.attribJ += e
		}
	}
	s.lastT = now
	if s.Prof != nil {
		s.Prof.Exit()
	}
}

// RefreshNode re-derives one node's draw after its state/cap/frequency
// changed. Advance must already have been called for now.
func (s *System) RefreshNode(now simulator.Time, n *cluster.Node) {
	s.Advance(now)
	s.setNodeP(n.ID, s.computeNodePower(n))
	s.trackPeak(now)
}

// RefreshAll re-derives every node's draw (and the total from scratch).
// Job meters are adjusted by delta here — this path bypasses setNodeP.
func (s *System) RefreshAll(now simulator.Time) {
	s.Advance(now)
	s.Prof.Enter(prof.Power)
	defer s.Prof.Exit()
	s.settleAll()
	t := 0.0
	for i, n := range s.Cl.Nodes {
		p := s.computeNodePower(n)
		if ld := s.loads[i]; ld != nil {
			ld.meter.adjust(p - s.nodeP[i])
		}
		s.nodeP[i] = p
		t += p
	}
	s.totalW = t
	s.trackPeak(now)
}

func (s *System) trackPeak(now simulator.Time) {
	p := s.TotalPower()
	if p > s.peakW {
		s.peakW = p
		s.peakT = now
	}
}

// StartJob registers the workload on its nodes and recomputes their draw.
func (s *System) StartJob(now simulator.Time, jobID int64, nodes []*cluster.Node, nominalW, memFrac, freqFrac float64) {
	s.Advance(now)
	if s.Prof != nil {
		s.Prof.Enter(prof.Power)
		defer s.Prof.Exit()
	}
	meter := s.jobE[jobID]
	if meter == nil {
		meter = s.newMeter()
		s.jobE[jobID] = meter
	}
	ids := s.idScr[:0]
	slab := make([]Load, len(nodes))
	for i, n := range nodes {
		// Settle the pre-job interval against no load before the meter
		// attaches — lazy mode would otherwise bill the job for idle time
		// it never occupied.
		s.settle(n.ID)
		// Charge the node's pre-job draw to the meter before attaching the
		// load: setNodeP adjusts by delta, so without the baseline the job
		// would be billed only the increment above idle, not the whole node.
		meter.adjust(s.nodeP[n.ID])
		slab[i] = Load{JobID: jobID, NominalW: nominalW, MemFrac: memFrac, FreqFrac: freqFrac, meter: meter}
		s.loads[n.ID] = &slab[i]
		s.derive(n.ID)
		s.setNodeP(n.ID, s.computeNodePower(n))
		ids = append(ids, int32(n.ID))
	}
	s.idScr = ids[:0]
	sortInt32(ids)
	s.jobNodes[jobID] = append([]int32(nil), ids...)
	s.trackPeak(now)
}

// EndJob deregisters the workload; callers must already have released or
// transitioned the nodes in the cluster.
func (s *System) EndJob(now simulator.Time, jobID int64, nodes []*cluster.Node) {
	s.Advance(now)
	if s.Prof != nil {
		s.Prof.Enter(prof.Power)
		defer s.Prof.Exit()
	}
	for _, n := range nodes {
		if ld := s.loads[n.ID]; ld != nil && ld.JobID == jobID {
			// Settle the job's final interval while its load is still
			// attached, so lazy mode bills it to the right meter.
			s.settle(n.ID)
			// Mirror of the StartJob baseline charge: release the node's
			// current draw from the meter before detaching, after which
			// setNodeP no longer adjusts it.
			ld.meter.curW -= s.nodeP[n.ID]
			s.loads[n.ID] = nil
		}
		s.setNodeP(n.ID, s.computeNodePower(n))
	}
	delete(s.jobNodes, jobID)
	s.trackPeak(now)
}

// SetNodeCap applies a hardware-enforced node power cap (CAPMC/RAPL style);
// capW = 0 removes the cap. Running jobs on the node slow down according to
// the model; the caller (core.Manager) is responsible for recomputing
// affected job finish times via JobFrac.
func (s *System) SetNodeCap(now simulator.Time, n *cluster.Node, capW float64) {
	s.Advance(now)
	if capW != n.CapW {
		n.CapW = capW
		if s.loads[n.ID] != nil {
			s.derive(n.ID)
		}
	}
	s.setNodeP(n.ID, s.computeNodePower(n))
	s.trackPeak(now)
}

// SetJobAux sets the auxiliary (I/O) draw on every node of a running job —
// non-zero while a checkpoint write or restart read is in flight, zero
// otherwise. The term is additive and unthrottled (see Load.AuxW).
func (s *System) SetJobAux(now simulator.Time, jobID int64, auxW float64) {
	s.Advance(now)
	for _, id := range s.jobNodes[jobID] {
		if ld := s.loads[id]; ld != nil && ld.JobID == jobID {
			ld.AuxW = auxW
			s.setNodeP(int(id), s.computeNodePower(s.Cl.Nodes[id]))
		}
	}
	s.trackPeak(now)
}

// SetJobFreq assigns a software frequency fraction to every node of a
// running job (DVFS actuation).
func (s *System) SetJobFreq(now simulator.Time, jobID int64, freqFrac float64) {
	s.Advance(now)
	for _, id := range s.jobNodes[jobID] {
		if ld := s.loads[id]; ld != nil && ld.JobID == jobID {
			ld.FreqFrac = freqFrac
			s.derive(int(id))
			s.setNodeP(int(id), s.computeNodePower(s.Cl.Nodes[id]))
		}
	}
	s.trackPeak(now)
}

// JobFrac returns the effective frequency fraction the job progresses at:
// the minimum across its nodes (bulk-synchronous critical path). Returns
// 1 if the job has no registered nodes.
func (s *System) JobFrac(jobID int64) float64 {
	frac := 1.0
	found := false
	for _, id := range s.jobNodes[jobID] {
		ld := s.loads[id]
		if ld == nil || ld.JobID != jobID {
			continue
		}
		found = true
		if f := s.frac[id]; f < frac {
			frac = f
		}
	}
	if !found {
		return 1
	}
	return frac
}

// NodePower returns node id's current draw in watts.
func (s *System) NodePower(id int) float64 { return s.nodeP[id] }

// TotalPower returns the cluster's current IT draw in watts.
func (s *System) TotalPower() float64 { return s.totalW }

// PowerOfNodes sums the current draw of a node subset.
func (s *System) PowerOfNodes(nodes []*cluster.Node) float64 {
	t := 0.0
	for _, n := range nodes {
		t += s.nodeP[n.ID]
	}
	return t
}

// TotalEnergy returns cluster IT energy in joules accumulated up to the
// last Advance.
func (s *System) TotalEnergy() float64 {
	s.settleAll()
	t := 0.0
	for _, e := range s.nodeE {
		t += e
	}
	return t
}

// JobEnergy returns the joules metered against a job so far. This powers
// the post-job energy reports Tokyo Tech and JCAHPC deliver to users.
func (s *System) JobEnergy(jobID int64) float64 {
	if m := s.jobE[jobID]; m != nil {
		// An active job's meter may lag in lazy mode; finished jobs were
		// settled by EndJob.
		for _, id := range s.jobNodes[jobID] {
			s.settle(int(id))
		}
		return m.EnergyJ
	}
	return 0
}

// JobPeakPower returns the highest aggregate instantaneous draw observed
// across the job's nodes over all of its run stints (0 if never metered).
func (s *System) JobPeakPower(jobID int64) float64 {
	if m := s.jobE[jobID]; m != nil {
		return m.PeakW
	}
	return 0
}

// JobMeterFor exposes the live meter (nil if the job never ran).
func (s *System) JobMeterFor(jobID int64) *JobMeter { return s.jobE[jobID] }

// AttributedEnergy returns the total joules charged to jobs up to the last
// Advance. TotalEnergy minus this is the unattributed residue: idle, off,
// boot, and drain draw on nodes no job occupied — the conservation check
// per-job accounting is validated against.
func (s *System) AttributedEnergy() float64 {
	s.settleAll()
	return s.attribJ
}

// PeakPower returns the highest instantaneous IT draw observed and when.
func (s *System) PeakPower() (float64, simulator.Time) { return s.peakW, s.peakT }

// MinPossiblePower returns the draw with every node off — the floor the
// site can reach without unplugging hardware.
func (s *System) MinPossiblePower() float64 {
	return float64(s.Cl.Size()) * s.Model.OffW
}

// MaxPossiblePower returns the draw with every node at MaxW — the
// connected load the facility must be provisioned for (or over-provisioned
// against, per Sarood/Patki).
func (s *System) MaxPossiblePower() float64 {
	t := 0.0
	for i := range s.Cl.Nodes {
		t += s.Model.IdleW + (s.Model.MaxW-s.Model.IdleW)*s.vf[i]
	}
	return t
}
