package ops

import (
	"encoding/json"
	"io"
	"net/http"

	"epajsrm/internal/cluster"
	"epajsrm/internal/core"
)

// Health is the /healthz payload: control-loop liveness in virtual time.
// Ages are measured in simulated seconds, so a wedged control loop is
// visible no matter how fast or slow the wall clock runs the simulation.
type Health struct {
	Status string `json:"status"` // "ok" or a degradation reason
	SimNow int64  `json:"sim_now_s"`
	// TelemetryLast/TelemetryAge: virtual time of the last genuine power
	// sample and its age (-1 when no sample has ever landed).
	TelemetryLast int64 `json:"telemetry_last_s"`
	TelemetryAge  int64 `json:"telemetry_age_s"`
	// SchedulerLast/SchedulerAge: virtual time of the last scheduling pass
	// and its age.
	SchedulerLast int64 `json:"scheduler_last_s"`
	SchedulerAge  int64 `json:"scheduler_age_s"`
	// Recovered marks a service-hosted run the journal re-admitted
	// after a crash; always false outside the service tier.
	Recovered bool `json:"recovered,omitempty"`
	// Detail carries a free-form liveness note (e.g. experiment progress
	// for epabench, where no single manager exists).
	Detail string `json:"detail,omitempty"`
}

// QueueEntry is one queued job in the /state snapshot.
type QueueEntry struct {
	ID       int64  `json:"id"`
	Tag      string `json:"tag"`
	Nodes    int    `json:"nodes"`
	Submit   int64  `json:"submit_s"`
	Requeues int    `json:"requeues"`
	Priority int    `json:"priority"`
}

// RunningEntry is one executing job in the /state snapshot.
type RunningEntry struct {
	ID       int64   `json:"id"`
	Tag      string  `json:"tag"`
	Nodes    int     `json:"nodes"`
	Start    int64   `json:"start_s"`
	FreqFrac float64 `json:"freq_frac"`
	WorkDone float64 `json:"work_done_s"`
}

// NodeEntry is one node's live electrical and lifecycle state.
type NodeEntry struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	State  string  `json:"state"`
	JobID  int64   `json:"job_id,omitempty"`
	PowerW float64 `json:"power_w"`
	CapW   float64 `json:"cap_w,omitempty"`
}

// State is the /state payload: a deterministic snapshot of the queue,
// running set, per-node power and caps, and fault posture. All slices are
// in a fixed order (queue order, job-ID order, node-ID order) and the
// struct marshals with a fixed field order, so two snapshots of identical
// simulation states are byte-identical.
type State struct {
	SimNow          int64          `json:"sim_now_s"`
	System          string         `json:"system"`
	TotalPowerW     float64        `json:"total_power_w"`
	SystemCapW      float64        `json:"system_cap_w,omitempty"`
	DownNodes       int            `json:"down_nodes"`
	TelemetryOutage bool           `json:"telemetry_outage"`
	Queue           []QueueEntry   `json:"queue"`
	Running         []RunningEntry `json:"running"`
	Nodes           []NodeEntry    `json:"nodes"`
}

// WriteState renders st as indented JSON. This is the single renderer for
// the /state endpoint and the epasim -state file, so the two forms cannot
// drift.
func WriteState(w io.Writer, st State) error {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// writeJSON marshals v onto an HTTP response; encode errors at this point
// mean the client went away, which the handler cannot act on.
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Write(b) //nolint:errcheck
}

// ManagerSource builds the ops Source for one simulation manager: registry
// and tracer straight off the manager, health from telemetry/scheduler
// liveness, and state snapshots of queue, nodes, and power books. The
// closures read manager state without synchronizing — the Server calls
// them under its state lock, which the simulation driver shares.
func ManagerSource(m *core.Manager) Source {
	return Source{
		Registry: m.Reg,
		Tracer:   m.Tr,
		Health:   func() Health { return ManagerHealth(m) },
		State:    func() State { return ManagerState(m) },
		History:  m.Hist,
	}
}

// ManagerHealth derives the /healthz payload from m's control loop. A
// finished run (FinishRun has closed the accounting) reports the terminal
// "complete" status: liveness ages are meaningless once the loop has
// legitimately stopped, and without the terminal state a lingering server
// would age into a spurious telemetry-stale 503.
func ManagerHealth(m *core.Manager) Health {
	now := m.Eng.Now()
	h := Health{
		Status:        "ok",
		SimNow:        int64(now),
		TelemetryLast: -1,
		TelemetryAge:  -1,
		SchedulerLast: int64(m.LastSchedPass),
		SchedulerAge:  int64(now - m.LastSchedPass),
	}
	if last, ok := m.Tel.LastGood(); ok {
		h.TelemetryLast = int64(last.At)
		h.TelemetryAge = int64(now - last.At)
	}
	if m.Tel.Stale(now, 0) {
		h.Status = "telemetry-stale"
	}
	if m.RunEnded {
		h.Status = "complete"
	}
	// Surface the most recent firing SLO alert so a scrape shows *why*
	// the run is degraded, not just that it is.
	if m.Watch != nil {
		if name := m.Watch.MostRecentFiring(); name != "" {
			h.Detail = "firing: " + name
		}
	}
	return h
}

// ManagerState derives the /state snapshot from m.
func ManagerState(m *core.Manager) State {
	now := m.Eng.Now()
	st := State{
		SimNow:          int64(now),
		System:          m.Cl.Cfg.Name,
		TotalPowerW:     m.Pw.TotalPower(),
		SystemCapW:      m.Ctrl.SystemCapW,
		TelemetryOutage: m.Tel.OutageActive(),
		// Empty collections render as [] rather than null.
		Queue:   []QueueEntry{},
		Running: []RunningEntry{},
		Nodes:   []NodeEntry{},
	}
	for _, j := range m.Queue.All() {
		st.Queue = append(st.Queue, QueueEntry{
			ID: j.ID, Tag: j.Tag, Nodes: j.Nodes,
			Submit: int64(j.Submit), Requeues: j.Requeues, Priority: j.Priority,
		})
	}
	for _, j := range m.Running() {
		st.Running = append(st.Running, RunningEntry{
			ID: j.ID, Tag: j.Tag, Nodes: j.Nodes,
			Start: int64(j.Start), FreqFrac: j.FreqFrac, WorkDone: j.WorkDone,
		})
	}
	for i, n := range m.Cl.Nodes {
		if n.State == cluster.StateDown {
			st.DownNodes++
		}
		st.Nodes = append(st.Nodes, NodeEntry{
			ID: n.ID, Name: n.Name, State: n.State.String(),
			JobID: n.JobID, PowerW: m.Pw.NodePower(i), CapW: n.CapW,
		})
	}
	return st
}
