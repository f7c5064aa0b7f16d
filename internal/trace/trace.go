// Package trace implements a deterministic structured-event tracer for the
// simulation control loop: spans (job lifecycle stints, checkpoint I/O,
// cap actuations), instants (scheduler decisions, fault injections,
// staleness-guard trips), and counter samples (telemetry power readings),
// all stamped with virtual simulation time only — never the wall clock —
// so two same-seed runs emit byte-identical trace files.
//
// The tracer exports two formats:
//
//   - Chrome trace_event JSON (WriteChrome), loadable in Perfetto or
//     chrome://tracing. Virtual seconds map 1:1 onto trace microseconds,
//     so a 7-day run renders as a ~605-second timeline.
//   - JSONL (WriteJSONL), one event object per line, for jq/awk pipelines.
//
// A tracer from New keeps every event for those exports. One from
// NewStreaming keeps no history: each event only fans out to the live
// Subscribe channels, so its memory stays flat however long the run. The
// simulation service gives each hosted run such a tracer, because the
// run's only trace reader is its /events stream; epasim -trace and
// epabench -trace keep full retention.
//
// Zero-cost-when-disabled contract: callers hold a nil *Tracer when
// tracing is off and guard every emission with a single nil-check
// (`if m.Tr != nil { ... }`). No Tracer method is safe on a nil receiver
// by design — the nil-check at the call site is the disable mechanism,
// and keeping it explicit keeps the hot path honest about its cost.
package trace

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"epajsrm/internal/simulator"
)

// Well-known track (Chrome "process") IDs. Fixed small integers keep the
// Perfetto layout stable across runs and sites.
const (
	PidJobs   = 1 // job lifecycle spans, one thread per job
	PidSched  = 2 // scheduler decision instants
	PidPower  = 3 // telemetry counters, cap actuation, staleness guard
	PidFault  = 4 // fault injection instants
	PidAlerts = 5 // SLO watchdog firings/resolutions, one thread per rule
)

// Arg is one ordered key/value pair attached to an event. A slice of Args
// (not a map) keeps export order deterministic.
type Arg struct {
	Key string
	Val any // string, int64-compatible integer, float64, or bool
}

// phase tags mirror the Chrome trace_event "ph" field.
const (
	phSpan    = "X"
	phInstant = "i"
	phCounter = "C"
)

// Event is one recorded trace event.
type Event struct {
	Ph   string // "X" span, "i" instant, "C" counter
	Pid  int
	Tid  int
	Name string
	Ts   simulator.Time // virtual start time
	Dur  simulator.Time // span length ("X" only)
	Args []Arg
}

// Tracer buffers events for export at end of run. Create with New; a nil
// *Tracer means tracing is disabled and must be guarded at call sites.
//
// The mutex exists for the parallel experiment harness, where replicas on
// worker goroutines may share one tracer; within a single engine all
// emission is single-goroutine.
type Tracer struct {
	mu     sync.Mutex
	keep   bool // retain events for export (false: stream only)
	events []Event
	procs  map[int]string // pid -> process_name metadata
	tids   map[int]string // (pid<<32|tid) is overkill; jobs own PidJobs tids

	// Live subscribers (the ops server's /events stream). Publication is a
	// non-blocking channel send under mu: a slow or absent consumer can
	// never stall an emission site, so attaching a subscriber cannot
	// perturb the simulation — overflowing events are counted in dropped
	// instead of delivered. With no subscribers the cost is a nil-slice
	// range, which is free.
	subs    []*subscriber
	dropped atomic.Int64
}

type subscriber struct {
	ch chan Event
}

// New returns an enabled tracer with named default tracks that keeps
// every event for export.
func New() *Tracer { return newTracer(true) }

// NewStreaming returns an enabled tracer that keeps no event history:
// events reach only the subscribers present when they are emitted, Len
// stays 0 and the exports hold only track metadata.
func NewStreaming() *Tracer { return newTracer(false) }

func newTracer(keep bool) *Tracer {
	t := &Tracer{keep: keep, procs: map[int]string{}, tids: map[int]string{}}
	t.SetProcessName(PidJobs, "jobs")
	t.SetProcessName(PidSched, "scheduler")
	t.SetProcessName(PidPower, "power")
	t.SetProcessName(PidFault, "faults")
	t.SetProcessName(PidAlerts, "alerts")
	return t
}

// SetProcessName names a Chrome "process" track.
func (t *Tracer) SetProcessName(pid int, name string) {
	t.mu.Lock()
	t.procs[pid] = name
	t.mu.Unlock()
}

// SetThreadName names a thread within PidJobs (e.g. "job 17 (lrz)").
func (t *Tracer) SetThreadName(tid int, name string) {
	t.mu.Lock()
	t.tids[tid] = name
	t.mu.Unlock()
}

// Span records a complete span [start, end] on (pid, tid).
func (t *Tracer) Span(pid, tid int, name string, start, end simulator.Time, args ...Arg) {
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	t.emit(Event{Ph: phSpan, Pid: pid, Tid: tid, Name: name, Ts: start, Dur: dur, Args: args})
}

// Instant records a zero-duration event at ts.
func (t *Tracer) Instant(pid, tid int, name string, ts simulator.Time, args ...Arg) {
	t.emit(Event{Ph: phInstant, Pid: pid, Tid: tid, Name: name, Ts: ts, Args: args})
}

// Counter records a sampled counter value (rendered as a filled track).
func (t *Tracer) Counter(pid int, name string, ts simulator.Time, value float64) {
	t.emit(Event{Ph: phCounter, Pid: pid, Name: name, Ts: ts,
		Args: []Arg{{Key: "value", Val: value}}})
}

func (t *Tracer) emit(e Event) {
	t.mu.Lock()
	if t.keep {
		t.events = append(t.events, e)
	}
	for _, s := range t.subs {
		select {
		case s.ch <- e:
		default:
			t.dropped.Add(1)
		}
	}
	t.mu.Unlock()
}

// Subscribe returns a live channel that receives every event emitted after
// the call, in emission order, plus a cancel function that detaches the
// subscription and closes the channel. The channel is bounded (buf <= 0
// selects a default of 1024): if the consumer falls behind, overflowing
// events are dropped — never blocked on — and counted in Dropped. Cancel
// is idempotent.
func (t *Tracer) Subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 1024
	}
	s := &subscriber{ch: make(chan Event, buf)}
	t.mu.Lock()
	t.subs = append(t.subs, s)
	t.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			t.mu.Lock()
			for i, x := range t.subs {
				if x == s {
					t.subs = append(t.subs[:i], t.subs[i+1:]...)
					break
				}
			}
			t.mu.Unlock()
			// Safe: emit sends only to subscribers present in subs under
			// mu, so after removal no send can race this close.
			close(s.ch)
		})
	}
	return s.ch, cancel
}

// Dropped reports how many events overflowed subscriber buffers since the
// tracer was created (across all subscribers). Exported through the ops
// registry as ops.events_dropped.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// Len returns the number of buffered events (0 for a streaming tracer).
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the buffered events in stable export order.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.sortLocked(out)
	return out
}

// sortLocked orders events for export: by timestamp, then track, then
// name, then emission order (slice order is already emission order and
// SliceStable preserves it). Emission order alone is deterministic within
// one engine, but the explicit sort keeps exports stable even if spans
// are emitted at completion time out of start order.
func (t *Tracer) sortLocked(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		return a.Name < b.Name
	})
}

// WriteChrome writes the buffer as Chrome trace_event JSON (the object
// form with a traceEvents array). Virtual seconds become microseconds.
func (t *Tracer) WriteChrome(w io.Writer) error {
	evs := t.Events()
	bw := &errWriter{w: w}
	bw.str("{\"traceEvents\": [\n")
	first := true
	// Metadata first: process and thread names, sorted for determinism.
	for _, pid := range sortedKeys(t.procs) {
		writeMetaEvent(bw, &first, "process_name", pid, 0, t.procs[pid])
	}
	for _, tid := range sortedKeys(t.tids) {
		writeMetaEvent(bw, &first, "thread_name", PidJobs, tid, t.tids[tid])
	}
	for i := range evs {
		if !first {
			bw.str(",\n")
		}
		first = false
		writeChromeEvent(bw, &evs[i])
	}
	bw.str("\n]}\n")
	return bw.err
}

// WriteJSONL writes one JSON object per event, one per line, in the same
// stable order as WriteChrome (without the metadata records).
func (t *Tracer) WriteJSONL(w io.Writer) error {
	evs := t.Events()
	bw := &errWriter{w: w}
	for i := range evs {
		writeChromeEvent(bw, &evs[i])
		bw.str("\n")
	}
	return bw.err
}

// WriteEvent writes one event as the same single-line JSON object the
// JSONL export uses. The ops server's /events SSE stream shares this
// renderer, so the live and file forms of an event are identical and the
// trace reader parses both.
func WriteEvent(w io.Writer, e *Event) error {
	bw := &errWriter{w: w}
	writeChromeEvent(bw, e)
	return bw.err
}

func sortedKeys(m map[int]string) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

func writeMetaEvent(bw *errWriter, first *bool, kind string, pid, tid int, name string) {
	if !*first {
		bw.str(",\n")
	}
	*first = false
	bw.str(`{"ph": "M", "pid": `)
	bw.int(int64(pid))
	bw.str(`, "tid": `)
	bw.int(int64(tid))
	bw.str(`, "name": "`)
	bw.str(kind)
	bw.str(`", "args": {"name": `)
	bw.str(strconv.Quote(name))
	bw.str(`}}`)
}

func writeChromeEvent(bw *errWriter, e *Event) {
	bw.str(`{"ph": "`)
	bw.str(e.Ph)
	bw.str(`", "pid": `)
	bw.int(int64(e.Pid))
	if e.Ph != phCounter {
		bw.str(`, "tid": `)
		bw.int(int64(e.Tid))
	}
	bw.str(`, "name": `)
	bw.str(strconv.Quote(e.Name))
	bw.str(`, "ts": `)
	bw.int(int64(e.Ts))
	if e.Ph == phSpan {
		bw.str(`, "dur": `)
		bw.int(int64(e.Dur))
	}
	if len(e.Args) > 0 {
		bw.str(`, "args": {`)
		for i, a := range e.Args {
			if i > 0 {
				bw.str(", ")
			}
			bw.str(strconv.Quote(a.Key))
			bw.str(": ")
			writeVal(bw, a.Val)
		}
		bw.str("}")
	}
	bw.str("}")
}

func writeVal(bw *errWriter, v any) {
	switch x := v.(type) {
	case string:
		bw.str(strconv.Quote(x))
	case bool:
		if x {
			bw.str("true")
		} else {
			bw.str("false")
		}
	case int:
		bw.int(int64(x))
	case int64:
		bw.int(x)
	case simulator.Time:
		bw.int(int64(x))
	case float64:
		bw.str(strconv.FormatFloat(x, 'g', -1, 64))
	default:
		// Unknown types indicate a programming error at the emission
		// site; quote something recognizable rather than panic mid-export.
		bw.str(`"<unsupported>"`)
	}
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) str(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func (e *errWriter) int(v int64) { e.str(strconv.FormatInt(v, 10)) }
