// Package simulator provides the discrete-event simulation engine that
// underlies every experiment in this repository. Time is virtual, measured
// in whole seconds from the start of a run, and events fire in (time,
// sequence) order so that runs are fully deterministic.
package simulator

import (
	"errors"
	"fmt"

	"epajsrm/internal/prof"
)

// Time is a virtual timestamp in seconds since the start of the simulation.
type Time int64

// Common durations, in seconds.
const (
	Second Time = 1
	Minute Time = 60
	Hour   Time = 3600
	Day    Time = 24 * Hour
)

func (t Time) String() string {
	d := t / Day
	h := (t % Day) / Hour
	m := (t % Hour) / Minute
	s := t % Minute
	if d > 0 {
		return fmt.Sprintf("%dd%02d:%02d:%02d", d, h, m, s)
	}
	return fmt.Sprintf("%02d:%02d:%02d", h, m, s)
}

// Event is a callback scheduled to run at a point in virtual time. Event
// objects are pooled: once an event fires (or a cancelled event is
// discarded), the engine recycles the struct for a future schedule. Holders
// therefore never keep an *Event across a fire — they hold a Handle, whose
// generation check makes a stale Cancel a safe no-op.
type Event struct {
	At   Time
	Name string
	Fn   func(now Time)

	seq    int64
	gen    uint64
	dead   bool
	daemon bool
	eng    *Engine
}

// Handle refers to a scheduled event. The zero Handle is valid and refers
// to nothing; Cancel on it is a no-op. Because events are pooled, a Handle
// embeds the generation of the event it was minted for: cancelling after
// the event fired — even if the struct has since been recycled into an
// unrelated event — does nothing.
type Handle struct {
	e   *Event
	gen uint64
}

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired (or the zero Handle) is a no-op.
func (h Handle) Cancel() {
	e := h.e
	if e == nil || e.gen != h.gen || e.dead {
		return
	}
	e.dead = true
	if e.eng != nil {
		if !e.daemon {
			e.eng.live--
		}
		e.eng.pending--
	}
}

// Pending reports whether the event is still queued to fire.
func (h Handle) Pending() bool {
	return h.e != nil && h.e.gen == h.gen && !h.e.dead
}

// Engine is a discrete-event simulation loop. The zero value is not usable;
// call NewEngine.
type Engine struct {
	now     Time
	queue   calQueue
	seq     int64
	stopped bool
	horizon Time
	fired   int64
	// live counts pending non-daemon events. Daemon events (periodic
	// control loops, telemetry samplers) never keep an unbounded run alive:
	// Run() ends when only daemons remain.
	live int
	// pending counts queued events that have not fired and have not been
	// cancelled — daemons included. Cancelled events stay in the queue until
	// their timestamp comes up (a rescheduled one moves in place instead),
	// so this is maintained as a counter rather than read off the queue
	// length.
	pending int
	// free is the recycle list for fired/discarded Event structs; see Event.
	free []*Event

	// Prof, when non-nil, charges the dispatch loop to the prof.Events
	// phase — entered once per RunUntil call, not per event, so the
	// enabled cost is two clock reads per RunUntil. Subsystem phases
	// opened by event bodies nest inside it and attribute exclusively,
	// leaving the events row as "dispatch + unclaimed event bodies".
	Prof *prof.Profiler
}

// NewEngine returns an engine positioned at time zero with an empty queue.
func NewEngine() *Engine {
	return &Engine{horizon: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() int64 { return e.fired }

// Pending reports how many scheduled events are still due to fire. A
// cancelled event leaves the count immediately even though its struct stays
// queued until its timestamp comes up, so ops surfaces and tests see the
// true backlog.
func (e *Engine) Pending() int { return e.pending }

// ErrPastEvent is returned by At when an event is scheduled before Now.
var ErrPastEvent = errors.New("simulator: event scheduled in the past")

// At schedules fn to run at the absolute virtual time at. Scheduling at the
// current time is allowed; the event runs after the currently executing
// event returns.
func (e *Engine) At(at Time, name string, fn func(now Time)) (Handle, error) {
	return e.at(at, name, fn, false)
}

func (e *Engine) at(at Time, name string, fn func(now Time), daemon bool) (Handle, error) {
	if at < e.now {
		return Handle{}, fmt.Errorf("%w: at=%d now=%d (%s)", ErrPastEvent, at, e.now, name)
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = Event{At: at, Name: name, Fn: fn, seq: e.seq, gen: ev.gen, daemon: daemon, eng: e}
	} else {
		ev = &Event{At: at, Name: name, Fn: fn, seq: e.seq, eng: e, daemon: daemon}
	}
	e.seq++
	if !daemon {
		e.live++
	}
	e.pending++
	e.queue.push(ev)
	return Handle{e: ev, gen: ev.gen}, nil
}

// Reschedule moves a pending event to time at, keeping its handle, name,
// callback and daemon status, and reports whether it did. The event takes
// the next sequence number, so it fires exactly where Cancel followed by
// At would have placed a new event, but nothing dead is left queued and no
// closure is built. It returns false, changing nothing, when h is not
// pending or at is before Now; the caller then schedules afresh.
func (e *Engine) Reschedule(h Handle, at Time) bool {
	if !h.Pending() || h.e.eng != e || at < e.now {
		return false
	}
	ev := h.e
	e.queue.remove(ev)
	ev.At = at
	ev.seq = e.seq
	e.seq++
	e.queue.push(ev)
	return true
}

// recycle returns a popped event to the freelist. Bumping the generation
// invalidates every outstanding Handle to it; dropping Fn releases the
// closure for the collector.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.Fn = nil
	e.free = append(e.free, ev)
}

// After schedules fn to run d seconds from now. A negative delay is clamped
// to zero.
func (e *Engine) After(d Time, name string, fn func(now Time)) Handle {
	if d < 0 {
		d = 0
	}
	ev, _ := e.At(e.now+d, name, fn)
	return ev
}

// AtDaemon schedules fn at an absolute time as a daemon event: it fires
// while other work keeps the simulation alive (or up to an explicit
// horizon), but never extends an unbounded Run on its own. Background
// processes with no natural end — fault injection, watchdogs — must use
// daemon events or a drained system would simulate forever.
func (e *Engine) AtDaemon(at Time, name string, fn func(now Time)) (Handle, error) {
	return e.at(at, name, fn, true)
}

// AfterDaemon is AtDaemon relative to now; a negative delay is clamped to
// zero.
func (e *Engine) AfterDaemon(d Time, name string, fn func(now Time)) Handle {
	if d < 0 {
		d = 0
	}
	ev, _ := e.at(e.now+d, name, fn, true)
	return ev
}

// Every schedules fn to run now+period, then every period thereafter, until
// the returned stop function is called or the run ends. The recurring
// events are daemons: they fire as long as other work keeps the simulation
// alive (or up to an explicit horizon), but never extend an unbounded Run
// on their own — a periodic control loop should not keep a drained system
// simulating forever.
func (e *Engine) Every(period Time, name string, fn func(now Time)) (stop func()) {
	if period <= 0 {
		period = 1
	}
	var cur Handle
	stopped := false
	var tick func(now Time)
	tick = func(now Time) {
		if stopped {
			return
		}
		fn(now)
		if !stopped {
			cur, _ = e.at(e.now+period, name, tick, true)
		}
	}
	cur, _ = e.at(e.now+period, name, tick, true)
	return func() {
		stopped = true
		cur.Cancel()
	}
}

// Stop halts the run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty, Stop is called, or the
// event budget (1e9 events) is exhausted. It returns the final virtual time.
func (e *Engine) Run() Time {
	return e.RunUntil(-1)
}

// RunUntil executes events with timestamps <= horizon (horizon < 0 means no
// limit) and returns the final virtual time. Events beyond the horizon stay
// queued so the run can be continued.
func (e *Engine) RunUntil(horizon Time) Time {
	e.stopped = false
	const budget = int64(1e9)
	start := e.fired
	if e.Prof != nil {
		e.Prof.Enter(prof.Events)
		defer e.Prof.Exit()
	}
	for e.queue.len() > 0 && !e.stopped {
		if horizon < 0 && e.live == 0 {
			break // only daemons remain; an unbounded run is done
		}
		next := e.queue.peek()
		if horizon >= 0 && next.At > horizon {
			e.now = horizon
			return e.now
		}
		e.queue.pop()
		if next.dead {
			e.recycle(next)
			continue
		}
		next.dead = true
		if !next.daemon {
			e.live--
		}
		e.pending--
		e.now = next.At
		e.fired++
		fn := next.Fn
		e.recycle(next)
		fn(e.now)
		if e.fired-start > budget {
			panic("simulator: event budget exhausted; runaway event loop")
		}
	}
	if horizon >= 0 && e.now < horizon {
		e.now = horizon
	}
	return e.now
}
