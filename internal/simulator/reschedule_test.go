package simulator

import (
	"fmt"
	"testing"
)

// rescheduleSide is one engine of TestRescheduleMatchesCancelAndAt and
// the log of what it fired and moved.
type rescheduleSide struct {
	t       *testing.T
	eng     *Engine
	inPlace bool // move with Reschedule, else with Cancel and At
	log     []string
	hs      []Handle
	daemon  []bool
	moved   int
}

func (s *rescheduleSide) fire(k int) func(Time) {
	return func(now Time) { s.log = append(s.log, fmt.Sprintf("fire %d@%d", k, now)) }
}

func (s *rescheduleSide) add(at Time, daemon bool, fn func(Time)) {
	var h Handle
	var err error
	if daemon {
		h, err = s.eng.AtDaemon(at, "ev", fn)
	} else {
		h, err = s.eng.At(at, "ev", fn)
	}
	if err != nil {
		s.t.Fatal(err)
	}
	s.hs = append(s.hs, h)
	s.daemon = append(s.daemon, daemon)
}

// move retimes event k to at, logging whether it was still pending.
func (s *rescheduleSide) move(k int, at Time) {
	if !s.hs[k].Pending() {
		if s.eng.Reschedule(s.hs[k], at) {
			s.t.Fatalf("Reschedule of event %d succeeded though it is not pending", k)
		}
		s.log = append(s.log, fmt.Sprintf("gone %d", k))
		return
	}
	s.log = append(s.log, fmt.Sprintf("move %d->%d", k, at))
	s.moved++
	if s.inPlace {
		if !s.eng.Reschedule(s.hs[k], at) {
			s.t.Fatalf("Reschedule of pending event %d at %d (now %d) failed", k, at, s.eng.Now())
		}
		return
	}
	s.hs[k].Cancel()
	fn := s.fire(k)
	var err error
	if s.daemon[k] {
		s.hs[k], err = s.eng.AtDaemon(at, "ev", fn)
	} else {
		s.hs[k], err = s.eng.At(at, "ev", fn)
	}
	if err != nil {
		s.t.Fatal(err)
	}
}

// TestRescheduleMatchesCancelAndAt drives two engines through the same
// seeded script. One moves pending events with Reschedule; the other
// cancels them and schedules a new event with At, as callers did before.
// Fire order (same-second ties included), Pending() and Fired() must agree
// after every slice of the run. Moves also happen from inside event
// bodies, where the manager retimes finish events.
func TestRescheduleMatchesCancelAndAt(t *testing.T) {
	a := &rescheduleSide{t: t, eng: NewEngine(), inPlace: true}
	b := &rescheduleSide{t: t, eng: NewEngine()}
	sides := []*rescheduleSide{a, b}
	rng := NewRNG(4)
	randAt := func(now Time) Time { return now + Time(rng.Intn(10)*rng.Intn(400)) }
	const events = 400
	for k := 0; k < events; k++ {
		at, daemon := randAt(0), rng.Float64() < 0.1
		for _, s := range sides {
			s.add(at, daemon, s.fire(k))
		}
	}
	// Retimers move three events each from inside the run, to now plus
	// the same shifts on both engines.
	for i := 0; i < 150; i++ {
		at := Time(rng.Intn(4000))
		picks := []int{rng.Intn(events), rng.Intn(events), rng.Intn(events)}
		shifts := []Time{Time(rng.Intn(300)), 0, Time(rng.Intn(3))}
		for _, s := range sides {
			s.add(at, false, func(now Time) {
				for j, k := range picks {
					s.move(k, now+shifts[j])
				}
			})
		}
	}
	for horizon := Time(0); a.eng.Pending() > 0 || b.eng.Pending() > 0; horizon += 97 {
		// Between slices: moves, refused moves into the past, cancels.
		for j := 0; j < 20; j++ {
			k, at := rng.Intn(events), randAt(horizon)
			switch {
			case rng.Float64() < 0.1:
				for _, s := range sides {
					if s.eng.Reschedule(s.hs[k], s.eng.Now()-1) {
						t.Fatal("Reschedule into the past succeeded")
					}
					s.hs[k].Cancel()
				}
			default:
				for _, s := range sides {
					s.move(k, at)
				}
			}
		}
		for _, s := range sides {
			s.eng.RunUntil(horizon)
		}
		if a.eng.Pending() != b.eng.Pending() || a.eng.Fired() != b.eng.Fired() {
			t.Fatalf("at %d: Reschedule engine pending=%d fired=%d, Cancel+At engine pending=%d fired=%d",
				horizon, a.eng.Pending(), a.eng.Fired(), b.eng.Pending(), b.eng.Fired())
		}
		if horizon > Day {
			t.Fatal("run did not drain")
		}
	}
	if len(a.log) != len(b.log) {
		t.Fatalf("%d log lines with Reschedule, %d with Cancel+At", len(a.log), len(b.log))
	}
	for i := range a.log {
		if a.log[i] != b.log[i] {
			t.Fatalf("line %d: %s with Reschedule, %s with Cancel+At", i, a.log[i], b.log[i])
		}
	}
	if a.moved < 200 {
		t.Fatalf("only %d events moved", a.moved)
	}
}

// TestRescheduleKeepsDaemonStatus: a moved daemon still does not keep an
// unbounded run alive, and a moved live event still does.
func TestRescheduleKeepsDaemonStatus(t *testing.T) {
	e := NewEngine()
	fired := map[string]bool{}
	d, _ := e.AtDaemon(10, "d", func(Time) { fired["d"] = true })
	l, _ := e.At(20, "l", func(Time) { fired["l"] = true })
	if !e.Reschedule(d, 50) || !e.Reschedule(l, 40) {
		t.Fatal("Reschedule of pending events failed")
	}
	if end := e.Run(); end != 40 || !fired["l"] || fired["d"] {
		t.Fatalf("run ended at %d with fired=%v; want 40, live event only", end, fired)
	}
	if e.Reschedule(l, 60) {
		t.Fatal("Reschedule of a fired event succeeded")
	}
}

// TestRescheduleSoleEvent moves an event that is alone in the queue, which
// the calendar queue keeps outside its ring.
func TestRescheduleSoleEvent(t *testing.T) {
	e := NewEngine()
	var at Time
	h := e.After(10, "only", func(now Time) { at = now })
	if !e.Reschedule(h, 25) || e.Pending() != 1 {
		t.Fatalf("Reschedule of the only event failed or changed Pending (%d)", e.Pending())
	}
	if e.Run(); at != 25 || e.Fired() != 1 {
		t.Fatalf("fired at %d (%d fires), want once at 25", at, e.Fired())
	}
}

// TestRescheduleDoesNotAllocate: moving a pending event builds no closure
// and no event; once its shards have room, it allocates nothing.
func TestRescheduleDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.After(Time(i*7), "other", func(Time) {})
	}
	h := e.After(100, "moved", func(Time) {})
	at := Time(100)
	allocs := testing.AllocsPerRun(1000, func() {
		at = 300 - at // alternate between 100 and 200
		if !e.Reschedule(h, at) {
			t.Fatal("Reschedule failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Reschedule allocates %.1f times per call", allocs)
	}
}
