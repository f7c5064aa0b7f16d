package simulator

import (
	"container/heap"
	"fmt"
	"slices"
	"testing"
)

// refHeap is the reference ordering implementation the calendar queue is
// property-tested against: the exact binary heap the engine used before the
// calendar queue replaced it, comparing (At, seq).
type refHeap []*Event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*Event)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *refHeap) popMin() *Event    { return heap.Pop(h).(*Event) }
func (h *refHeap) pushEv(e *Event)   { heap.Push(h, e) }

// storm drives a calQueue and the reference heap through an identical
// randomized op sequence — inserts (with heavy same-timestamp bursts),
// pops, cancels, reschedules (cancel + re-insert at a new time, the way
// Every's ticks move) and in-place moves (remove + push with a new
// (At, seq), the way Engine.Reschedule moves a finish event; the heap
// re-sifts its twin) — asserting every pop agrees on (At, seq, dead).
func storm(t *testing.T, seed uint64, ops int, farFrac float64) {
	t.Helper()
	rng := NewRNG(seed)
	var q calQueue
	var ref refHeap
	var livePtrs []*Event // events queued in both, for cancel/reschedule picks
	var seq int64
	now := Time(0)
	moved := 0

	push := func(at Time) {
		// Two twin events with identical (At, seq): one per structure.
		e1 := &Event{At: at, seq: seq}
		e2 := &Event{At: at, seq: seq}
		seq++
		q.push(e1)
		ref.pushEv(e2)
		livePtrs = append(livePtrs, e1, e2)
	}
	pop := func() {
		a := q.pop()
		var b *Event
		if ref.Len() > 0 {
			b = ref.popMin()
		}
		if (a == nil) != (b == nil) {
			t.Fatalf("pop presence mismatch: cal=%v heap=%v", a, b)
		}
		if a == nil {
			return
		}
		if a.At != b.At || a.seq != b.seq || a.dead != b.dead {
			t.Fatalf("pop order diverged: cal=(%d,%d,dead=%v) heap=(%d,%d,dead=%v)",
				a.At, a.seq, a.dead, b.At, b.seq, b.dead)
		}
		if a.At < now {
			t.Fatalf("pop went backwards in time: %d after %d", a.At, now)
		}
		now = a.At
	}
	randAt := func() Time {
		switch {
		case rng.Float64() < 0.35:
			// Same-timestamp burst target: a handful of hot seconds.
			return now + Time(rng.Intn(3))
		case rng.Float64() < farFrac:
			// Far future: exercises laps and the head-scan jump.
			return now + Time(rng.Intn(40*int(Day)))
		default:
			return now + Time(rng.Intn(7200))
		}
	}

	for i := 0; i < ops; i++ {
		switch r := rng.Float64(); {
		case r < 0.45:
			push(randAt())
			if rng.Float64() < 0.5 { // immediate burst sibling, same second
				push(now + Time(rng.Intn(2)))
			}
		case r < 0.72:
			pop()
		case r < 0.84 && len(livePtrs) > 0:
			// Cancel a random still-queued pair; both structures keep the
			// dead events and pop them in the same slot.
			k := rng.Intn(len(livePtrs)/2) * 2
			livePtrs[k].dead = true
			livePtrs[k+1].dead = true
		case r < 0.92 && len(livePtrs) > 0:
			// Reschedule: cancel then re-insert at a fresh timestamp.
			k := rng.Intn(len(livePtrs)/2) * 2
			livePtrs[k].dead = true
			livePtrs[k+1].dead = true
			push(randAt())
		case len(livePtrs) > 0:
			// Move in place: a live, still-queued pair takes a new time and
			// the next sequence number.
			k := rng.Intn(len(livePtrs)/2) * 2
			a, b := livePtrs[k], livePtrs[k+1]
			i := slices.Index(ref, b)
			if a.dead || i < 0 {
				break // cancelled or already popped: nothing to move
			}
			at := randAt()
			q.remove(a)
			a.At, a.seq = at, seq
			q.push(a)
			b.At, b.seq = at, seq
			heap.Fix(&ref, i)
			seq++
			moved++
		}
		// Trim the pick list occasionally so it tracks mostly-live events.
		if len(livePtrs) > 4096 {
			livePtrs = livePtrs[2048:]
		}
	}
	for q.len() > 0 {
		pop()
	}
	if ref.Len() != 0 {
		t.Fatalf("heap has %d leftover events after calendar drained", ref.Len())
	}
	if moved < ops/100 {
		t.Fatalf("only %d in-place moves in %d ops", moved, ops)
	}
}

func TestCalQueueMatchesHeapStorm(t *testing.T) {
	for _, tc := range []struct {
		seed    uint64
		ops     int
		farFrac float64
	}{
		{1, 20000, 0.05},
		{2, 20000, 0.3}, // lap-heavy: many far-future inserts
		{3, 5000, 0},    // dense near-term only
		{0xdead, 50000, 0.1},
	} {
		t.Run(fmt.Sprintf("seed=%d far=%v", tc.seed, tc.farFrac), func(t *testing.T) {
			storm(t, tc.seed, tc.ops, tc.farFrac)
		})
	}
}

// TestCalQueueSameSecondFIFO pins the tie-break contract directly: a burst
// of events at one timestamp pops in exact insertion-sequence order.
func TestCalQueueSameSecondFIFO(t *testing.T) {
	var q calQueue
	const n = 1000
	for i := 0; i < n; i++ {
		q.push(&Event{At: 42, seq: int64(i)})
	}
	for i := 0; i < n; i++ {
		e := q.pop()
		if e.At != 42 || e.seq != int64(i) {
			t.Fatalf("pop %d returned (At=%d, seq=%d)", i, e.At, e.seq)
		}
	}
}

// TestCalQueueGrowShrink pushes through several resize generations and
// checks global order end to end.
func TestCalQueueGrowShrink(t *testing.T) {
	rng := NewRNG(7)
	var q calQueue
	var want []*Event
	for i := 0; i < 50000; i++ {
		e := &Event{At: Time(rng.Intn(1 << 22)), seq: int64(i)}
		q.push(e)
		want = append(want, e)
	}
	if len(q.shards) <= minShards {
		t.Fatalf("ring never grew: %d shards for %d events", len(q.shards), q.len())
	}
	var prev *Event
	for i := 0; i < len(want); i++ {
		e := q.pop()
		if prev != nil && !eventLess(prev, e) {
			t.Fatalf("pop %d out of order: (%d,%d) after (%d,%d)", i, e.At, e.seq, prev.At, prev.seq)
		}
		prev = e
	}
	if q.pop() != nil {
		t.Fatal("queue not empty after draining")
	}
	if len(q.shards) != minShards {
		t.Fatalf("ring never shrank back: %d shards while empty", len(q.shards))
	}
}

// TestEnginePendingExcludesCancelled is the live-count contract: Pending
// drops immediately on Cancel even though the event struct stays queued
// until its timestamp comes up.
func TestEnginePendingExcludesCancelled(t *testing.T) {
	e := NewEngine()
	h1 := e.After(10, "a", func(Time) {})
	e.After(20, "b", func(Time) {})
	e.AfterDaemon(30, "d", func(Time) {})
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending=%d before cancel, want 3", got)
	}
	h1.Cancel()
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending=%d after cancel, want 2", got)
	}
	h1.Cancel() // double-cancel must not decrement twice
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending=%d after double cancel, want 2", got)
	}
	e.RunUntil(40) // past the daemon too, so everything fires
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending=%d after run, want 0", got)
	}
}
