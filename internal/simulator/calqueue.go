package simulator

import "sort"

// calQueue is the engine's pending-event structure: a calendar queue whose
// ring shards the timeline into one-second buckets (shard = At mod number
// of shards). Time is integral seconds and events cluster densely in the
// near future, so a fixed one-second shard width with a ring sized to the
// pending-event count gives O(1) amortized push and pop where the binary
// heap paid O(log n) — the difference between 25 ns and ~100 ns per event
// once a million arrivals are queued.
//
// Determinism contract: pop order is the unique global (At, seq) order,
// exactly the order the heap produced. Same-timestamp events always land in
// the same shard (shard index depends only on At), each shard is kept
// sorted by (At, seq), and the global minimum At lives in exactly one
// shard — so the popped head is the global (At, seq) minimum, not a
// per-shard approximation. Cancelled events stay queued and are popped
// dead in the same total order, matching the heap engine's lazy-discard
// behavior byte for byte. An event the engine reschedules is removed from
// its shard and pushed again with its new (At, seq).
type calQueue struct {
	shards [][]*Event
	mask   Time // len(shards)-1; len is a power of two
	size   int  // queued events, including dead ones not yet popped
	// cursor is a lower bound on the minimum At over queued events; peek
	// advances it shard by shard and jumps via a head scan when a full lap
	// finds nothing (the queue is sparse relative to the ring).
	cursor Time
	// head caches the event peek found so pop is O(shard occupancy) and the
	// engine's peek-then-pop loop does one search per event. nil = unknown.
	head *Event
	// solo marks that head is the only queued event and lives outside the
	// shards. The dominant engine rhythm — fire one event, schedule the
	// next — then never touches the ring at all.
	solo bool
}

const (
	minShards = 16
	// maxShards bounds ring memory (24 B of slice header per shard). 2^21
	// seconds is ~24 simulated days — a ring this size holds a month-long
	// backlog without laps.
	maxShards = 1 << 21
)

func eventLess(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

func (q *calQueue) len() int { return q.size }

// push inserts an event, keeping its shard sorted by (At, seq). Events
// arrive mostly in non-decreasing (At, seq), so the common case appends to
// the shard tail; the general case binary-searches the insertion point.
func (q *calQueue) push(e *Event) {
	if q.size == 0 {
		q.head = e
		q.solo = true
		q.cursor = e.At
		q.size = 1
		return
	}
	if q.shards == nil {
		q.shards = make([][]*Event, minShards)
		q.mask = minShards - 1
	}
	if q.solo {
		// A second event arrived; the solo head joins the ring so ordering
		// is uniform again.
		q.solo = false
		q.insert(q.head)
	}
	if q.size >= len(q.shards)*2 && len(q.shards) < maxShards {
		q.grow()
	}
	q.insert(e)
	q.size++
	if e.At < q.cursor {
		q.cursor = e.At
	}
	if q.head != nil && e.At < q.head.At {
		// A new event always has a larger seq, so only a strictly earlier
		// timestamp displaces the cached minimum.
		q.head = e
	}
}

// insert places an event into its shard, keeping the shard sorted.
func (q *calQueue) insert(e *Event) {
	b := e.At & q.mask
	s := q.shards[b]
	if n := len(s); n == 0 || eventLess(s[n-1], e) {
		s = append(s, e)
	} else {
		i := sort.Search(n, func(i int) bool { return eventLess(e, s[i]) })
		s = append(s, nil)
		copy(s[i+1:], s[i:])
		s[i] = e
	}
	q.shards[b] = s
}

// peek returns the (At, seq)-minimum queued event without removing it, or
// nil when empty.
func (q *calQueue) peek() *Event {
	if q.head != nil {
		return q.head
	}
	if q.size == 0 {
		return nil
	}
	misses := 0
	for {
		s := q.shards[q.cursor&q.mask]
		if len(s) > 0 && s[0].At == q.cursor {
			q.head = s[0]
			return q.head
		}
		q.cursor++
		misses++
		if misses > int(q.mask) {
			// A full lap found nothing due: every queued event is at least a
			// whole ring span away. Jump straight to the earliest shard head;
			// since a timestamp maps to exactly one shard, the minimum head
			// is the global minimum.
			var min *Event
			for _, s := range q.shards {
				if len(s) > 0 && (min == nil || eventLess(s[0], min)) {
					min = s[0]
				}
			}
			q.cursor = min.At
			q.head = min
			return min
		}
	}
}

// pop removes and returns the (At, seq)-minimum queued event, or nil when
// empty.
func (q *calQueue) pop() *Event {
	e := q.peek()
	if e == nil {
		return nil
	}
	if q.solo {
		q.solo = false
		q.head = nil
		q.size = 0
		return e
	}
	b := e.At & q.mask
	s := q.shards[b]
	copy(s, s[1:])
	s[len(s)-1] = nil
	q.shards[b] = s[:len(s)-1]
	q.size--
	q.head = nil
	if q.size <= len(q.shards)/8 && len(q.shards) > minShards {
		q.shrink()
	}
	return e
}

// remove takes a queued event out of the queue wherever it sits, for the
// engine to push it again at a new (At, seq).
func (q *calQueue) remove(e *Event) {
	if q.head == e {
		q.head = nil
		if q.solo {
			q.solo = false
			q.size = 0
			return
		}
	}
	b := e.At & q.mask
	s := q.shards[b]
	i := sort.Search(len(s), func(i int) bool { return !eventLess(s[i], e) })
	if i == len(s) || s[i] != e {
		panic("simulator: removing an event that is not queued")
	}
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	q.shards[b] = s[:len(s)-1]
	q.size--
}

// grow doubles the ring. An old shard splits into exactly two new shards
// (the new high index bit of At decides which), and a stable partition of a
// sorted shard leaves both halves sorted — no comparison work.
func (q *calQueue) grow() {
	oldN := len(q.shards)
	next := make([][]*Event, oldN*2)
	newMask := Time(oldN*2 - 1)
	hi := Time(oldN)
	for b, s := range q.shards {
		if len(s) == 0 {
			continue
		}
		var lo, up []*Event
		for _, e := range s {
			if e.At&newMask&hi == 0 {
				lo = append(lo, e)
			} else {
				up = append(up, e)
			}
		}
		next[b] = lo
		next[b+oldN] = up
	}
	q.shards = next
	q.mask = newMask
}

// shrink halves the ring by merging shard pairs; merging two sorted shards
// keeps the result sorted.
func (q *calQueue) shrink() {
	oldN := len(q.shards)
	n := oldN / 2
	next := make([][]*Event, n)
	for b := 0; b < n; b++ {
		a, c := q.shards[b], q.shards[b+n]
		switch {
		case len(c) == 0:
			next[b] = a
		case len(a) == 0:
			next[b] = c
		default:
			m := make([]*Event, 0, len(a)+len(c))
			i, j := 0, 0
			for i < len(a) && j < len(c) {
				if eventLess(a[i], c[j]) {
					m = append(m, a[i])
					i++
				} else {
					m = append(m, c[j])
					j++
				}
			}
			m = append(m, a[i:]...)
			m = append(m, c[j:]...)
			next[b] = m
		}
	}
	q.shards = next
	q.mask = Time(n - 1)
}
