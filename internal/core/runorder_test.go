package core

import (
	"slices"
	"testing"

	"epajsrm/internal/cluster"
	"epajsrm/internal/jobs"
	"epajsrm/internal/sched"
	"epajsrm/internal/simulator"
)

// checkOrder asserts o's structure and returns its entries in order: keys
// strictly ascending across chunks, every chunk within runChunkCap and, if
// not the sole chunk, non-empty and at least a quarter full, n equal to the
// entry count, and no slot beyond a chunk's length — nor beyond the chunk
// list's — still pointing at anything.
func checkOrder(t *testing.T, o *runOrder) []runEntry {
	t.Helper()
	var all []runEntry
	for ci, c := range o.chunks {
		if cap(c) != runChunkCap || len(c) > runChunkCap {
			t.Fatalf("chunk %d: len %d cap %d, want cap %d", ci, len(c), cap(c), runChunkCap)
		}
		if len(o.chunks) > 1 && len(c) < runChunkCap/4 {
			t.Fatalf("chunk %d of %d holds %d entries, under a quarter", ci, len(o.chunks), len(c))
		}
		for i, e := range c[len(c):cap(c)] {
			if e != (runEntry{}) {
				t.Fatalf("chunk %d slot %d beyond length %d still holds %+v", ci, len(c)+i, len(c), e)
			}
		}
		all = append(all, c...)
	}
	for i, c := range o.chunks[len(o.chunks):cap(o.chunks)] {
		if c != nil {
			t.Fatalf("chunk list slot %d beyond length %d still holds a chunk", len(o.chunks)+i, len(o.chunks))
		}
	}
	if len(all) != o.n {
		t.Fatalf("runOrder counts %d, holds %d", o.n, len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].key.cmp(all[i].key) >= 0 {
			t.Fatalf("entries %d and %d out of order: %+v then %+v", i-1, i, all[i-1].key, all[i].key)
		}
	}
	return all
}

// TestRunOrderMatchesSortedSlice drives a runOrder and a sorted-slice
// reference through random inserts and deletes — growth, churn, targeted
// deletes beside a crowded chunk, and a drain to empty and back — and
// checks both agree and the structure holds after every step. It asserts
// that the split, merge, even-out and empty-chunk paths all ran.
func TestRunOrderMatchesSortedSlice(t *testing.T) {
	rng := simulator.NewRNG(5)
	var o runOrder
	var ref []runEntry
	nextID := int64(0)
	var splits, merges, evens, empties int
	lens := func() []int {
		out := make([]int, len(o.chunks))
		for i, c := range o.chunks {
			out[i] = len(c)
		}
		return out
	}
	verify := func() {
		t.Helper()
		got := checkOrder(t, &o)
		if !slices.Equal(got, ref) {
			t.Fatalf("runOrder holds %d entries differing from the %d-entry reference", len(got), len(ref))
		}
	}
	insert := func(end simulator.Time) {
		nextID++
		e := runEntry{key: runKey{end: end, id: nextID}, r: &running{}}
		before := len(o.chunks)
		o.insert(e.key, e.r)
		if len(o.chunks) > before && before > 0 {
			splits++
		}
		i, _ := slices.BinarySearchFunc(ref, e.key, cmpEntry)
		ref = slices.Insert(ref, i, e)
		verify()
	}
	remove := func(i int) {
		k := ref[i].key
		before := lens()
		if !o.remove(k) {
			t.Fatalf("remove %+v: not found", k)
		}
		after := lens()
		changed := 0
		for ci := range after {
			if ci >= len(before) || after[ci] != before[ci] {
				changed++
			}
		}
		switch {
		case len(after) < len(before):
			merges++
		case changed > 1:
			evens++
		case o.n == 0:
			empties++
		}
		ref = slices.Delete(ref, i, i+1)
		if o.remove(k) {
			t.Fatalf("remove %+v twice: found again", k)
		}
		verify()
	}

	// Growth with heavy end ties, then churn.
	for i := 0; i < 1500; i++ {
		insert(simulator.Time(rng.Intn(200)))
	}
	for i := 0; i < 3000; i++ {
		if rng.Intn(2) == 0 {
			insert(simulator.Time(rng.Intn(200)))
		} else {
			remove(rng.Intn(len(ref)))
		}
	}
	// Crowd one region, then empty the chunk before it: the pair no longer
	// fits in one chunk, and the small chunk takes from its successor.
	for i := 0; i < 150; i++ {
		insert(100)
	}
	for i := 0; i < 400; i++ {
		remove(0)
	}
	// Drain to empty and reuse the emptied chunk: fill it, split it,
	// crowd the first half, then shrink the last chunk, which takes the
	// tail of its crowded predecessor.
	for len(ref) > 0 {
		remove(rng.Intn(len(ref)))
	}
	for i := 0; i < runChunkCap; i++ {
		insert(simulator.Time(i))
	}
	insert(1000)
	for i := 0; i < 60; i++ {
		insert(10)
	}
	tailEvens := evens
	for i := 0; i < 40; i++ {
		remove(len(ref) - 1)
	}
	if evens == tailEvens {
		t.Fatal("shrinking the last chunk beside a crowded one did not even the pair out")
	}
	for len(ref) > 0 {
		remove(len(ref) - 1)
	}
	if splits == 0 || merges == 0 || evens < 2 || empties < 2 {
		t.Fatalf("paths taken: %d splits, %d merges, %d even-outs, %d empties; want each", splits, merges, evens, empties)
	}
	if len(o.chunks) != 1 {
		t.Fatalf("empty runOrder keeps %d chunks, want its last one", len(o.chunks))
	}
}

// TestSetFracMovesOnlyWhenEndChanges pins the end index's move rule: a
// record moves when its expected end changes, not whenever its frequency
// does, and a record whose job has left the index is not put back.
func TestSetFracMovesOnlyWhenEndChanges(t *testing.T) {
	m := NewManager(Options{Cluster: cluster.DefaultConfig(), Scheduler: sched.EASY{}, Seed: 1})
	j := mkJob(1, 4, simulator.Hour)
	j.Walltime = simulator.Hour
	if err := m.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	m.Eng.RunUntil(10)
	r := m.runningJobs[1]
	if r == nil {
		t.Fatal("job 1 not running")
	}
	if r.curFrac != 1 || r.end != simulator.Hour {
		t.Fatalf("started at frac %v with end %v, want 1 and %v", r.curFrac, r.end, simulator.Hour)
	}
	if m.setFrac(r, 0.9999999) {
		t.Fatalf("moved on a frequency change that leaves the end at %v", r.end)
	}
	if !m.setFrac(r, 0.5) || r.end != 2*simulator.Hour {
		t.Fatalf("frac 0.5: end %v, want a move to %v", r.end, 2*simulator.Hour)
	}
	if got := checkOrder(t, &m.endIndex); len(got) != 1 || got[0].key.end != 2*simulator.Hour {
		t.Fatalf("end index after the move: %+v", got)
	}
	if m.setFrac(r, 0.5) {
		t.Fatal("moved without a frequency change")
	}
	if !m.setFrac(r, 1) || r.end != simulator.Hour {
		t.Fatalf("frac 1: end %v, want a move back to %v", r.end, simulator.Hour)
	}
	m.KillJob(1, "test", m.Eng.Now())
	if m.setFrac(r, 0.5) || m.endIndex.n != 0 {
		t.Fatalf("a killed job's record went back into the end index (%d entries)", m.endIndex.n)
	}
}

// TestRunningSetWalksChunks reads a many-chunk end order through the
// scheduler-facing running set: forward, backward and at random indexes,
// for clamps that cover none, some and all of the entries. Each read must
// match the clamped prefix in ID order followed by the rest in key order.
func TestRunningSetWalksChunks(t *testing.T) {
	rng := simulator.NewRNG(9)
	var o runOrder
	for id := int64(1); id <= 1000; id++ {
		// IDs and ends disagree, so an unsorted prefix shows.
		k := runKey{end: simulator.Time(rng.Intn(200)), id: 1001 - id}
		o.insert(k, &running{job: &jobs.Job{ID: k.id}})
	}
	entries := checkOrder(t, &o)
	if len(o.chunks) < 8 {
		t.Fatalf("%d chunks; the walk should cross several", len(o.chunks))
	}
	for _, now := range []simulator.Time{-5, 0, 37, 120, 250} {
		var want []sched.RunningJob
		var rest []sched.RunningJob
		for _, e := range entries {
			if e.key.end <= now+1 {
				want = append(want, sched.RunningJob{Job: e.r.job, ExpectedEnd: now + 1})
			} else {
				rest = append(rest, sched.RunningJob{Job: e.r.job, ExpectedEnd: e.key.end})
			}
		}
		slices.SortFunc(want, func(a, b sched.RunningJob) int { return int(a.Job.ID - b.Job.ID) })
		want = append(want, rest...)

		var s runningSet
		s.prepare(&o, now)
		if s.Len() != len(want) {
			t.Fatalf("now %v: Len %d, want %d", now, s.Len(), len(want))
		}
		order := make([]int, 0, 3*len(want))
		for i := range want {
			order = append(order, i)
		}
		for i := len(want) - 1; i >= 0; i-- {
			order = append(order, i)
		}
		for range want {
			order = append(order, rng.Intn(len(want)))
		}
		for _, i := range order {
			if got := s.At(i); got != want[i] {
				t.Fatalf("now %v: At(%d) = job %d end %v, want job %d end %v",
					now, i, got.Job.ID, got.ExpectedEnd, want[i].Job.ID, want[i].ExpectedEnd)
			}
		}
	}
}
