package core

import (
	"cmp"
	"slices"

	"epajsrm/internal/sched"
	"epajsrm/internal/simulator"
)

// runChunkCap bounds a runOrder chunk: an insert or delete shifts at most
// this many entries, where a flat sorted slice shifts half the set.
const runChunkCap = 128

// runSpares bounds the freed chunks a runOrder keeps for later splits.
// Merges come in runs (a set that drains frees several chunks before it
// splits again): on the 10k-node hollow run one spare still left ~800 of
// ~1,900 chunk allocations, and sixteen leave none.
const runSpares = 16

// runKey orders running records: by end (zero in the ID order), then by
// job ID.
type runKey struct {
	end simulator.Time
	id  int64
}

func (k runKey) cmp(o runKey) int {
	if c := cmp.Compare(k.end, o.end); c != 0 {
		return c
	}
	return cmp.Compare(k.id, o.id)
}

type runEntry struct {
	key runKey
	r   *running
}

// runOrder is a sorted sequence of running records in chunks of at most
// runChunkCap entries, keys inline so a search never dereferences a
// record. A full chunk splits in two; a chunk under a quarter full merges
// into a neighbour, or evens out with it when the pair does not fit in
// one chunk. Slots a move vacates are cleared, so a removed record is not
// kept alive. The last chunk stays allocated when it empties, and a chunk
// a merge frees is kept, cleared, for a later split to take (up to
// runSpares of them), so a set whose size moves up and down within its
// peak stops allocating chunks.
type runOrder struct {
	chunks [][]runEntry
	spares [][]runEntry // empty, cleared chunks
	n      int
}

func cmpEntry(e runEntry, k runKey) int { return e.key.cmp(k) }

// chunkFor returns the index of the chunk that holds k, or would hold it.
func (o *runOrder) chunkFor(k runKey) int {
	i, _ := slices.BinarySearchFunc(o.chunks, k, func(c []runEntry, k runKey) int {
		if len(c) == 0 {
			return 1 // only a sole chunk is ever empty
		}
		return c[len(c)-1].key.cmp(k)
	})
	return min(i, len(o.chunks)-1)
}

func (o *runOrder) insert(k runKey, r *running) {
	if len(o.chunks) == 0 {
		o.chunks = append(o.chunks, make([]runEntry, 0, runChunkCap))
	}
	ci := o.chunkFor(k)
	c := o.chunks[ci]
	if len(c) == runChunkCap {
		var hi []runEntry
		if n := len(o.spares); n > 0 {
			hi = o.spares[n-1]
			o.spares[n-1] = nil
			o.spares = o.spares[:n-1]
		} else {
			hi = make([]runEntry, 0, runChunkCap)
		}
		hi = append(hi, c[runChunkCap/2:]...)
		clear(c[runChunkCap/2:])
		c = c[:runChunkCap/2]
		o.chunks[ci] = c
		o.chunks = slices.Insert(o.chunks, ci+1, hi)
		if k.cmp(hi[0].key) > 0 {
			ci, c = ci+1, hi
		}
	}
	i, _ := slices.BinarySearchFunc(c, k, cmpEntry)
	o.chunks[ci] = slices.Insert(c, i, runEntry{key: k, r: r})
	o.n++
}

// remove deletes the entry with key k and reports whether there was one.
func (o *runOrder) remove(k runKey) bool {
	if o.n == 0 {
		return false
	}
	ci := o.chunkFor(k)
	c := o.chunks[ci]
	i, ok := slices.BinarySearchFunc(c, k, cmpEntry)
	if !ok {
		return false
	}
	c = slices.Delete(c, i, i+1) // clears the vacated slot
	o.chunks[ci] = c
	o.n--
	if len(c) >= runChunkCap/4 || len(o.chunks) == 1 {
		return true
	}
	if ci == len(o.chunks)-1 {
		ci--
	}
	a, b := o.chunks[ci], o.chunks[ci+1]
	if len(a)+len(b) <= runChunkCap {
		o.chunks[ci] = append(a, b...)
		o.chunks = slices.Delete(o.chunks, ci+1, ci+2)
		if len(o.spares) < runSpares {
			clear(b)
			o.spares = append(o.spares, b[:0])
		}
		return true
	}
	half := (len(a) + len(b)) / 2
	if m := half - len(a); m > 0 {
		a = append(a, b[:m]...)
		n := copy(b, b[m:])
		clear(b[n:])
		b = b[:n]
	} else {
		b = slices.Insert(b, 0, a[half:]...)
		clear(a[half:])
		a = a[:half]
	}
	o.chunks[ci], o.chunks[ci+1] = a, b
	return true
}

// each calls f on every record in order. f must not insert or remove.
func (o *runOrder) each(f func(*running)) {
	for _, c := range o.chunks {
		for _, e := range c {
			f(e.r)
		}
	}
}

// runningSet is the running set as schedulers read it (sched.RunningSet):
// the end order, with its clamped prefix — the jobs due by now+1, whose
// ends the clamp ties at now+1 — put back in job-ID order. That is the
// sequence a stable sort of the ID-ordered set by clamped end yields.
// prepare re-reads the index for one pass; the cursor (i, ci, off) makes
// At O(1) when i advances by one.
type runningSet struct {
	o       *runOrder
	clamp   simulator.Time
	prefix  []*running
	i       int // cursor position in o, at chunk ci, offset off
	ci, off int
}

func (s *runningSet) prepare(o *runOrder, now simulator.Time) {
	s.o, s.clamp, s.prefix = o, now+1, s.prefix[:0]
	s.i, s.ci, s.off = 0, 0, 0
	for s.i < o.n {
		e := o.chunks[s.ci][s.off]
		if e.key.end > s.clamp {
			break
		}
		s.prefix = append(s.prefix, e.r)
		s.seek(s.i + 1)
	}
	slices.SortFunc(s.prefix, func(a, b *running) int { return cmp.Compare(a.job.ID, b.job.ID) })
}

// seek moves the cursor to position i, a whole chunk at a time.
func (s *runningSet) seek(i int) {
	if i < s.i {
		s.i, s.ci, s.off = 0, 0, 0
	}
	for s.i < i {
		if rest := len(s.o.chunks[s.ci]) - s.off; s.i+rest <= i {
			s.i, s.ci, s.off = s.i+rest, s.ci+1, 0
		} else {
			s.off += i - s.i
			s.i = i
		}
	}
}

// Len implements sched.RunningSet.
func (s *runningSet) Len() int { return s.o.n }

// At implements sched.RunningSet.
func (s *runningSet) At(i int) sched.RunningJob {
	if i < len(s.prefix) {
		r := s.prefix[i]
		return sched.RunningJob{Job: r.job, Nodes: len(r.nodes), ExpectedEnd: s.clamp}
	}
	s.seek(i)
	e := s.o.chunks[s.ci][s.off]
	return sched.RunningJob{Job: e.r.job, Nodes: len(e.r.nodes), ExpectedEnd: e.key.end}
}
