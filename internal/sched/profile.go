package sched

import (
	"sort"

	"epajsrm/internal/simulator"
)

// Profile is a node-availability timeline: a step function from time to the
// number of nodes in use, over a fixed capacity. Conservative backfilling
// plans the queue against it.
type Profile struct {
	Capacity int
	start    simulator.Time
	// steps are breakpoints with the usage that begins at each; sorted by
	// time, first step at `start`.
	times []simulator.Time
	used  []int
}

// NewProfile returns an empty profile beginning at start with the given
// node capacity.
func NewProfile(start simulator.Time, capacity int) *Profile {
	return &Profile{
		Capacity: capacity,
		start:    start,
		times:    []simulator.Time{start},
		used:     []int{0},
	}
}

// Reset returns the profile to the empty state NewProfile would produce,
// reusing the breakpoint slabs already grown. A reset profile behaves
// identically to a fresh one; schedulers that plan every pass keep one
// profile alive instead of reallocating the timeline each Pick.
func (p *Profile) Reset(start simulator.Time, capacity int) {
	p.Capacity = capacity
	p.start = start
	p.times = append(p.times[:0], start)
	p.used = append(p.used[:0], 0)
}

// freeAtStart returns the nodes free in the profile's first step.
func (p *Profile) freeAtStart() int { return p.Capacity - p.used[0] }

// UsedAt returns the usage in effect at time t (t before the profile start
// reports the initial usage).
func (p *Profile) UsedAt(t simulator.Time) int {
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] > t }) - 1
	if i < 0 {
		i = 0
	}
	return p.used[i]
}

// ensureBreak inserts a breakpoint at t (if missing) and returns its index.
func (p *Profile) ensureBreak(t simulator.Time) int {
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] >= t })
	if i < len(p.times) && p.times[i] == t {
		return i
	}
	// Inherit the usage in effect just before t.
	prev := 0
	if i > 0 {
		prev = p.used[i-1]
	}
	p.times = append(p.times, 0)
	p.used = append(p.used, 0)
	copy(p.times[i+1:], p.times[i:])
	copy(p.used[i+1:], p.used[i:])
	p.times[i] = t
	p.used[i] = prev
	return i
}

// Reserve adds n nodes of usage over [from, to). Reservations may exceed
// capacity only through programmer error; Reserve panics in that case so
// scheduler bugs surface immediately.
func (p *Profile) Reserve(from, to simulator.Time, n int) {
	if to <= from || n <= 0 {
		return
	}
	if from < p.start {
		from = p.start
	}
	i := p.ensureBreak(from)
	j := p.ensureBreak(to)
	for k := i; k < j; k++ {
		p.used[k] += n
		if p.used[k] > p.Capacity {
			panic("sched: profile reservation exceeds capacity")
		}
	}
}

// EarliestFit returns the earliest time >= the profile start at which n
// nodes are continuously free for duration d.
func (p *Profile) EarliestFit(n int, d simulator.Time) simulator.Time {
	if n > p.Capacity {
		// Can never fit; park it far in the future so callers still get a
		// consistent reservation (the manager rejects such jobs upstream).
		return p.times[len(p.times)-1] + 365*simulator.Day
	}
	for i := 0; i < len(p.times); i++ {
		t := p.times[i]
		if p.Capacity-p.used[i] < n {
			continue
		}
		// Check the window [t, t+d) across subsequent steps. A step k that
		// blocks it lies inside the window of every start from t to
		// times[k] as well, so the scan resumes after k.
		ok := true
		for k := i + 1; k < len(p.times) && p.times[k] < t+d; k++ {
			if p.Capacity-p.used[k] < n {
				ok = false
				i = k
				break
			}
		}
		if ok {
			return t
		}
	}
	// After the last breakpoint everything is free.
	return p.times[len(p.times)-1]
}

// MaxUsedIn returns the maximum usage over [from, to).
func (p *Profile) MaxUsedIn(from, to simulator.Time) int {
	maxU := p.UsedAt(from)
	for i, t := range p.times {
		if t >= from && t < to && p.used[i] > maxU {
			maxU = p.used[i]
		}
	}
	return maxU
}
