// Package tsdb is a deterministic virtual-time time-series store over a
// metrics registry. A Store samples every registered metric on a fixed
// virtual-time cadence — counters as per-step deltas, gauges as values,
// histograms as p50/p95/p99 quantile-estimate gauges — into bounded ring
// buffers with two automatic downsampling tiers (by default 1 min raw →
// 15 min → 2 h rollups).
//
// Determinism contract: the store observes, never steers. Sampling draws
// no randomness, allocates no simulation state, and is driven by a daemon
// engine event, so a run with a store attached produces byte-identical
// reports to one without, and same-seed runs produce byte-identical
// sample streams. Rollups are pure functions of the raw samples: a
// rollup point is emitted only when a full window of raw samples has
// been observed, carries the timestamp of the *last contributing raw
// sample* (never a fabricated midpoint), and conserves counter sums
// exactly (a tier-1 window's value is the arithmetic sum of its raw
// deltas; gauge windows take the mean).
//
// The only mutable entry points are Sample (engine-driven, under the sim
// lock) and the read API, which takes the store's own mutex so HTTP
// scrapers may query concurrently with sampling.
package tsdb

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"

	"epajsrm/internal/metrics"
	"epajsrm/internal/simulator"
)

// Sample is one observation: the virtual time it was taken and the value.
// For counter series the value is the delta accumulated over the step
// ending at T (i.e. the sample covers the window (T-step, T]).
type Sample struct {
	T simulator.Time
	V float64
}

// Tier indexes the resolution levels of a series.
type Tier int

const (
	// TierRaw holds every sample at the store's base cadence.
	TierRaw Tier = iota
	// TierMid holds rollups of midFactor raw steps (15 min at the
	// default 1-minute cadence).
	TierMid
	// TierLong holds rollups of longFactor raw steps (2 h default).
	TierLong
	numTiers
)

const (
	midFactor  = 15  // raw steps per mid rollup
	longFactor = 120 // raw steps per long rollup (2 h at 1-min raw)
)

// Config bounds the store. Zero values take defaults.
type Config struct {
	Step    simulator.Time // sampling cadence (default 1 virtual minute)
	RawCap  int            // raw ring capacity (default 2880 ≈ 2 days)
	MidCap  int            // 15-min ring capacity (default 1344 ≈ 14 days)
	LongCap int            // 2-h ring capacity (default 1092 ≈ 91 days)
}

func (c *Config) fill() {
	if c.Step <= 0 {
		c.Step = simulator.Minute
	}
	if c.RawCap <= 0 {
		c.RawCap = 2880
	}
	if c.MidCap <= 0 {
		c.MidCap = 1344
	}
	if c.LongCap <= 0 {
		c.LongCap = 1092
	}
}

// ring is a circular buffer of samples that grows on demand up to max,
// so a short run holds only what it sampled. Until it first fills, buf
// holds the live samples oldest first and head is 0; after that head
// indexes the oldest sample, which the next push overwrites. Pushes come
// in time order, so the live samples are sorted by T.
type ring struct {
	buf  []Sample
	head int
	max  int
}

func (r *ring) push(s Sample) {
	if len(r.buf) < r.max {
		if len(r.buf) == cap(r.buf) {
			grown := make([]Sample, len(r.buf), min(max(2*cap(r.buf), 16), r.max))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, s)
		return
	}
	r.buf[r.head] = s
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
}

// at returns the i-th live sample, oldest first.
func (r *ring) at(i int) Sample {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

func (r *ring) oldest() (Sample, bool) {
	if len(r.buf) == 0 {
		return Sample{}, false
	}
	return r.at(0), true
}

func (r *ring) newest() (Sample, bool) {
	if len(r.buf) == 0 {
		return Sample{}, false
	}
	return r.at(len(r.buf) - 1), true
}

// all copies the live samples, oldest first.
func (r *ring) all() []Sample {
	out := make([]Sample, 0, len(r.buf))
	return append(append(out, r.buf[r.head:]...), r.buf[:r.head]...)
}

// window returns the positions [i, j) of the live samples stamped in
// [from, to], or in (from, to] when open; both ends are binary searches
// over the time-ordered ring.
func (r *ring) window(from, to simulator.Time, open bool) (i, j int) {
	i = sort.Search(len(r.buf), func(k int) bool {
		t := r.at(k).T
		return t > from || (!open && t == from)
	})
	j = sort.Search(len(r.buf), func(k int) bool { return r.at(k).T > to })
	return i, max(i, j)
}

// accum gathers raw samples for one pending rollup window.
type accum struct {
	sum   float64
	max   float64
	n     int64
	lastT simulator.Time // time of the last contributing raw sample
}

func (a *accum) add(s Sample) {
	if a.n == 0 || s.V > a.max {
		a.max = s.V
	}
	a.sum += s.V
	a.n++
	a.lastT = s.T
}

func (a *accum) reset() { *a = accum{} }

// series is one named stream at all tiers. counter series roll up by
// sum (conserving the total delta); everything else rolls up by mean.
type series struct {
	counter bool
	last    float64 // previous absolute counter reading, for deltas
	tiers   [numTiers]ring
	acc     [numTiers - 1]accum // pending mid, long windows
}

// probe is one registry metric compiled for sampling: its handle and the
// series each reading feeds — the metric's own series, or a histogram's
// p50, p95, p99 and count series in that order.
type probe struct {
	h   metrics.Handle
	out []*series
}

// Store samples a registry into per-metric multi-tier rings.
type Store struct {
	mu     sync.Mutex
	reg    *metrics.Registry
	cfg    Config
	step   simulator.Time
	series map[string]*series
	names  []string // sorted keys of series
	probes []probe  // the registry in name order, as of generation gen
	gen    uint64
	lastT  simulator.Time
	taken  bool // at least one sample taken (distinguishes lastT==0)
}

// New builds a store over reg. It does not sample until Sample is called
// (core.Manager.AttachHistory installs the periodic engine event).
func New(reg *metrics.Registry, cfg Config) *Store {
	cfg.fill()
	return &Store{reg: reg, cfg: cfg, step: cfg.Step, series: map[string]*series{}}
}

// Step is the sampling cadence.
func (s *Store) Step() simulator.Time { return s.step }

// quantiles are the estimates a histogram expands to, each a gauge
// series named by its suffix; a fourth series, name+".count", takes the
// observation count as a counter.
var (
	quantiles        = [...]float64{0.50, 0.95, 0.99}
	quantileSuffixes = [len(quantiles)]string{".p50", ".p95", ".p99"}
)

// Sample takes one observation of every registry metric at virtual time
// now. A call at or before the last sample's time is a no-op, so the
// final end-of-run sample can be taken unconditionally and the rings stay
// time-ordered.
//
// The registry is compiled into probes, in name order, and compiled
// again only when its generation has moved, so a sample sorts nothing,
// looks up no name and allocates nothing once every ring has grown.
func (s *Store) Sample(now simulator.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.taken && now <= s.lastT {
		return
	}
	if s.probes == nil || s.reg.Generation() != s.gen {
		s.compile()
	}
	var qv [len(quantiles)]float64
	for i := range s.probes {
		p := &s.probes[i]
		switch p.h.Kind {
		case metrics.KindCounter:
			p.out[0].push(true, now, p.h.Value())
		case metrics.KindGauge, metrics.KindFunc:
			p.out[0].push(false, now, p.h.Value())
		case metrics.KindHistogram:
			n := p.h.Quantiles(quantiles[:], qv[:])
			for k, v := range qv {
				p.out[k].push(false, now, v)
			}
			p.out[len(quantiles)].push(true, now, float64(n))
		}
	}
	s.lastT = now
	s.taken = true
}

// compile resolves the registry into probes, creating the series each
// one feeds. Series are created in the order the samples first reach
// them, so a name two metrics share (a histogram's "x.count" and a
// counter registered as "x.count") takes its kind from the first, as it
// would by pushing.
func (s *Store) compile() {
	hs, gen := s.reg.Handles()
	s.probes, s.gen = make([]probe, len(hs)), gen
	for i, h := range hs {
		p := probe{h: h}
		if h.Kind == metrics.KindHistogram {
			for _, sfx := range quantileSuffixes {
				p.out = append(p.out, s.seriesFor(h.Name+sfx, false))
			}
			p.out = append(p.out, s.seriesFor(h.Name+".count", true))
		} else {
			p.out = []*series{s.seriesFor(h.Name, h.Kind == metrics.KindCounter)}
		}
		s.probes[i] = p
	}
}

// seriesFor returns the named series, creating it on first sight.
func (s *Store) seriesFor(name string, counter bool) *series {
	if sr, ok := s.series[name]; ok {
		return sr
	}
	sr := &series{counter: counter}
	sr.tiers[TierRaw].max = s.cfg.RawCap
	sr.tiers[TierMid].max = s.cfg.MidCap
	sr.tiers[TierLong].max = s.cfg.LongCap
	s.series[name] = sr
	i, _ := slices.BinarySearch(s.names, name)
	s.names = slices.Insert(s.names, i, name)
	return sr
}

// push records one observation, translating counters to deltas and
// flushing rollup windows at tier boundaries.
func (sr *series) push(counter bool, now simulator.Time, v float64) {
	if counter {
		v, sr.last = v-sr.last, v
	}
	smp := Sample{T: now, V: v}
	sr.tiers[TierRaw].push(smp)
	sr.acc[0].add(smp)
	sr.acc[1].add(smp)
	// Window boundaries count samples, not wall positions, so a late-
	// registered series still rolls up full windows of its own samples.
	if sr.acc[0].n == midFactor {
		sr.tiers[TierMid].push(sr.rollup(&sr.acc[0]))
		sr.acc[0].reset()
	}
	if sr.acc[1].n == longFactor {
		sr.tiers[TierLong].push(sr.rollup(&sr.acc[1]))
		sr.acc[1].reset()
	}
}

func (sr *series) rollup(a *accum) Sample {
	v := a.sum // counters: conserve the summed delta
	if !sr.counter {
		v = a.sum / float64(a.n) // gauges: window mean
	}
	return Sample{T: a.lastT, V: v}
}

// Names lists every series, sorted, including the derived histogram
// quantile/count series.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.names...)
}

// TierStep is the effective cadence of a tier.
func (s *Store) TierStep(t Tier) simulator.Time {
	switch t {
	case TierMid:
		return s.step * midFactor
	case TierLong:
		return s.step * longFactor
	}
	return s.step
}

// Samples copies a tier's live samples, oldest first; ok is false for
// unknown series.
func (s *Store) Samples(name string, t Tier) ([]Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.series[name]
	if !ok || t < 0 || t >= numTiers {
		return nil, false
	}
	return sr.tiers[t].all(), true
}

// Last returns the newest raw sample of a series.
func (s *Store) Last(name string) (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.series[name]
	if !ok {
		return Sample{}, false
	}
	return sr.tiers[TierRaw].newest()
}

// pickTier chooses the tier answering a range query: the finest tier
// whose cadence is no finer than the requested step (step ≤ 0 means
// rawest available), escalated to coarser tiers while the chosen one has
// already evicted the start of the window and a coarser one still covers
// more of it.
func (s *Store) pickTier(sr *series, from simulator.Time, step simulator.Time) Tier {
	t := TierRaw
	for t < numTiers-1 && s.TierStep(t+1) <= step {
		t++
	}
	for t < numTiers-1 {
		o, ok := sr.tiers[t].oldest()
		if ok && o.T <= from {
			break
		}
		co, cok := sr.tiers[t+1].oldest()
		if !cok || (ok && co.T >= o.T) {
			break // coarser tier covers no further back
		}
		t++
	}
	return t
}

// Query returns the samples of a series in [from, to], served from the
// tier pickTier selects, along with that tier's cadence. Samples keep
// their native timestamps; step is a resolution hint, not a resampling
// grid. ok is false only for unknown series.
func (s *Store) Query(name string, from, to, step simulator.Time) (out []Sample, tierStep simulator.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, found := s.series[name]
	if !found {
		return nil, 0, false
	}
	t := s.pickTier(sr, from, step)
	r := &sr.tiers[t]
	if i, j := r.window(from, to, false); j > i {
		out = make([]Sample, 0, j-i)
		for ; i < j; i++ {
			out = append(out, r.at(i))
		}
	}
	return out, s.TierStep(t), true
}

// Op selects the aggregation Reduce applies over a window.
type Op int

const (
	// OpSum adds sample values — the total counter delta over the
	// window (conserved across tiers).
	OpSum Op = iota
	// OpMean averages sample values.
	OpMean
	// OpMax takes the largest sample value.
	OpMax
	// OpLast takes the newest sample in the window.
	OpLast
	// OpIntegral sums value·cadence — a gauge's time integral over the
	// window in unit·seconds (watts → joules).
	OpIntegral
)

// Reduce aggregates a series over the half-open window (from, to] — the
// natural window for counter deltas, where a sample at T covers
// (T-cadence, T]. It serves from the finest tier still covering `from`
// and reports that tier's cadence so callers can judge resolution. n is
// the number of samples aggregated (0 ⇒ v is 0).
func (s *Store) Reduce(name string, from, to simulator.Time, op Op) (v float64, n int, tierStep simulator.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, found := s.series[name]
	if !found {
		return 0, 0, 0
	}
	t := s.pickTier(sr, from, 0)
	tierStep = s.TierStep(t)
	r := &sr.tiers[t]
	i, j := r.window(from, to, true)
	for ; i < j; i++ {
		smp := r.at(i)
		n++
		switch op {
		case OpSum:
			v += smp.V
		case OpMean:
			v += smp.V
		case OpMax:
			if n == 1 || smp.V > v {
				v = smp.V
			}
		case OpLast:
			v = smp.V
		case OpIntegral:
			v += smp.V * float64(tierStep)
		}
	}
	if op == OpMean && n > 0 {
		v /= float64(n)
	}
	return v, n, tierStep
}

// Now reports the time of the most recent sample.
func (s *Store) Now() (simulator.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastT, s.taken
}

// WriteQueryJSON renders a range-query result as deterministic JSON with
// fixed field order and 'g'-formatted numbers, shared by the ops /query
// endpoint and offline tooling.
func WriteQueryJSON(w io.Writer, metric string, tierStep, from, to simulator.Time, samples []Sample) error {
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "{\n  \"metric\": %q,\n  \"step\": %d,\n  \"from\": %d,\n  \"to\": %d,\n  \"samples\": [", metric, int64(tierStep), int64(from), int64(to))
	for i, s := range samples {
		if i > 0 {
			ew.WriteString(",")
		}
		ew.WriteString("\n    {\"t\": ")
		ew.WriteString(strconv.FormatInt(int64(s.T), 10))
		ew.WriteString(", \"v\": ")
		ew.WriteString(strconv.FormatFloat(s.V, 'g', -1, 64))
		ew.WriteString("}")
	}
	if len(samples) > 0 {
		ew.WriteString("\n  ")
	}
	ew.WriteString("]\n}\n")
	return ew.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	var n int
	n, e.err = e.w.Write(p)
	return n, nil
}

func (e *errWriter) WriteString(s string) { e.Write([]byte(s)) }
