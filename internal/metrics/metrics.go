// Package metrics implements the unified, typed metric registry the
// observability layer exports: counters, gauges, histograms, and derived
// (function-backed) gauges, all addressable by name from one place. The
// survey's Section VI centers this kind of measurement plane — the nine
// sites all archive power/energy figures at data-center, machine, and job
// granularity — and the experiment harness snapshots a registry instead of
// reaching into ad-hoc counter fields scattered across subsystems.
//
// Determinism contract: a Snapshot is sorted by metric name, values are
// plain Go numerics with no wall-clock or map-order dependence, and the
// JSON export writes fields in a fixed order — two runs with the same seed
// produce byte-identical exports.
//
// Concurrency: metric value types (Counter, Gauge, Histogram) are NOT
// internally synchronized — each simulation engine is single-goroutine by
// the runner's determinism contract, and adding atomics would tax the hot
// path for a guarantee nothing needs. The Registry itself locks only its
// name table, so concurrent managers may each own a private registry while
// a shared one is still safe to *register* into.
package metrics

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric types in a snapshot.
type Kind int

const (
	// KindCounter is a monotonically increasing integer count.
	KindCounter Kind = iota
	// KindGauge is a point-in-time float value (set, not accumulated).
	KindGauge
	// KindFunc is a derived gauge computed at snapshot time.
	KindFunc
	// KindHistogram is a bucketed distribution with sum and count.
	KindHistogram
)

var kindNames = [...]string{"counter", "gauge", "func", "histogram"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Counter is a monotonically increasing count. The zero value is unusable;
// create with NewCounter or Registry.Counter so subsystems can expose a
// counter before (or without) a registry adopting it.
type Counter struct {
	n int64
}

// NewCounter returns a standalone counter (registered later via
// Registry.Register, or never).
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta (negative deltas panic — counters are monotonic).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative counter delta")
	}
	c.n += delta
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Gauge is a point-in-time value.
type Gauge struct {
	v float64
}

// NewGauge returns a standalone gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) { g.v = v }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) { g.v += delta }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram is a bucketed distribution. Storage is per-bucket: counts[i]
// is the number of observations in (bounds[i-1], bounds[i]] and the last
// slot is the overflow bucket above the final bound. Cumulative returns
// the Prometheus-style running form ("observations <= bound"), which is
// what the JSON export's cum_counts field and the /metrics exposition
// carry — mean and quantile estimates are recoverable from the export
// without the raw series.
type Histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; last = overflow
	sum    float64
	n      int64
}

// NewHistogram returns a histogram over the given ascending bucket bounds.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Buckets returns (bounds, counts) — counts has one extra overflow slot.
func (h *Histogram) Buckets() ([]float64, []int64) { return h.bounds, h.counts }

// Quantile estimates the q-th quantile (clamped to [0, 1]) of the observed
// distribution by linear interpolation within the cumulative bucket that
// contains rank q·Count, following the Prometheus histogram_quantile
// conventions: an empty histogram yields 0, a rank landing in the overflow
// (+Inf) bucket yields the highest finite bound, and the first bucket
// interpolates down to zero when its bound is positive (the bound itself
// otherwise — there is no lower anchor to interpolate toward).
func (h *Histogram) Quantile(q float64) float64 {
	return bucketQuantile(h.bounds, h.counts, h.n, q)
}

// bucketQuantile is the shared estimator behind Histogram.Quantile and
// Point.Quantile.
func bucketQuantile(bounds []float64, counts []int64, n int64, q float64) float64 {
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	cum := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i == len(bounds) {
			// Overflow bucket: no finite upper edge to interpolate within.
			if len(bounds) == 0 {
				return 0
			}
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		switch {
		case i > 0:
			lo = bounds[i-1]
		case bounds[i] <= 0:
			lo = bounds[i]
		}
		return lo + (bounds[i]-lo)*(rank-prev)/float64(c)
	}
	// Unreachable with consistent counts (cum == n >= rank); keep the
	// overflow convention for defensiveness.
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// Cumulative returns the running bucket counts: out[i] is the number of
// observations <= bounds[i], and the final slot equals Count(). This is
// the form Prometheus exposition requires for _bucket series.
func (h *Histogram) Cumulative() []int64 {
	out := make([]int64, len(h.counts))
	cum := int64(0)
	for i, c := range h.counts {
		cum += c
		out[i] = cum
	}
	return out
}

// SyncHistogram is a histogram safe for concurrent observers — the
// exception to the package's unsynchronized-values rule, for the one
// place that genuinely needs it: the service tier's HTTP handlers,
// which observe request latencies from many goroutines at once.
// Snapshot deep-copies its buckets under the same mutex, so exports
// see a consistent point-in-time distribution.
type SyncHistogram struct {
	mu sync.Mutex
	h  *Histogram
}

// NewSyncHistogram returns a standalone synchronized histogram.
func NewSyncHistogram(bounds ...float64) *SyncHistogram {
	return &SyncHistogram{h: NewHistogram(bounds...)}
}

// Observe records one sample; safe from any goroutine.
func (s *SyncHistogram) Observe(v float64) {
	s.mu.Lock()
	s.h.Observe(v)
	s.mu.Unlock()
}

// Count returns the number of observations.
func (s *SyncHistogram) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Count()
}

// snap copies the histogram's state into a Point under the lock.
func (s *SyncHistogram) snap(p *Point) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p.Value = s.h.Mean()
	bounds, counts := s.h.Buckets()
	p.Bounds = append([]float64(nil), bounds...)
	p.Counts = append([]int64(nil), counts...)
	p.Sum, p.Count = s.h.Sum(), s.h.Count()
}

// Point is one metric in a snapshot.
type Point struct {
	Name  string
	Kind  Kind
	Value float64 // counter count, gauge/func value, histogram mean
	// Histogram detail (nil for scalar kinds).
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Quantile estimates the q-th quantile from a histogram point's buckets
// (see Histogram.Quantile); scalar kinds yield 0. It lets snapshot
// consumers (offline tooling, the benchmark harness) derive p50/p95/p99 series
// without reaching back into the live histogram.
func (p Point) Quantile(q float64) float64 {
	if p.Kind != KindHistogram {
		return 0
	}
	return bucketQuantile(p.Bounds, p.Counts, p.Count, q)
}

type entry struct {
	kind Kind
	c    *Counter
	g    *Gauge
	f    func() float64
	h    *Histogram
	sh   *SyncHistogram
}

// value reads the entry's scalar: the count, the gauge or func value, or
// the histogram mean.
func (e entry) value() float64 {
	switch e.kind {
	case KindCounter:
		return float64(e.c.Value())
	case KindGauge:
		return e.g.Value()
	case KindFunc:
		return e.f()
	case KindHistogram:
		if e.sh != nil {
			e.sh.mu.Lock()
			defer e.sh.mu.Unlock()
			return e.sh.h.Mean()
		}
		return e.h.Mean()
	}
	return 0
}

// Registry is a named collection of metrics. Create with New.
type Registry struct {
	mu    sync.Mutex
	items map[string]entry
	gen   atomic.Uint64 // registrations so far; see Generation
}

// New returns an empty registry.
func New() *Registry { return &Registry{items: map[string]entry{}} }

func (r *Registry) put(name string, e entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.items[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.items[name] = e
	r.gen.Add(1)
}

// Generation moves on every registration. A reader holding Handles
// resolves them again only when the generation differs from the one
// Handles returned.
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// Handle is one registered metric, resolved once so that a reader that
// samples the registry repeatedly (the tsdb sampler) reads it without the
// registry lock, a name lookup or an allocation.
type Handle struct {
	Name string
	Kind Kind
	e    entry
}

// Handles resolves every registered metric, sorted by name, and returns
// the generation the list reflects.
func (r *Registry) Handles() ([]Handle, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	hs := make([]Handle, 0, len(r.items))
	for n, e := range r.items {
		hs = append(hs, Handle{Name: n, Kind: e.kind, e: e})
	}
	slices.SortFunc(hs, func(a, b Handle) int { return strings.Compare(a.Name, b.Name) })
	return hs, r.gen.Load()
}

// Value reads the metric's scalar, as Registry.Value does.
func (h *Handle) Value() float64 { return h.e.value() }

// Quantiles sets out[i] to the estimate of quantile qs[i] (see
// Histogram.Quantile) and returns the observation count, all from one
// state of the buckets. Scalar kinds set zeros and return 0.
func (h *Handle) Quantiles(qs, out []float64) int64 {
	hist := h.e.h
	if sh := h.e.sh; sh != nil {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		hist = sh.h
	}
	if hist == nil {
		clear(out)
		return 0
	}
	for i, q := range qs {
		out[i] = hist.Quantile(q)
	}
	return hist.n
}

// Counter creates and registers a counter under name.
func (r *Registry) Counter(name string) *Counter {
	c := NewCounter()
	r.put(name, entry{kind: KindCounter, c: c})
	return c
}

// Gauge creates and registers a gauge under name.
func (r *Registry) Gauge(name string) *Gauge {
	g := NewGauge()
	r.put(name, entry{kind: KindGauge, g: g})
	return g
}

// Histogram creates and registers a histogram under name.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	h := NewHistogram(bounds...)
	r.put(name, entry{kind: KindHistogram, h: h})
	return h
}

// SyncHistogram creates and registers a concurrency-safe histogram
// under name. It exports exactly like Histogram; only its write path
// differs.
func (r *Registry) SyncHistogram(name string, bounds ...float64) *SyncHistogram {
	h := NewSyncHistogram(bounds...)
	r.put(name, entry{kind: KindHistogram, sh: h})
	return h
}

// GaugeFunc registers a derived gauge evaluated at snapshot time — the
// adoption path for values a subsystem already maintains (an integral, a
// struct field) that the registry should export without duplicating.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.put(name, entry{kind: KindFunc, f: fn})
}

// Register adopts an existing standalone Counter under name, so a
// subsystem built without a registry (power.Controller, fault.Injector)
// still exports through the unified surface once a manager owns it.
func (r *Registry) Register(name string, c *Counter) {
	r.put(name, entry{kind: KindCounter, c: c})
}

// Value returns the current scalar value of the named metric (histogram
// mean for histograms), or 0 if the name is unknown.
func (r *Registry) Value(name string) float64 {
	r.mu.Lock()
	e, ok := r.items[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	return e.value()
}

// Snapshot returns every metric, sorted by name.
func (r *Registry) Snapshot() []Point {
	hs, _ := r.Handles()
	out := make([]Point, len(hs))
	for i, h := range hs {
		p := Point{Name: h.Name, Kind: h.Kind}
		switch e := h.e; {
		case e.sh != nil:
			e.sh.snap(&p)
		case e.kind == KindHistogram:
			p.Value = e.h.Mean()
			p.Bounds, p.Counts = e.h.Buckets()
			p.Sum, p.Count = e.h.Sum(), e.h.Count()
		default:
			p.Value = e.value()
		}
		out[i] = p
	}
	return out
}

// WriteJSON writes the snapshot as a deterministic JSON object keyed by
// metric name: {"name": {"kind": "...", "value": N, ...}, ...} with keys
// in sorted order and fixed field order, so same-seed runs export
// byte-identical files.
func (r *Registry) WriteJSON(w io.Writer) error {
	pts := r.Snapshot()
	bw := newErrWriter(w)
	bw.str("{\n")
	for i, p := range pts {
		bw.str("  ")
		bw.str(strconv.Quote(p.Name))
		bw.str(`: {"kind": `)
		bw.str(strconv.Quote(p.Kind.String()))
		bw.str(`, "value": `)
		bw.num(p.Value)
		if p.Kind == KindHistogram {
			bw.str(`, "sum": `)
			bw.num(p.Sum)
			bw.str(`, "count": `)
			bw.str(strconv.FormatInt(p.Count, 10))
			bw.str(`, "bounds": [`)
			for k, b := range p.Bounds {
				if k > 0 {
					bw.str(", ")
				}
				bw.num(b)
			}
			bw.str(`], "counts": [`)
			for k, c := range p.Counts {
				if k > 0 {
					bw.str(", ")
				}
				bw.str(strconv.FormatInt(c, 10))
			}
			// Cumulative form alongside the raw buckets: consumers recover
			// the mean from sum/count and quantile estimates from
			// cum_counts without the raw series.
			bw.str(`], "cum_counts": [`)
			cum := int64(0)
			for k, c := range p.Counts {
				if k > 0 {
					bw.str(", ")
				}
				cum += c
				bw.str(strconv.FormatInt(cum, 10))
			}
			bw.str("]")
		}
		bw.str("}")
		if i < len(pts)-1 {
			bw.str(",")
		}
		bw.str("\n")
	}
	bw.str("}\n")
	return bw.err
}

// errWriter threads one error through a write sequence.
type errWriter struct {
	w   io.Writer
	err error
}

func newErrWriter(w io.Writer) *errWriter { return &errWriter{w: w} }

func (e *errWriter) str(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func (e *errWriter) num(v float64) {
	// %g would print large integers in e-notation; prefer the shortest
	// round-trippable decimal form JSON consumers expect.
	e.str(strconv.FormatFloat(v, 'g', -1, 64))
}
