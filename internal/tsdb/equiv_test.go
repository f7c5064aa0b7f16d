package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"epajsrm/internal/metrics"
	"epajsrm/internal/simulator"
)

// The reference store below is the sampler and the read path as they
// were before the sampler was compiled: a registry Snapshot per sample, a
// map lookup and a name built per series, preallocated fixed rings, and
// Query/Reduce scanning every live sample. TestCompiledSamplerMatchesReference
// drives it and Store side by side.

type refRing struct {
	buf    []Sample
	head   int
	n      int
	pushes int
}

func newRefRing(c int) refRing { return refRing{buf: make([]Sample, c)} }

func (r *refRing) push(s Sample) {
	r.pushes++
	r.buf[r.head] = s
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

func (r *refRing) at(i int) Sample {
	start := (r.head - r.n + len(r.buf)) % len(r.buf)
	return r.buf[(start+i)%len(r.buf)]
}

func (r *refRing) oldest() (Sample, bool) {
	if r.n == 0 {
		return Sample{}, false
	}
	return r.at(0), true
}

func (r *refRing) all() []Sample {
	out := make([]Sample, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.at(i)
	}
	return out
}

type refSeries struct {
	counter bool
	last    float64
	tiers   [numTiers]refRing
	acc     [numTiers - 1]accum
}

type refStore struct {
	reg    *metrics.Registry
	cfg    Config
	series map[string]*refSeries
	names  []string
	lastT  simulator.Time
	taken  bool
}

func newRef(reg *metrics.Registry, cfg Config) *refStore {
	cfg.fill()
	return &refStore{reg: reg, cfg: cfg, series: map[string]*refSeries{}}
}

func (s *refStore) Sample(now simulator.Time) {
	snap := s.reg.Snapshot()
	if s.taken && now == s.lastT {
		return
	}
	for _, p := range snap {
		switch p.Kind {
		case metrics.KindCounter:
			s.push(p.Name, true, now, p.Value)
		case metrics.KindGauge, metrics.KindFunc:
			s.push(p.Name, false, now, p.Value)
		case metrics.KindHistogram:
			for k, q := range quantiles {
				s.push(p.Name+quantileSuffixes[k], false, now, p.Quantile(q))
			}
			s.push(p.Name+".count", true, now, float64(p.Count))
		}
	}
	s.lastT = now
	s.taken = true
}

func (s *refStore) push(name string, counter bool, now simulator.Time, v float64) {
	sr, ok := s.series[name]
	if !ok {
		sr = &refSeries{counter: counter}
		sr.tiers[TierRaw] = newRefRing(s.cfg.RawCap)
		sr.tiers[TierMid] = newRefRing(s.cfg.MidCap)
		sr.tiers[TierLong] = newRefRing(s.cfg.LongCap)
		s.series[name] = sr
		i := 0
		for i < len(s.names) && s.names[i] < name {
			i++
		}
		s.names = append(s.names, "")
		copy(s.names[i+1:], s.names[i:])
		s.names[i] = name
	}
	if counter {
		v, sr.last = v-sr.last, v
	}
	smp := Sample{T: now, V: v}
	sr.tiers[TierRaw].push(smp)
	sr.acc[0].add(smp)
	sr.acc[1].add(smp)
	for k, f := range [2]int64{midFactor, longFactor} {
		if sr.acc[k].n == f {
			v := sr.acc[k].sum
			if !sr.counter {
				v /= float64(sr.acc[k].n)
			}
			sr.tiers[k+1].push(Sample{T: sr.acc[k].lastT, V: v})
			sr.acc[k].reset()
		}
	}
}

func (s *refStore) tierStep(t Tier) simulator.Time {
	switch t {
	case TierMid:
		return s.cfg.Step * midFactor
	case TierLong:
		return s.cfg.Step * longFactor
	}
	return s.cfg.Step
}

func (s *refStore) pickTier(sr *refSeries, from, step simulator.Time) Tier {
	t := TierRaw
	for t < numTiers-1 && s.tierStep(t+1) <= step {
		t++
	}
	for t < numTiers-1 {
		o, ok := sr.tiers[t].oldest()
		if ok && o.T <= from {
			break
		}
		co, cok := sr.tiers[t+1].oldest()
		if !cok || (ok && co.T >= o.T) {
			break
		}
		t++
	}
	return t
}

func (s *refStore) Query(name string, from, to, step simulator.Time) ([]Sample, simulator.Time, bool) {
	sr, ok := s.series[name]
	if !ok {
		return nil, 0, false
	}
	t := s.pickTier(sr, from, step)
	var out []Sample
	r := &sr.tiers[t]
	for i := 0; i < r.n; i++ {
		if smp := r.at(i); smp.T >= from && smp.T <= to {
			out = append(out, smp)
		}
	}
	return out, s.tierStep(t), true
}

func (s *refStore) Reduce(name string, from, to simulator.Time, op Op) (v float64, n int, tierStep simulator.Time) {
	sr, ok := s.series[name]
	if !ok {
		return 0, 0, 0
	}
	t := s.pickTier(sr, from, 0)
	tierStep = s.tierStep(t)
	r := &sr.tiers[t]
	for i := 0; i < r.n; i++ {
		smp := r.at(i)
		if smp.T <= from || smp.T > to {
			continue
		}
		n++
		switch op {
		case OpSum, OpMean:
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

// randomRegistry registers metrics of every kind into one registry as a
// run goes on and moves their values between samples.
type randomRegistry struct {
	rng    *rand.Rand
	reg    *metrics.Registry
	names  map[string]bool
	hists  []string // histogram names, for colliding registrations
	moves  []func()
	funcV  []float64
	nextID int
}

func (rr *randomRegistry) register() {
	name := fmt.Sprintf("m%02d", rr.nextID)
	rr.nextID++
	// Now and then take a name a histogram's derived series already
	// uses, so two metrics feed one series.
	if len(rr.hists) > 0 && rr.rng.Intn(8) == 0 {
		name = rr.hists[rr.rng.Intn(len(rr.hists))] + []string{".count", ".p50", ".p99"}[rr.rng.Intn(3)]
	}
	if rr.names[name] {
		return
	}
	rr.names[name] = true
	bounds := []float64{1, 10, 100, 1000}
	switch rr.rng.Intn(5) {
	case 0:
		c := rr.reg.Counter(name)
		rr.moves = append(rr.moves, func() { c.Add(int64(rr.rng.Intn(50))) })
	case 1:
		g := rr.reg.Gauge(name)
		rr.moves = append(rr.moves, func() { g.Set(rr.rng.NormFloat64() * 1e3) })
	case 2:
		k := len(rr.funcV)
		rr.funcV = append(rr.funcV, 0)
		rr.reg.GaugeFunc(name, func() float64 { return rr.funcV[k] })
		rr.moves = append(rr.moves, func() { rr.funcV[k] += rr.rng.Float64() - 0.3 })
	case 3:
		h := rr.reg.Histogram(name, bounds...)
		rr.hists = append(rr.hists, name)
		rr.moves = append(rr.moves, func() {
			for n := rr.rng.Intn(4); n > 0; n-- {
				h.Observe(rr.rng.ExpFloat64() * 200)
			}
		})
	case 4:
		h := rr.reg.SyncHistogram(name, bounds...)
		rr.hists = append(rr.hists, name)
		rr.moves = append(rr.moves, func() { h.Observe(rr.rng.Float64() * 2000) })
	}
}

func (rr *randomRegistry) move() {
	for _, mv := range rr.moves {
		if rr.rng.Intn(3) > 0 {
			mv()
		}
	}
}

func sameSamples(a, b []Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
			return false
		}
	}
	return true
}

// blockCoverage counts the block layouts a ring reached: full rings of
// several blocks whose oldest sample had moved past the first block, so
// the live window wraps across a block boundary, and rings with a
// partial last block pushed through at least twice, so the head crossed
// the partial block back to the first one.
type blockCoverage struct{ crossed, cycled int }

func (c *blockCoverage) observe(r *ring, ref *refRing) {
	if len(r.blocks) < 2 || r.n != r.max {
		return
	}
	if r.head >= blockSize {
		c.crossed++
	}
	if r.max%blockSize != 0 && ref.pushes >= 2*r.max {
		c.cycled++
	}
}

// TestCompiledSamplerMatchesReference drives Store and the reference
// over seeded random registries — counters, gauges, funcs, histograms and
// SyncHistograms, metrics registered mid-run, names shared with a
// histogram's derived series, repeated timestamps, and caps that make
// every tier wrap and raw rings span several blocks, with a partial last
// block — and requires identical Names, bit-equal Samples at every tier
// and bit-equal Query and Reduce results over random windows.
func TestCompiledSamplerMatchesReference(t *testing.T) {
	var escalated, evicted, windows int
	var blocks blockCoverage
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Step: simulator.Minute, RawCap: 1 + rng.Intn(3*blockSize), MidCap: 1 + rng.Intn(80), LongCap: 1 + rng.Intn(8)}
		rr := &randomRegistry{rng: rng, reg: metrics.New(), names: map[string]bool{}}
		for n := 1 + rng.Intn(6); n > 0; n-- {
			rr.register()
		}
		st, ref := New(rr.reg, cfg), newRef(rr.reg, cfg)
		const steps = 2000 // ~1,800 raw samples: twice round a 3-block raw ring, every mid and long ring wraps
		now := simulator.Time(0)
		for i := 1; i <= steps; i++ {
			if rng.Intn(150) == 0 {
				rr.register()
			}
			rr.move()
			if rng.Intn(10) > 0 { // else sample the same timestamp again
				now += simulator.Minute * simulator.Time(1+rng.Intn(3)*rng.Intn(2))
			}
			st.Sample(now)
			ref.Sample(now)
			if i%100 != 0 && i != steps {
				continue
			}
			names := st.Names()
			if fmt.Sprint(names) != fmt.Sprint(ref.names) {
				t.Fatalf("seed %d step %d: Names\n%v\nwant\n%v", seed, i, names, ref.names)
			}
			for _, name := range append(names, "unknown") {
				for tier := TierRaw; tier < numTiers; tier++ {
					got, ok := st.Samples(name, tier)
					rs, rok := ref.series[name]
					var want []Sample
					if rok {
						want = rs.tiers[tier].all()
						if rs.tiers[tier].n == len(rs.tiers[tier].buf) && rs.tiers[tier].n > 0 && tier == TierRaw {
							evicted++
						}
						blocks.observe(&st.series[name].tiers[tier], &rs.tiers[tier])
					}
					if ok != rok || !sameSamples(got, want) {
						t.Fatalf("seed %d step %d: %s tier %d Samples\n%v\nwant\n%v", seed, i, name, tier, got, want)
					}
				}
				for k := 0; k < 20; k++ {
					from := simulator.Time(rng.Int63n(int64(now)+600)) - 300
					to := from + simulator.Time(rng.Int63n(int64(now)/2+600)) - 60
					step := []simulator.Time{0, simulator.Minute, 15 * simulator.Minute, 2 * simulator.Hour, simulator.Time(rng.Int63n(3 * 3600))}[rng.Intn(5)]
					got, gstep, gok := st.Query(name, from, to, step)
					want, wstep, wok := ref.Query(name, from, to, step)
					if gok != wok || gstep != wstep || !sameSamples(got, want) {
						t.Fatalf("seed %d step %d: Query(%s, %d, %d, %d) = %v step %d ok %v, want %v step %d ok %v",
							seed, i, name, from, to, step, got, gstep, gok, want, wstep, wok)
					}
					op := Op(rng.Intn(int(OpIntegral) + 1))
					gv, gn, gts := st.Reduce(name, from, to, op)
					wv, wn, wts := ref.Reduce(name, from, to, op)
					if math.Float64bits(gv) != math.Float64bits(wv) || gn != wn || gts != wts {
						t.Fatalf("seed %d step %d: Reduce(%s, %d, %d, %d) = %v/%d/%d, want %v/%d/%d",
							seed, i, name, from, to, op, gv, gn, gts, wv, wn, wts)
					}
					if wts > cfg.Step {
						escalated++
					}
					if wn > 0 {
						windows++
					}
				}
			}
		}
	}
	// The caps and windows must reach the cases the windowed reads could
	// get wrong: full rings that evicted, reads served by a coarser tier
	// because the raw one had evicted the window's start, and the block
	// layouts the ring's index arithmetic could get wrong.
	if escalated == 0 || evicted == 0 || windows == 0 || blocks.crossed == 0 || blocks.cycled == 0 {
		t.Fatalf("coverage: %d escalated reductions, %d evicted raw rings, %d non-empty windows, %+v block layouts",
			escalated, evicted, windows, blocks)
	}
}

// TestSampleAllocatesNothingOnceGrown: with the registry unchanged and
// every ring at its cap, a sample allocates nothing.
func TestSampleAllocatesNothingOnceGrown(t *testing.T) {
	reg := metrics.New()
	c := reg.Counter("c")
	reg.Gauge("g").Set(3)
	reg.GaugeFunc("f", func() float64 { return 1 })
	h := reg.Histogram("h", 1, 10)
	sh := reg.SyncHistogram("sh", 1, 10)
	st := New(reg, Config{RawCap: 4, MidCap: 2, LongCap: 2})
	now := simulator.Time(0)
	sample := func() {
		now += simulator.Minute
		c.Inc()
		h.Observe(5)
		sh.Observe(0.5)
		st.Sample(now)
	}
	for i := 0; i < 3*longFactor; i++ {
		sample()
	}
	if a := testing.AllocsPerRun(200, sample); a != 0 {
		t.Fatalf("Sample allocates %.1f times per call once grown, want 0", a)
	}
}

// TestRingMatchesReference pushes through rings of caps around one,
// two and three blocks, including partial last blocks, and requires
// every read to match a single preallocated reference ring after every
// push: samples at each position, oldest and newest, windows, and the
// ring allocating only the blocks it holds, each of its full length (16,
// 16, 32, 64, 128, then 256 samples) but the last one no larger than the
// cap needs.
func TestRingMatchesReference(t *testing.T) {
	for _, c := range []int{1, 2, firstBlock - 1, firstBlock, firstBlock + 1, 3 * firstBlock, 100, blockSize - 1, blockSize, blockSize + 1, 2*blockSize - 3, 2 * blockSize, 2*blockSize + 5, 3*blockSize + 100} {
		r, ref := ring{max: c}, newRefRing(c)
		for p := 1; p <= 3*c+blockSize/2; p++ {
			s := Sample{T: simulator.Time(2 * p), V: float64(p)}
			r.push(s)
			ref.push(s)
			if r.n != ref.n {
				t.Fatalf("cap %d push %d: n = %d, want %d", c, p, r.n, ref.n)
			}
			size, full := 0, 0
			for b := range r.blocks {
				size += len(r.blocks[b])
				full += blockLen(b)
			}
			if last, _ := locate(r.n - 1); len(r.blocks) != last+1 || size != min(full, c) {
				t.Fatalf("cap %d push %d: %d blocks of %d samples in all for %d samples", c, p, len(r.blocks), size, r.n)
			}
			if o, _ := r.oldest(); o != ref.at(0) {
				t.Fatalf("cap %d push %d: oldest %v, want %v", c, p, o, ref.at(0))
			}
			if nw, _ := r.newest(); nw != s {
				t.Fatalf("cap %d push %d: newest %v, want %v", c, p, nw, s)
			}
			// Full comparisons where the layout changes: near block
			// boundaries and at the ring's own boundaries.
			q := (p - 1) % c
			if b, off := locate(q); off > 2 && off < blockLen(b)-2 && q < c-2 && p < 3*c {
				continue
			}
			if got := r.appendRange(nil, 0, r.n); !sameSamples(got, ref.all()) {
				t.Fatalf("cap %d push %d: samples\n%v\nwant\n%v", c, p, got, ref.all())
			}
			lo, hi := ref.at(0).T, s.T
			for _, w := range [][2]simulator.Time{{lo, hi}, {lo - 1, lo}, {lo + 1, hi - 1}, {(lo + hi) / 2, hi + 5}, {hi, hi}} {
				for _, open := range []bool{false, true} {
					i, j := r.window(w[0], w[1], open)
					wi, wj := 0, 0
					for k := 0; k < ref.n; k++ {
						if tk := ref.at(k).T; tk < w[0] || (open && tk == w[0]) {
							wi = k + 1
						}
						if ref.at(k).T <= w[1] {
							wj = k + 1
						}
					}
					if i != wi || j != max(wi, wj) {
						t.Fatalf("cap %d push %d: window(%d, %d, %v) = [%d, %d), want [%d, %d)", c, p, w[0], w[1], open, i, j, wi, max(wi, wj))
					}
				}
			}
		}
	}
}
