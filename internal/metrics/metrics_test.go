package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("jobs.done")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.Gauge("power.cap_w")
	g.Set(2500)
	g.Add(-500)
	if got := g.Value(); got != 2000 {
		t.Fatalf("gauge = %g, want 2000", got)
	}

	h := r.Histogram("wait.s", 10, 100, 1000)
	for _, v := range []float64{5, 10, 50, 5000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 5065 {
		t.Fatalf("hist count/sum = %d/%g, want 4/5065", h.Count(), h.Sum())
	}
	_, counts := h.Buckets()
	want := []int64{2, 1, 0, 1} // <=10: 5,10; <=100: 50; <=1000: none; overflow: 5000
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
	if m := h.Mean(); m != 5065.0/4 {
		t.Fatalf("mean = %g", m)
	}
}

func TestRegisterAdoptsStandaloneCounter(t *testing.T) {
	c := NewCounter()
	c.Add(7)
	r := New()
	r.Register("fault.crashes", c)
	c.Inc()
	if got := r.Value("fault.crashes"); got != 8 {
		t.Fatalf("adopted counter = %g, want 8", got)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := New()
	x := 1.5
	r.GaugeFunc("derived", func() float64 { return x * 2 })
	if got := r.Value("derived"); got != 3 {
		t.Fatalf("func gauge = %g, want 3", got)
	}
	x = 4
	if got := r.Value("derived"); got != 8 {
		t.Fatalf("func gauge = %g, want 8 after update", got)
	}
}

func TestSnapshotSortedAndJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.Counter("z.last").Add(3)
		r.Gauge("a.first").Set(1.25)
		h := r.Histogram("m.middle", 1, 2)
		h.Observe(0.5)
		h.Observe(3)
		r.GaugeFunc("b.func", func() float64 { return 42 })
		return r
	}
	r := build()
	snap := r.Snapshot()
	names := []string{"a.first", "b.func", "m.middle", "z.last"}
	if len(snap) != len(names) {
		t.Fatalf("snapshot has %d points, want %d", len(snap), len(names))
	}
	for i, n := range names {
		if snap[i].Name != n {
			t.Fatalf("snapshot[%d] = %q, want %q", i, snap[i].Name, n)
		}
	}

	var b1, b2 bytes.Buffer
	if err := r.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("two identical registries exported different bytes:\n%s\n---\n%s", b1.String(), b2.String())
	}
	var parsed map[string]map[string]any
	if err := json.Unmarshal(b1.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, b1.String())
	}
	if parsed["z.last"]["value"].(float64) != 3 {
		t.Fatalf("z.last = %v", parsed["z.last"])
	}
	if parsed["m.middle"]["count"].(float64) != 2 {
		t.Fatalf("m.middle = %v", parsed["m.middle"])
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := New()
	r.Counter("x")
	r.Counter("x")
}

func TestUnknownValueIsZero(t *testing.T) {
	if got := New().Value("nope"); got != 0 {
		t.Fatalf("unknown metric = %g, want 0", got)
	}
}

// TestHandlesMatchSnapshot: handles come sorted by name, read the values
// a Snapshot reports (histogram quantiles and counts included, for both
// histogram kinds), and the generation moves on every registration.
func TestHandlesMatchSnapshot(t *testing.T) {
	r := New()
	gens := []uint64{r.Generation()}
	r.Counter("b.count").Add(7)
	gens = append(gens, r.Generation())
	r.Gauge("a.gauge").Set(-2.5)
	r.GaugeFunc("c.func", func() float64 { return 42 })
	h := r.Histogram("d.hist", 1, 10, 100)
	sh := r.SyncHistogram("e.sync", 1, 10, 100)
	for _, v := range []float64{0.5, 3, 30, 300, 7} {
		h.Observe(v)
		sh.Observe(v * 2)
	}
	gens = append(gens, r.Generation())
	if gens[0] != 0 || gens[1] != 1 || gens[2] != 5 {
		t.Fatalf("generations %v, want [0 1 5]", gens)
	}
	hs, gen := r.Handles()
	if gen != 5 {
		t.Fatalf("Handles generation = %d, want 5", gen)
	}
	snap := r.Snapshot()
	if len(hs) != len(snap) {
		t.Fatalf("%d handles, %d snapshot points", len(hs), len(snap))
	}
	qs := []float64{0.5, 0.95, 0.99}
	for i, p := range snap {
		hd := &hs[i]
		if hd.Name != p.Name || hd.Kind != p.Kind || hd.Value() != p.Value {
			t.Fatalf("handle %d = %s %v %g, snapshot %s %v %g", i, hd.Name, hd.Kind, hd.Value(), p.Name, p.Kind, p.Value)
		}
		out := make([]float64, len(qs))
		n := hd.Quantiles(qs, out)
		if n != p.Count {
			t.Fatalf("%s: Quantiles count %d, snapshot %d", p.Name, n, p.Count)
		}
		for k, q := range qs {
			if out[k] != p.Quantile(q) {
				t.Fatalf("%s: q%g = %g, snapshot %g", p.Name, q, out[k], p.Quantile(q))
			}
		}
	}
}
