package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"jobs.completed":      "jobs_completed",
		"power.total_energy":  "power_total_energy",
		"ops:scrapes":         "ops:scrapes",
		"9lives":              "_9lives",
		"":                    "_",
		"a-b c/d":             "a_b_c_d",
		"already_fine_name_1": "already_fine_name_1",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// buildSample constructs the same registry state twice so golden and
// determinism checks share one fixture.
func buildSample() *Registry {
	r := New()
	r.Counter("jobs.done").Add(5)
	r.Gauge("power.cap_w").Set(2500.5)
	r.GaugeFunc("derived.value", func() float64 { return 42 })
	h := r.Histogram("wait.s", 10, 100, 1000)
	for _, v := range []float64{5, 10, 50, 5000} {
		h.Observe(v)
	}
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var b bytes.Buffer
	if err := buildSample().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# TYPE derived_value gauge",
		"derived_value 42",
		"# TYPE jobs_done counter",
		"jobs_done 5",
		"# TYPE power_cap_w gauge",
		"power_cap_w 2500.5",
		"# TYPE wait_s histogram",
		`wait_s_bucket{le="10"} 2`,
		`wait_s_bucket{le="100"} 3`,
		`wait_s_bucket{le="1000"} 3`,
		`wait_s_bucket{le="+Inf"} 4`,
		"wait_s_sum 5065",
		"wait_s_count 4",
		"",
	}, "\n")
	if got := b.String(); got != want {
		t.Fatalf("prometheus exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPrometheusRoundTrip is the scrape contract: everything WritePrometheus
// emits parses back, and every parsed value matches the registry snapshot
// value-for-value (cumulative buckets included).
func TestPrometheusRoundTrip(t *testing.T) {
	r := buildSample()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheusText(&b)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, p := range r.Snapshot() {
		name := SanitizeName(p.Name)
		switch p.Kind {
		case KindHistogram:
			cum := int64(0)
			for i, bound := range p.Bounds {
				cum += p.Counts[i]
				key := name + `_bucket{le="` + trimFloat(bound) + `"}`
				if got := samples[key]; got != float64(cum) {
					t.Errorf("%s = %g, want %d", key, got, cum)
				}
				seen++
			}
			if got := samples[name+`_bucket{le="+Inf"}`]; got != float64(p.Count) {
				t.Errorf("%s +Inf bucket = %g, want %d", name, got, p.Count)
			}
			if got := samples[name+"_sum"]; got != p.Sum {
				t.Errorf("%s_sum = %g, want %g", name, got, p.Sum)
			}
			if got := samples[name+"_count"]; got != float64(p.Count) {
				t.Errorf("%s_count = %g, want %d", name, got, p.Count)
			}
			seen += 3
		default:
			if got, ok := samples[name]; !ok || got != p.Value {
				t.Errorf("%s = %g (present=%v), want %g", name, got, ok, p.Value)
			}
			seen++
		}
	}
	if seen != len(samples) {
		t.Fatalf("parsed %d samples, matched %d against the snapshot", len(samples), seen)
	}
}

func trimFloat(v float64) string {
	var b bytes.Buffer
	(&errWriter{w: &b}).num(v)
	return b.String()
}

// TestWriteJSONCumulativeCounts pins the export shape the satellite fix
// added: cum_counts rides alongside counts, sum, and count.
func TestWriteJSONCumulativeCounts(t *testing.T) {
	var b bytes.Buffer
	if err := buildSample().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"cum_counts": [2, 3, 3, 4]`) {
		t.Fatalf("JSON export missing cumulative buckets:\n%s", out)
	}
	if !strings.Contains(out, `"sum": 5065`) || !strings.Contains(out, `"count": 4`) {
		t.Fatalf("JSON export missing sum/count:\n%s", out)
	}
}

// TestPrometheusRoundTripEdges covers the exposition corners the main
// round-trip fixture misses: an empty registry, a histogram nobody has
// observed, and names that only become valid after sanitization.
func TestPrometheusRoundTripEdges(t *testing.T) {
	t.Run("empty registry", func(t *testing.T) {
		var b bytes.Buffer
		if err := New().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if b.Len() != 0 {
			t.Fatalf("empty registry rendered %q, want nothing", b.String())
		}
		samples, err := ParsePrometheusText(&b)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 0 {
			t.Fatalf("parsed %d samples from an empty exposition", len(samples))
		}
	})

	t.Run("zero-observation histogram", func(t *testing.T) {
		r := New()
		r.Histogram("wait.s", 10, 100)
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		samples, err := ParsePrometheusText(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("zero-observation histogram does not parse:\n%s\n%v", b.String(), err)
		}
		// Every series must exist with value 0 — a scraper that sees the
		// metric disappear between scrapes misreads it as a reset.
		for _, key := range []string{
			`wait_s_bucket{le="10"}`, `wait_s_bucket{le="100"}`,
			`wait_s_bucket{le="+Inf"}`, "wait_s_sum", "wait_s_count",
		} {
			got, ok := samples[key]
			if !ok {
				t.Fatalf("%s missing from zero-observation exposition:\n%s", key, b.String())
			}
			if got != 0 {
				t.Fatalf("%s = %g, want 0", key, got)
			}
		}
	})

	t.Run("sanitized names", func(t *testing.T) {
		r := New()
		r.Counter("9ops.weird-name/v2").Add(3)
		r.Gauge("power cap (w)").Set(7)
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		samples, err := ParsePrometheusText(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got := samples["_9ops_weird_name_v2"]; got != 3 {
			t.Fatalf("_9ops_weird_name_v2 = %g, want 3 (samples: %v)", got, SampleNames(samples))
		}
		if got := samples["power_cap__w_"]; got != 7 {
			t.Fatalf("power_cap__w_ = %g, want 7 (samples: %v)", got, SampleNames(samples))
		}
		// The raw names must not leak into the exposition.
		if s := b.String(); strings.Contains(s, "9ops.weird") || strings.Contains(s, "power cap") {
			t.Fatalf("unsanitized name leaked into exposition:\n%s", s)
		}
	})

	t.Run("parse failures", func(t *testing.T) {
		for _, bad := range []string{"lonely_name", "x notanumber", "dup 1\ndup 2"} {
			if _, err := ParsePrometheusText(strings.NewReader(bad)); err == nil {
				t.Errorf("ParsePrometheusText(%q) succeeded, want error", bad)
			}
		}
	})
}
