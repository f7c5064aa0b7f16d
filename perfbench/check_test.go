package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// One altered report byte fails the cycle that fetched it, and the
// failed cycle counts as a missed unit of the pass.
func TestAlteredReportByteIsAFailure(t *testing.T) {
	spec := serviceSpecs(defaultSeed)[0]
	want, err := standaloneReport(spec)
	if err != nil {
		t.Fatal(err)
	}
	base, stop, err := startService(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := stop(); err != nil {
			t.Error(err)
		}
	}()
	c := newClient(base, "tenant-0", nil)
	defer c.hc.CloseIdleConnections()

	if cr := c.cycle(spec, want, "ok", 0); cr.problem != "" {
		t.Fatalf("exact report: %s", cr.problem)
	}
	altered := append([]byte(nil), want...)
	altered[len(altered)/2] ^= 1
	cr := c.cycle(spec, altered, "altered", 0)
	if !strings.Contains(cr.problem, "differs from standalone") {
		t.Fatalf("altered report byte not caught: %q", cr.problem)
	}
	res := passResult{Attempted: 1}
	tally(&res, [][]cycleResult{{cr}}, nil)
	if res.Failed != 1 || res.Missed != 1 || len(res.Admit) != 0 {
		t.Fatalf("failed=%d missed=%d admits=%d, want 1, 1, 0", res.Failed, res.Missed, len(res.Admit))
	}
}

// A shed submission (429) is a failed operation whose latency misses
// every limit.
func TestShedSubmitIsAFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"run table full","code":429}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := newClient(srv.URL, "tenant-0", nil)
	defer c.hc.CloseIdleConnections()
	cr := c.cycle(serviceSpecs(defaultSeed)[0], nil, "shed", 0)
	if !strings.Contains(cr.problem, "status 429") {
		t.Fatalf("429 not caught: %q", cr.problem)
	}
	res := passResult{Attempted: 2}
	ok := cr
	ok.problem, ok.admit, ok.turn = "", 5e6, 5e7
	tally(&res, [][]cycleResult{{cr, ok}}, nil)
	if res.Failed != 1 || res.Missed != 1 {
		t.Fatalf("failed=%d missed=%d, want 1, 1", res.Failed, res.Missed)
	}
	m := endToEnd("service", []passResult{res}, []float64{1})
	if got := m["admit_ms_tail"].Value; got != missedMS {
		t.Fatalf("admit tail with a shed request = %v, want %v", got, missedMS)
	}
}

// A run that does not drain fails even when nothing was recorded for
// it, and a drained run must still match the record exactly.
func TestUndrainedRunIsAFailure(t *testing.T) {
	want := hollowOutcome{Completed: 100, Requeues: 3, Ckpts: 40, Events: 900}
	if bad := checkHollow(want, 100, &want); len(bad) != 0 {
		t.Fatalf("matching drained run flagged: %v", bad)
	}
	undrained := want
	undrained.Completed = 99
	bad := checkHollow(undrained, 100, &undrained)
	if len(bad) != 1 || !strings.Contains(bad[0], "did not drain") {
		t.Fatalf("undrained run not caught: %v", bad)
	}
	moved := want
	moved.Events++
	if bad := checkHollow(moved, 100, &want); len(bad) != 1 {
		t.Fatalf("changed event count not caught: %v", bad)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 250)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs); got != 240 {
		t.Fatalf("tail of 1..250 = %v, want 240 (10 samples beyond)", got)
	}
	if got := tailPct(250); got != 96 {
		t.Fatalf("tailPct(250) = %v, want 96", got)
	}
	if got := tail([]float64{3, 1, 2}); got != 3 {
		t.Fatalf("tail of 3 samples = %v, want the max", got)
	}
	if got := median(withFailures([]float64{1, 2}, 1)); got != 2 {
		t.Fatalf("median with one failure = %v, want 2", got)
	}
	if got := median(withFailures([]float64{1}, 1)); !math.IsInf(got, 1) {
		t.Fatalf("median with half the units failed = %v, want +Inf", got)
	}
	if got := tail(withFailures(xs, 11)); !math.IsInf(got, 1) {
		t.Fatalf("tail with 11 failures = %v, want +Inf", got)
	}
}

func TestFoldRaw(t *testing.T) {
	raw := `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2 3
          1   10000000: 4 3
          2   20000000: 5 6
          1   10000000: 7
Locations
     1: 0x1 M=1 runtime.mallocgc /go/src/runtime/malloc.go:1:0 s=0
     2: 0x2 M=1 epajsrm/internal/core.(*Manager).Running /x/manager.go:1:0 s=0
             epajsrm/internal/policy.(*DynamicPowerSharing).nodeDemand /x/share.go:1:0 s=0
     3: 0x3 M=1 main.suitePass /x/suite.go:1:0 s=0
     4: 0x4 M=1 encoding/json.Unmarshal /go/src/encoding/json/decode.go:1:0 s=0
     5: 0x5 M=1 runtime.scanobject /go/src/runtime/mgcmark.go:1:0 s=0
     6: 0x6 M=1 runtime.gcBgMarkWorker /go/src/runtime/mgc.go:1:0 s=0
     7: 0x7 M=1 runtime.futex /go/src/runtime/os_linux.go:1:0 s=0
Mappings
1: 0x0/0x0/0x0 /bin/x
`
	got, err := foldRaw([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cpu.core_s": 0.03, "cpu.loadgen_s": 0.01, "cpu.go_gc_s": 0.02, "cpu.go_other_s": 0.01}
	if len(got) != len(want) {
		t.Fatalf("folded %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Fatalf("%s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
}

func TestLayerDiffRanksByAbsoluteChange(t *testing.T) {
	base := layersFile{Workload: "hollow-10k", Seed: 1, Metrics: map[string]metric{
		"phase.jobs_s": {1, "s"}, "phase.sched_reservation_s": {5, "s"}, "sim.events": {10, "count"},
	}}
	next := layersFile{Workload: "hollow-10k", Seed: 1, Metrics: map[string]metric{
		"phase.jobs_s": {1.5, "s"}, "phase.sched_reservation_s": {3, "s"}, "sim.events": {10, "count"},
	}}
	out := layerDiff(base, next)
	res := strings.Index(out, "phase.sched_reservation_s")
	jobs := strings.Index(out, "phase.jobs_s")
	if res < 0 || jobs < 0 || res > jobs {
		t.Fatalf("reservation (-2 s) should rank above jobs (+0.5 s):\n%s", out)
	}
	if !strings.Contains(out, "-40.0%") {
		t.Fatalf("change percent missing:\n%s", out)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the
// benchmark prints.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads %v, benchmark runs %v", names, workloads)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), benchmark prints %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEndMetrics)
	check("per_layer", bench.PerLayer, layerMetrics())
}
