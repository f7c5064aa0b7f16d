package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run, in this order in
// BENCHMARK.json.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
	{"admit_ms_p50", "ms"}, {"admit_ms_tail", "ms"},
	{"turnaround_ms_p50", "ms"}, {"turnaround_ms_tail", "ms"},
}

// suiteIDs are the makers' result IDs in report order.
var suiteIDs = []string{
	"T1", "T2", "F1", "F2", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
	"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20",
	"E21", "E22", "E24",
}

// phases is the internal/prof phase taxonomy.
var phases = []string{
	"events", "sched_pass", "sched_reservation", "sched_backfill", "jobs",
	"power", "telemetry", "checkpoint", "pump",
}

// layerMetrics are printed by every traced run. A workload that does not
// exercise a layer reports 0 for it; README.md lists which workload
// measures which metric.
func layerMetrics() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit})
		}
	}
	for _, id := range suiteIDs {
		add("s", "suite."+id+"_s")
	}
	for _, m := range modules {
		add("s", "cpu."+m+"_s")
	}
	add("s", "cpu.go_gc_s", "cpu.go_other_s", "cpu.loadgen_s")
	add("count", "sched.pick_calls")
	add("s", "sched.pick_s")
	add("jobs/pick", "sched.started_per_pick")
	for _, ph := range phases {
		add("s", "phase."+ph+"_s")
		add("count", "phase."+ph+"_calls")
	}
	add("%", "phase.coverage_pct")
	add("count", "sim.events", "sim.jobs_completed", "sim.jobs_killed", "sim.requeues", "sim.ckpts")
	add("s", "setup.build_s", "setup.pump_s")
	add("MB", "go.alloc_mb")
	add("count", "go.allocs")
	add("allocs/job", "go.allocs_per_job")
	add("count", "go.gc_cycles")
	add("s", "go.gc_cpu_s")
	add("ms", "service.queue_wait_ms_p50", "service.exec_ms_p50")
	add("polls/run", "service.polls_per_run")
	add("count", "service.completed", "service.failed", "service.shed")
	add("ms", "http.submit_ms_p50", "http.poll_ms_p50", "http.scrape_ms_p50", "http.report_ms_p50", "server.submit_ms_p50")
	add("count", "http.errors")
	add("count", "journal.appends", "journal.fsyncs")
	add("ms", "journal.fsync_ms_p50")
	add("count", "journal.rotations")
	add("%", "trace.overhead_pct")
	return defs
}

// tracedLayers assembles the per-layer metrics of a traced pass: what the
// workload process measured, its CPU profile folded by module, and the
// tracing overhead against the untraced median wall time.
func tracedLayers(traced passResult, prefix string, untracedWall float64) (map[string]metric, error) {
	cpu, err := foldProfile(prefix + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}
	for _, d := range layerMetrics() {
		v, ok := traced.Layers[d.name]
		if !ok {
			v = cpu[d.name]
		}
		out[d.name] = metric{v, d.unit}
	}
	out["trace.overhead_pct"] = metric{100 * (traced.WallS/untracedWall - 1), "%"}
	return out, nil
}

// layersFile is a traced run's saved per-layer metrics.
type layersFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Metrics  map[string]metric `json:"metrics"`
}

func writeLayers(path, name string, seed uint64, m map[string]metric) error {
	b, err := json.MarshalIndent(layersFile{name, seed, m}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readLayers(path string) (layersFile, error) {
	var f layersFile
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &f)
	}
	if err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// diffMain compares two traced runs' per-layer metrics: within each unit,
// metrics are ranked by absolute change, with both values shown, so a
// regression names the layer that moved.
func diffMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench diff BASE.layers.json NEW.layers.json")
		return 2
	}
	base, err := readLayers(args[0])
	if err == nil {
		var next layersFile
		next, err = readLayers(args[1])
		if err == nil {
			fmt.Print(layerDiff(base, next))
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench diff:", err)
	return 1
}

func layerDiff(base, next layersFile) string {
	type row struct {
		name, unit string
		a, b       float64
	}
	byUnit := map[string][]row{}
	for name, m := range base.Metrics {
		n := next.Metrics[name]
		byUnit[m.Unit] = append(byUnit[m.Unit], row{name, m.Unit, m.Value, n.Value})
	}
	for name, n := range next.Metrics {
		if _, ok := base.Metrics[name]; !ok {
			byUnit[n.Unit] = append(byUnit[n.Unit], row{name, n.Unit, 0, n.Value})
		}
	}
	// Time first: a regression should name the layer whose time moved.
	rank := func(u string) string {
		switch u {
		case "s":
			return "0"
		case "ms":
			return "1"
		}
		return "2" + u
	}
	units := make([]string, 0, len(byUnit))
	for u := range byUnit {
		units = append(units, u)
	}
	sort.Slice(units, func(i, j int) bool { return rank(units[i]) < rank(units[j]) })
	var b strings.Builder
	fmt.Fprintf(&b, "base: %s seed %d   new: %s seed %d\n", base.Workload, base.Seed, next.Workload, next.Seed)
	for _, u := range units {
		rows := byUnit[u]
		sort.Slice(rows, func(i, j int) bool {
			di, dj := math.Abs(rows[i].b-rows[i].a), math.Abs(rows[j].b-rows[j].a)
			if di != dj {
				return di > dj
			}
			return rows[i].name < rows[j].name
		})
		fmt.Fprintf(&b, "\n[%s]\n  %-28s %14s %14s %14s %9s\n", u, "metric", "base", "new", "change", "change%")
		for _, r := range rows {
			pct := "-"
			if r.a != 0 {
				pct = fmt.Sprintf("%+.1f%%", 100*(r.b-r.a)/math.Abs(r.a))
			}
			fmt.Fprintf(&b, "  %-28s %14.6g %14.6g %+14.6g %9s\n", r.name, r.a, r.b, r.b-r.a, pct)
		}
	}
	return b.String()
}
