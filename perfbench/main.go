// Command perfbench is the repository benchmark. It runs one workload in
// fresh child processes for a fixed measuring time, checks every output
// against recorded or independently computed expectations, and prints
// the end-to-end metrics — or, with --trace 1, the per-layer metrics of
// one extra traced pass — as a JSON object on the last line of standard
// output. Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh diff BASE.layers.json NEW.layers.json
//	bash perfbench/run.sh record
//
// Workloads:
//
//	suite       every experiments.Makers() entry in report order, runner procs 1
//	hollow-10k  scale.DefaultConfig(10000, seed): Build, Pump, Manager.Run(-1)
//	service     an in-process service (journal on, fsync on) under a
//	            closed loop of 2 clients
//
// Every pass runs in its own process with GOMAXPROCS=2, so peak RSS is
// that of a process that ran only the workload; set-up is also sampled
// in set-up-only processes, and every service pass gets a fresh journal
// dir. README.md gives the metric definitions and workload rationale.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"epajsrm/internal/scale"
)

// pinnedProcs is GOMAXPROCS for every workload process.
const pinnedProcs = 2

// outDir holds everything a run writes, relative to the checkout root.
const outDir = ".bench_build"

// setupRuns is how many set-up-only processes a run starts per
// workload, on top of the set-up every pass performs.
var setupRuns = map[string]int{"suite": 15, "hollow-10k": 6, "service": 10}

var workloads = []string{"suite", "hollow-10k", "service"}

// passResult is what one workload process reports to the orchestrator.
type passResult struct {
	SetupS     float64   `json:"setup_s"`
	WallS      float64   `json:"wall_s"`
	PeakRSSMB  float64   `json:"peak_rss_mb"`
	Admit      []float64 `json:"admit_ms"`      // per succeeded unit
	Turnaround []float64 `json:"turnaround_ms"` // per succeeded unit
	// UnitMS holds each unit's own time when the units are the same work
	// in every pass: the suite's makers, hollow-10k's Picks.
	UnitMS    []float64          `json:"unit_ms,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Missed    int                `json:"missed"` // failed units: they miss every latency limit
	Problems  []string           `json:"problems,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	// Observed outputs, for `perfbench record`: maker digests (suite),
	// run counts (hollow-10k), standalone report digests (service).
	Outputs map[string]string `json:"outputs,omitempty"`
	Hollow  *hollowOutcome    `json:"hollow,omitempty"`
	Reports []string          `json:"reports,omitempty"`
}

// fail counts a failed operation; unit marks it as one of the pass's
// timed units, whose latencies then count as missed.
func (r *passResult) fail(unit bool, msg string) {
	r.Failed++
	if unit {
		r.Missed++
	}
	if len(r.Problems) < 5 {
		r.Problems = append(r.Problems, msg)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "diff":
			os.Exit(diffMain(os.Args[2:]))
		case "record":
			os.Exit(recordMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "suite, hollow-10k or service")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("benchmark seed: %d (default) or %d (held out) run that workload seed, any other value the default", defaultSeed, heldOutSeed))
	seconds := fs.Int("seconds", 40, "measuring time per run")
	trace := fs.Int("trace", 0, "1: add one traced pass and print the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := setupRuns[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1 and --trace 0|1\n", workloads)
		return 2
	}
	out, err := bench(*name, workloadSeed(*seed), time.Duration(*seconds)*time.Second, *trace == 1)
	if err == nil {
		var b []byte
		if b, err = json.Marshal(out); err == nil {
			fmt.Println(string(b))
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// bench measures one run of workload name: set-up-only processes, then
// passes for about budget, then, traced, one more pass with every
// instrument on.
func bench(name string, seed uint64, budget time.Duration, traced bool) (result, error) {
	var out result
	exe, err := os.Executable()
	if err != nil {
		return out, err
	}
	tmp, err := filepath.Abs(filepath.Join(outDir, "tmp"))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err != nil {
		return out, err
	}
	run := func(mode, prefix string) (passResult, error) {
		args := []string{"child", "-workload", name, "-seed", seedKey(seed), "-mode", mode, "-tmp", tmp}
		if prefix != "" {
			args = append(args, "-trace-prefix", prefix)
		}
		r, err := spawn(exe, args, name == "suite")
		if err != nil {
			return r, fmt.Errorf("%s process: %w", mode, err)
		}
		return r, nil
	}
	fmt.Printf("perfbench %s: workload seed %d, %v, GOMAXPROCS=%d, one process per pass\n",
		name, seed, budget, pinnedProcs)

	begin := time.Now()
	var setups []float64
	for i := 0; i < setupRuns[name]; i++ {
		r, err := run("setup", "")
		if err != nil {
			return out, err
		}
		setups = append(setups, r.SetupS)
	}
	// The first pass sizes the run: as many passes as fit the budget at
	// its pace, at least one.
	var passes []passResult
	for want := 1; len(passes) < want; {
		r, err := run("pass", "")
		if err != nil {
			return out, err
		}
		passes = append(passes, r)
		setups = append(setups, r.SetupS)
		if len(passes) == 1 {
			want = max(1, int(math.Round(float64(budget)/float64(time.Since(begin)))))
		}
	}
	out.Metrics = endToEnd(name, passes, setups)
	printTimings(name, passes, setups)

	all := passes
	if traced {
		dir, err := filepath.Abs(filepath.Join(outDir, "traced"))
		if err == nil {
			err = os.MkdirAll(dir, 0o755)
		}
		if err != nil {
			return out, err
		}
		prefix := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
		r, err := run("pass", prefix)
		if err != nil {
			return out, err
		}
		all = append(all, r)
		if out.Metrics, err = tracedLayers(r, prefix, out.Metrics["wall_s"].Value); err != nil {
			return out, err
		}
		if err := writeLayers(prefix+".layers.json", name, seed, out.Metrics); err != nil {
			return out, err
		}
		fmt.Printf("traced pass: %s.{layers,spans}.json, %s.cpu.pprof\n", prefix, prefix)
	}
	for _, p := range all {
		out.Attempted += p.Attempted
		out.Failed += p.Failed
		for _, msg := range p.Problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
		}
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// missedMS stands in for a latency percentile that lands on a failed
// unit (+Inf), which JSON cannot carry.
const missedMS = 1e12

func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return missedMS
	}
	return v
}

// perPass maps every pass through f.
func perPass(passes []passResult, f func(passResult) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

// foldMatched folds passes whose units are the same work in every pass
// into one pass of per-unit medians, so a host stall shorter than a
// pass slows one sample of the few units it overlaps instead of a whole
// pass. Suite makers run back to back on the one-proc runner, as if all
// were handed to it at once: a maker's admit time is its wait for the
// makers before it, its turnaround that wait plus its own time, and the
// pass's wall time their sum. Hollow-10k's units are its Picks, the
// site's admission decisions; its one turnaround unit is the pass.
func foldMatched(name string, passes []passResult) passResult {
	out := passResult{}
	med := make([]float64, len(passes[0].UnitMS))
	var walls, turns []float64
	for _, p := range passes {
		if len(p.UnitMS) != len(med) {
			// Only a failed pass does different work; keep the failure.
			return passResult{Missed: max(1, p.Missed), WallS: p.WallS}
		}
		out.Missed = max(out.Missed, p.Missed)
		walls = append(walls, p.WallS)
		turns = append(turns, p.Turnaround...)
	}
	for i := range med {
		med[i] = median(perPass(passes, func(p passResult) float64 { return p.UnitMS[i] }))
	}
	if name != "suite" {
		out.Admit, out.WallS = med, median(walls)
		if len(turns) > 0 {
			out.Turnaround = []float64{median(turns)}
		}
		return out
	}
	var t float64
	for _, d := range med[:len(med)-out.Missed] {
		out.Admit = append(out.Admit, t)
		t += d
		out.Turnaround = append(out.Turnaround, t)
	}
	out.WallS = t / 1e3
	return out
}

// reduce returns the passes the latency metrics are taken over: one
// folded pass for index-matched units, else the passes themselves.
func reduce(name string, passes []passResult) []passResult {
	if len(passes[0].UnitMS) > 0 {
		return []passResult{foldMatched(name, passes)}
	}
	return passes
}

// admitMS and turnMS are a pass's unit latencies, failed units as +Inf.
func admitMS(p passResult) []float64 { return withFailures(p.Admit, p.Missed) }
func turnMS(p passResult) []float64  { return withFailures(p.Turnaround, p.Missed) }

// statPerPass applies stat to each pass's latencies.
func statPerPass(passes []passResult, lat func(passResult) []float64, stat func([]float64) float64) []float64 {
	return perPass(passes, func(p passResult) float64 { return stat(lat(p)) })
}

// endToEnd reduces the untraced passes to the end-to-end metrics: the
// median over passes of each pass's value, and of the set-up samples.
func endToEnd(name string, passes []passResult, setups []float64) map[string]metric {
	rss := median(perPass(passes, func(p passResult) float64 { return p.PeakRSSMB }))
	passes = reduce(name, passes)
	lat := func(l func(passResult) []float64, stat func([]float64) float64) float64 {
		return finite(median(statPerPass(passes, l, stat)))
	}
	vals := map[string]float64{
		"wall_s":             median(perPass(passes, func(p passResult) float64 { return p.WallS })),
		"setup_s":            median(setups),
		"peak_rss_mb":        rss,
		"admit_ms_p50":       lat(admitMS, median),
		"admit_ms_tail":      lat(admitMS, tail),
		"turnaround_ms_p50":  lat(turnMS, median),
		"turnaround_ms_tail": lat(turnMS, tail),
	}
	out := map[string]metric{}
	for _, d := range endToEndMetrics {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

// printTimings prints every timing behind the end-to-end metrics with
// its sample count, median and quartiles.
func printTimings(name string, passes []passResult, setups []float64) {
	row := func(what string, xs []float64) {
		fmt.Printf("  %-34s n=%-6d median=%-12.6g q1=%-12.6g q3=%-12.6g\n",
			what, len(xs), median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
	}
	fmt.Println("timings:")
	row("setup_s, per set-up", setups)
	row("wall_s, per pass", perPass(passes, func(p passResult) float64 { return p.WallS }))
	row("peak_rss_mb, per pass", perPass(passes, func(p passResult) float64 { return p.PeakRSSMB }))
	if len(passes[0].UnitMS) > 0 {
		var units []float64
		for _, p := range passes {
			units = append(units, p.UnitMS...)
		}
		row("unit_ms, per unit and pass", units)
	} else {
		row("admit_ms_p50, per pass", statPerPass(passes, admitMS, median))
		row("admit_ms_tail, per pass", statPerPass(passes, admitMS, tail))
		row("turnaround_ms_p50, per pass", statPerPass(passes, turnMS, median))
		row("turnaround_ms_tail, per pass", statPerPass(passes, turnMS, tail))
	}
	for _, p := range reduce(name, passes) {
		admit, turn := admitMS(p), turnMS(p)
		row(fmt.Sprintf("admit_ms, per unit (tail = p%.4g)", tailPct(len(admit))), admit)
		row(fmt.Sprintf("turnaround_ms, per unit (tail = p%.4g)", tailPct(len(turn))), turn)
	}
}

// spawn runs one workload process and returns its report. The process
// prints "ready" first thing in main; for the suite, whose set-up is
// process and package init, the time from spawn to that line is the
// pass's set-up.
func spawn(exe string, args []string, setupIsStart bool) (passResult, error) {
	var res passResult
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(pinnedProcs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return res, err
	}
	var ready time.Duration
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<16), 64<<20)
	for sc.Scan() {
		if ready == 0 && sc.Text() == "ready" {
			ready = time.Since(t0)
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return res, err
	}
	if scanErr != nil {
		return res, scanErr
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("workload process output: %w", err)
	}
	if setupIsStart {
		res.SetupS = ready.Seconds()
	}
	return res, nil
}

func childMain(args []string) int {
	// First thing in main, after package init: the parent times process
	// start-up to this line.
	fmt.Println("ready")
	runtime.GOMAXPROCS(pinnedProcs)
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	seed := fs.Uint64("seed", defaultSeed, "")
	mode := fs.String("mode", "pass", "setup, pass or record")
	tmp := fs.String("tmp", "", "directory for journals")
	prefix := fs.String("trace-prefix", "", "trace the pass; write outputs under this path prefix")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exp, err := loadExpectations()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := runChild(*name, *seed, *mode, *tmp, *prefix, exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.PeakRSSMB = scale.PeakRSSMB()
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
