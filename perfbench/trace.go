package main

// The traced run's instruments. Everything here measures from outside
// the program: spans around the benchmark's own calls into each layer,
// runtime/metrics deltas, and a CPU profile folded onto the internal/
// modules after the run.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	rtm "runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Service spans carry the hosted
// run ID and the X-Request-Id they sent, which joins them to the
// service's access log.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Run    string  `json:"run,omitempty"`
	Req    string  `json:"req,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes run the same code with no spans.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// open starts a span and returns its ID (0 on a nil tracer).
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.us(now)})
	return len(t.spans)
}

// close ends span id, tagging it with a run ID and request ID when given.
func (t *tracer) close(id int, run, req string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Run, s.Req = t.us(now), run, req
}

// add records a finished span with explicit bounds.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.us(start), End: t.us(end)})
}

// seconds returns the total duration of the spans named name.
func (t *tracer) seconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += (s.End - s.Start) / 1e6
		}
	}
	return sum
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runtimeDelta samples the runtime counters the go.* layer metrics are
// deltas of.
type runtimeDelta struct{ before []rtm.Sample }

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() []rtm.Sample {
	s := make([]rtm.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rtm.Read(s)
	return s
}

func startRuntimeDelta() *runtimeDelta { return &runtimeDelta{before: readRuntime()} }

// finish writes the go.* metrics into layers; jobs > 0 adds the
// allocations-per-job ratio.
func (d *runtimeDelta) finish(layers map[string]float64, jobs int) {
	after := readRuntime()
	val := func(s rtm.Sample) float64 {
		if s.Value.Kind() == rtm.KindUint64 {
			return float64(s.Value.Uint64())
		}
		return s.Value.Float64()
	}
	delta := make([]float64, len(after))
	for i := range after {
		delta[i] = val(after[i]) - val(d.before[i])
	}
	layers["go.alloc_mb"] = delta[0] / (1 << 20)
	layers["go.allocs"] = delta[1]
	layers["go.gc_cycles"] = delta[2]
	layers["go.gc_cpu_s"] = delta[3]
	if jobs > 0 {
		layers["go.allocs_per_job"] = delta[1] / float64(jobs)
	}
}

// startCPUProfile profiles the process into path until the returned
// stop function runs.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// modules are the program's internal/ packages; each gets a
// cpu.<module>_s metric.
var modules = []string{
	"alert", "checkpoint", "cluster", "core", "esp", "experiments", "fault",
	"flight", "jobs", "journal", "metrics", "monitor", "ops", "policy",
	"power", "predict", "prof", "report", "runner", "runreport", "scale",
	"sched", "service", "simulator", "site", "stats", "survey", "trace",
	"tsdb", "workload",
}

// gcFrames are the roots of the runtime's background GC goroutines.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// foldProfile charges every sample of a CPU profile to the innermost
// frame of the program (epajsrm/internal/<module>) or of the benchmark
// itself (package main: the load generator and harness). Allocation and
// map work therefore land on the module that called them. Samples with
// neither go to cpu.go_gc_s when a GC worker is on the stack and to
// cpu.go_other_s otherwise. It reads the profile with the installed
// `go tool pprof -raw`.
func foldProfile(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-raw", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -raw %s: %w", path, err)
	}
	return foldRaw(out)
}

func foldRaw(raw []byte) (map[string]float64, error) {
	type sample struct {
		ns   float64
		locs []string
	}
	var samples []sample
	frames := map[string][]string{} // location ID -> functions, innermost first
	section, lastLoc := "", ""
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSuffix(strings.TrimSpace(line), ":")
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch section {
		case "Samples":
			// "<count> <nanoseconds>: <loc> <loc> ...", leaf first.
			if len(f) < 3 || !strings.HasSuffix(f[1], ":") {
				continue
			}
			ns, err := strconv.ParseFloat(strings.TrimSuffix(f[1], ":"), 64)
			if err != nil {
				continue
			}
			samples = append(samples, sample{ns: ns, locs: f[2:]})
		case "Locations":
			if strings.HasSuffix(f[0], ":") {
				// "<id>: <addr> [M=<n>] <function> <file:line> s=<n>"
				lastLoc = strings.TrimSuffix(f[0], ":")
				rest := f[1:]
				if len(rest) > 0 && strings.HasPrefix(rest[0], "0x") {
					rest = rest[1:]
				}
				if len(rest) > 0 && strings.HasPrefix(rest[0], "M=") {
					rest = rest[1:]
				}
				frames[lastLoc] = nil
				if len(rest) > 0 {
					frames[lastLoc] = append(frames[lastLoc], rest[0])
				}
			} else if lastLoc != "" {
				// An inlined caller of the previous line's function.
				frames[lastLoc] = append(frames[lastLoc], f[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("pprof -raw: no samples")
	}
	cpu := map[string]float64{}
	for _, s := range samples {
		owner, gc := "", false
		for _, id := range s.locs {
			for _, fn := range frames[id] {
				if owner == "" {
					owner = frameOwner(fn)
				}
				for _, g := range gcFrames {
					if strings.HasPrefix(fn, g) {
						gc = true
					}
				}
			}
		}
		switch {
		case owner != "":
		case gc:
			owner = "go_gc"
		default:
			owner = "go_other"
		}
		cpu["cpu."+owner+"_s"] += s.ns / 1e9
	}
	return cpu, nil
}

// frameOwner maps a function name to the module charged for it, or ""
// for a frame outside the program and the benchmark.
func frameOwner(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "loadgen"
	}
	rest, ok := strings.CutPrefix(fn, "epajsrm/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range modules {
		if m == rest {
			return m
		}
	}
	return ""
}
