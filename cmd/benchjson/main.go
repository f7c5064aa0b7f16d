// Command benchjson reads `go test -bench` output on stdin, echoes it
// unchanged to stdout, and writes a structured JSON record of the run to
// -out. The record keeps the raw text verbatim (the "raw" field), so the
// benchstat-compatible form is always recoverable:
//
//	jq -r .raw BENCH_2026-01-01.json | benchstat /dev/stdin
//
// The parsed form exposes per-benchmark metrics (ns/op, B/op, allocs/op,
// and any custom units) for trend tooling that prefers JSON.
//
// Usage:
//
//	go test -bench=. -benchmem -count=1 -run '^$' . | benchjson -out BENCH_<date>.json
//
// With -diff, benchjson instead compares two records it previously wrote
// and reports per-benchmark deltas on ns/op, B/op and allocs/op. When a
// record holds several samples of one benchmark (go test -count=N), each
// side is the per-metric median of its samples, so one noisy sample moves
// neither the baseline nor the candidate. A regression beyond -threshold
// percent on any compared metric makes the exit status non-zero, which is
// how CI gates hot-path benchmarks against the last committed baseline:
//
//	benchjson -diff -threshold 10 -bench BenchmarkEngineEventThroughput,BenchmarkSchedulerPickEASY old.json new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// Record is the file schema.
type Record struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Raw        string      `json:"raw"`
}

func main() {
	out := flag.String("out", "", "path to write the JSON record (required unless -diff)")
	diff := flag.Bool("diff", false, "compare two JSON records: benchjson -diff [flags] old.json new.json")
	threshold := flag.Float64("threshold", 10, "with -diff: fail on regressions beyond this percent")
	benchFilter := flag.String("bench", "", "with -diff: comma-separated benchmark names to compare (default: all common)")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two record files (old.json new.json)")
			os.Exit(2)
		}
		oldRec, err := loadRecord(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		newRec, err := loadRecord(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		report, breaches := diffRecords(oldRec, newRec, *threshold, splitFilter(*benchFilter))
		fmt.Print(report)
		if breaches > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) beyond %.1f%%\n", breaches, *threshold)
			os.Exit(1)
		}
		return
	}

	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -out is required")
		os.Exit(2)
	}

	var rec Record
	var raw strings.Builder
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		raw.WriteString(line)
		raw.WriteByte('\n')

		switch {
		case strings.HasPrefix(line, "goos: "):
			rec.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rec.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rec.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rec.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				rec.Benchmarks = append(rec.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rec.Raw = raw.String()

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rec.Benchmarks), *out)
}

// loadRecord reads a JSON record written by a previous benchjson run.
func loadRecord(path string) (Record, error) {
	var rec Record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// normalizeName strips the trailing "-<GOMAXPROCS>" suffix go test appends
// when it runs with more than one CPU, so records taken on different
// machines (or with different -cpu settings) still line up by name.
func normalizeName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

func splitFilter(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// diffMetrics are the units compared, in report order; for all of them
// larger is worse, so a regression is new > old * (1 + threshold/100).
var diffMetrics = []string{"ns/op", "B/op", "allocs/op"}

// diffRecords compares the benchmarks common to both records (or the ones
// named in filter) and returns a human-readable report plus the number of
// metrics that regressed beyond threshold percent. Each side of a metric is
// the median over that record's samples of the benchmark. Benchmarks named
// in the filter but missing from either record count as breaches — a CI
// gate must not pass because the benchmark it guards silently disappeared.
func diffRecords(oldRec, newRec Record, threshold float64, filter []string) (string, int) {
	oldBy, _ := samplesByName(oldRec)
	newBy, order := samplesByName(newRec)

	var sb strings.Builder
	breaches := 0
	names := order
	if len(filter) > 0 {
		names = filter
	}
	fmt.Fprintf(&sb, "%-50s %-10s %14s %14s %9s %7s\n", "benchmark", "metric", "old median", "new median", "delta", "samples")
	for _, name := range names {
		nb, okNew := newBy[name]
		ob, okOld := oldBy[name]
		if !okNew || !okOld {
			if len(filter) > 0 {
				fmt.Fprintf(&sb, "%-50s %-10s missing from %s record: BREACH\n",
					name, "-", missingSide(okOld, okNew))
				breaches++
			}
			continue
		}
		for _, metric := range diffMetrics {
			ov, on := median(ob, metric)
			nv, nn := median(nb, metric)
			if on == 0 || nn == 0 {
				continue
			}
			deltaPct := 0.0
			if ov != 0 {
				deltaPct = 100 * (nv - ov) / ov
			} else if nv != 0 {
				deltaPct = 100
			}
			mark := ""
			if deltaPct > threshold {
				mark = "  REGRESSION"
				breaches++
			}
			fmt.Fprintf(&sb, "%-50s %-10s %14.2f %14.2f %+8.1f%% %3d/%-3d%s\n", name, metric, ov, nv, deltaPct, on, nn, mark)
		}
	}
	return sb.String(), breaches
}

// samplesByName groups a record's samples by normalized benchmark name and
// lists the names in first-seen order.
func samplesByName(rec Record) (map[string][]Benchmark, []string) {
	by := map[string][]Benchmark{}
	var order []string
	for _, b := range rec.Benchmarks {
		n := normalizeName(b.Name)
		if _, seen := by[n]; !seen {
			order = append(order, n)
		}
		by[n] = append(by[n], b)
	}
	return by, order
}

// median returns the median of metric over the samples that report it,
// and how many do.
func median(samples []Benchmark, metric string) (float64, int) {
	var vs []float64
	for _, b := range samples {
		if v, ok := b.Metrics[metric]; ok {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return 0, 0
	}
	slices.Sort(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m], len(vs)
	}
	return (vs[m-1] + vs[m]) / 2, len(vs)
}

func missingSide(okOld, okNew bool) string {
	switch {
	case !okOld && !okNew:
		return "both"
	case !okOld:
		return "old"
	default:
		return "new"
	}
}

// parseLine parses "BenchmarkName-8  10  123 ns/op  45 B/op  6 allocs/op".
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Benchmark{}, false
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], Runs: runs, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		b.Metrics[f[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}
