package main

import (
	"strings"
	"testing"
)

func rec(benches ...Benchmark) Record { return Record{Benchmarks: benches} }

func bm(name string, ns, b, allocs float64) Benchmark {
	return Benchmark{Name: name, Runs: 100, Metrics: map[string]float64{
		"ns/op": ns, "B/op": b, "allocs/op": allocs,
	}}
}

func TestDiffNoRegression(t *testing.T) {
	old := rec(bm("BenchmarkA", 100, 64, 2))
	neu := rec(bm("BenchmarkA", 105, 64, 2)) // +5% under a 10% gate
	report, breaches := diffRecords(old, neu, 10, nil)
	if breaches != 0 {
		t.Fatalf("breaches = %d, want 0\n%s", breaches, report)
	}
	if !strings.Contains(report, "BenchmarkA") || !strings.Contains(report, "+5.0%") {
		t.Errorf("report missing expected delta:\n%s", report)
	}
}

func TestDiffFlagsRegression(t *testing.T) {
	old := rec(bm("BenchmarkA", 100, 64, 2), bm("BenchmarkB", 50, 0, 0))
	neu := rec(bm("BenchmarkA", 125, 64, 2), bm("BenchmarkB", 50, 0, 0))
	report, breaches := diffRecords(old, neu, 10, nil)
	if breaches != 1 {
		t.Fatalf("breaches = %d, want 1\n%s", breaches, report)
	}
	if !strings.Contains(report, "REGRESSION") {
		t.Errorf("report lacks REGRESSION mark:\n%s", report)
	}
}

func TestDiffNormalizesProcsSuffix(t *testing.T) {
	// Same benchmark recorded with and without the -GOMAXPROCS suffix.
	old := rec(bm("BenchmarkA", 100, 64, 2))
	neu := rec(bm("BenchmarkA-8", 101, 64, 2))
	_, breaches := diffRecords(old, neu, 10, []string{"BenchmarkA"})
	if breaches != 0 {
		t.Fatalf("suffix normalization failed: breaches = %d", breaches)
	}
	if normalizeName("BenchmarkSuite/procs=4") != "BenchmarkSuite/procs=4" {
		t.Error("subtest names without a procs suffix must pass through unchanged")
	}
}

func TestDiffFilteredMissingIsBreach(t *testing.T) {
	old := rec(bm("BenchmarkA", 100, 64, 2))
	neu := rec() // guarded benchmark vanished from the new record
	report, breaches := diffRecords(old, neu, 10, []string{"BenchmarkA"})
	if breaches != 1 {
		t.Fatalf("breaches = %d, want 1 for a missing guarded benchmark\n%s", breaches, report)
	}
	// Unfiltered diffs only compare the intersection — no breach.
	if _, b := diffRecords(old, neu, 10, nil); b != 0 {
		t.Fatalf("unfiltered diff breached on a disjoint record: %d", b)
	}
}

func TestDiffMetricsOrderAndBudget(t *testing.T) {
	old := rec(bm("BenchmarkA", 100, 100, 10))
	neu := rec(bm("BenchmarkA", 90, 150, 12)) // B/op +50%, allocs +20%
	report, breaches := diffRecords(old, neu, 15, nil)
	if breaches != 2 {
		t.Fatalf("breaches = %d, want 2 (B/op and allocs/op)\n%s", breaches, report)
	}
}

// TestDiffComparesMedians: with several samples of a benchmark on a side,
// the gate compares medians, so neither one slow sample nor one fast
// sample decides it.
func TestDiffComparesMedians(t *testing.T) {
	old := rec(bm("BenchmarkA", 100, 64, 2), bm("BenchmarkA", 98, 64, 2), bm("BenchmarkA", 140, 64, 2))
	// The last sample alone reads +100%; the median reads +2%.
	noisy := rec(bm("BenchmarkA", 101, 64, 2), bm("BenchmarkA", 103, 64, 2), bm("BenchmarkA", 99, 64, 2), bm("BenchmarkA", 200, 64, 2))
	report, breaches := diffRecords(old, noisy, 10, []string{"BenchmarkA"})
	if breaches != 0 {
		t.Fatalf("breaches = %d, want 0 for a median within the gate\n%s", breaches, report)
	}
	if !strings.Contains(report, "100.00") || !strings.Contains(report, "102.00") || !strings.Contains(report, "3/4") {
		t.Errorf("report does not show the medians 100 and 102 over 3/4 samples:\n%s", report)
	}
	// A real regression whose last sample happens to be fast still breaches.
	slow := rec(bm("BenchmarkA", 150, 64, 2), bm("BenchmarkA", 160, 64, 2), bm("BenchmarkA", 95, 64, 2))
	if _, b := diffRecords(old, slow, 10, []string{"BenchmarkA"}); b != 1 {
		t.Fatalf("breaches = %d, want 1 for a median 50%% slower", b)
	}
}
