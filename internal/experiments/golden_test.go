package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"epajsrm/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current tree")

// goldenCases pins representative experiments to committed renders: the
// resilience and checkpoint sweeps (faults, requeues, checkpoint I/O and
// the power meters together), the SLO watchdog, the policies that read
// the manager's running set — E4's per-node demand and bulk retiming, E6's
// emergency victim choice and pending-shed sum, E13's grid-aware
// shedding — E12, the only experiment that runs Conservative
// backfilling, and E19's power-hierarchy archive. The
// parallel-vs-sequential test asserts procs-invariance of whatever the
// current tree produces; this test additionally asserts the render is
// byte-identical to the output captured before the data structure under
// it was reworked (E21/E22 before the compact-layout and calendar-queue
// rework, E4/E6/E13 before the ID-ordered running index, E12 before the
// end-ordered index the reservations walk, E19 before its power
// hierarchy moved from a dedicated collector to registry gauges sampled
// by tsdb), so a data-structure change that shifts event order or float
// accumulation order fails loudly rather than silently re-baselining.
// E4, E12, E21 and E22 are also pinned at seed 1, recorded before
// Conservative's early stop, the power.System frequency/draw cache and
// in-place finish-event retiming: E21's seed-1 render is the one a retime
// that skips unchanged jobs is known to change.
var goldenCases = []struct {
	file string
	seed uint64
	mk   func(uint64) Result
}{
	{"e4_seed2.golden", 2, E4PowerSharing},
	{"e6_seed2.golden", 2, E6Emergency},
	{"e12_seed2.golden", 2, E12Backfill},
	{"e13_seed2.golden", 2, E13GridAware},
	{"e19_seed2.golden", 2, E19Monitoring},
	{"e21_seed2.golden", 2, E21Resilience},
	{"e22_seed2.golden", 2, E22CheckpointSweep},
	{"e24_seed2.golden", 2, E24SLOWatchdog},
	{"e4_seed1.golden", 1, E4PowerSharing},
	{"e12_seed1.golden", 1, E12Backfill},
	{"e21_seed1.golden", 1, E21Resilience},
	{"e22_seed1.golden", 1, E22CheckpointSweep},
}

func TestGoldenReportsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweeps in short mode")
	}
	for _, procs := range []int{1, 4} {
		prev := runner.SetProcs(procs)
		for _, tc := range goldenCases {
			got := tc.mk(tc.seed).Render()
			path := filepath.Join("testdata", tc.file)
			if *updateGolden && procs == 1 {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (regenerate with -update): %v", path, err)
			}
			if got != string(want) {
				t.Errorf("%s render at procs=%d differs from committed golden %s:\n--- got ---\n%s\n--- want ---\n%s",
					tc.file, procs, path, got, string(want))
			}
		}
		runner.SetProcs(prev)
	}
}
