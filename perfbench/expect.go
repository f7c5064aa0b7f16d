package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
)

// The recorded outputs every workload is checked against, one entry per
// workload seed. `perfbench record` regenerates expect.json; a change
// that alters any output has to re-record, which shows in its diff.
//
//go:embed expect.json
var expectJSON []byte

// expectations maps a workload seed (as a decimal string) to its
// recorded outputs.
type expectations struct {
	// Suite holds each maker's Render() digest by result ID.
	Suite map[string]map[string]string `json:"suite"`
	// Hollow holds the hollow-10k run's counts.
	Hollow map[string]hollowOutcome `json:"hollow-10k"`
	// Service holds the digests of the standalone reports for the
	// workload's specs, in spec order.
	Service map[string][]string `json:"service"`
}

func loadExpectations() (expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectJSON, &e); err != nil {
		return e, fmt.Errorf("expect.json: %w", err)
	}
	return e, nil
}

// Workload seeds. --seed selects the workload seed when it names a
// recorded one: defaultSeed, or heldOutSeed, which is held out — tune
// on the default and re-check a claim on the held-out seed. Any other
// value runs the default seed: a simulation's cost depends strongly on
// its seed (hollow-10k takes 8.5 to 14.6 s over seeds 1 to 8), so
// varying it between runs would swamp the run-to-run comparison the
// benchmark exists for.
const (
	defaultSeed = 1
	heldOutSeed = 97
)

var recordedSeeds = []uint64{defaultSeed, heldOutSeed}

func workloadSeed(n int64) uint64 {
	for _, s := range recordedSeeds {
		if uint64(n) == s && n > 0 {
			return s
		}
	}
	return defaultSeed
}

func seedKey(seed uint64) string { return strconv.FormatUint(seed, 10) }

// writeExpectations stores e as the new record at path.
func writeExpectations(path string, e expectations) error {
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// recordMain re-records expect.json: every workload's outputs for every
// workload seed, each computed in its own process.
func recordMain(args []string) int {
	if len(args) != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench record")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench record:", err)
		return 1
	}
	e := expectations{
		Suite:   map[string]map[string]string{},
		Hollow:  map[string]hollowOutcome{},
		Service: map[string][]string{},
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	sem := make(chan struct{}, pinnedProcs) // one workload process per core
	for _, s := range recordedSeeds {
		for _, name := range workloads {
			wg.Add(1)
			sem <- struct{}{}
			go func(name string, s uint64) {
				defer func() { <-sem; wg.Done() }()
				r, err := spawn(exe, []string{"child", "-workload", name, "-seed", seedKey(s), "-mode", "record"}, false)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err != nil:
					if firstErr == nil {
						firstErr = fmt.Errorf("%s seed %d: %w", name, s, err)
					}
				case name == "suite":
					e.Suite[seedKey(s)] = r.Outputs
				case name == "hollow-10k":
					e.Hollow[seedKey(s)] = *r.Hollow
				default:
					e.Service[seedKey(s)] = r.Reports
				}
				fmt.Fprintf(os.Stderr, "recorded %s seed %d\n", name, s)
			}(name, s)
		}
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = writeExpectations("perfbench/expect.json", e)
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench record:", firstErr)
		return 1
	}
	return 0
}
