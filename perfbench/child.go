package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"epajsrm/internal/scale"
)

// runChild runs one workload process's job: a set-up sample, a pass
// (traced when prefix is set), or a record of the outputs for seed.
func runChild(name string, seed uint64, mode, tmp, prefix string, exp expectations) (passResult, error) {
	key := seedKey(seed)
	if mode == "setup" {
		return setupOnly(name, seed, tmp)
	}
	if mode != "pass" && mode != "record" {
		return passResult{}, fmt.Errorf("unknown mode %q", mode)
	}

	// The service's expected reports are computed before anything is
	// timed or profiled.
	var reports [][]byte
	var refs []string
	if name == "service" {
		for _, spec := range serviceSpecs(seed) {
			b, err := standaloneReport(spec)
			if err != nil {
				return passResult{}, fmt.Errorf("standalone report: %w", err)
			}
			reports = append(reports, b)
			refs = append(refs, digest(b))
		}
		if mode == "record" {
			return passResult{Reports: refs}, nil
		}
	}

	var tr *tracer
	var layers map[string]float64
	var rt *runtimeDelta
	stopProfile := func() error { return nil }
	if prefix != "" {
		tr, layers = newTracer(), map[string]float64{}
		var err error
		if stopProfile, err = startCPUProfile(prefix + ".cpu.pprof"); err != nil {
			return passResult{}, err
		}
		rt = startRuntimeDelta()
	}

	var res passResult
	jobs := 0
	switch name {
	case "suite":
		res = suitePass(seed, exp.Suite[key], tr)
	case "hollow-10k":
		var want *hollowOutcome
		if h, ok := exp.Hollow[key]; ok {
			want = &h
		}
		res = hollowPass(seed, want, tr, layers)
		jobs = scale.DefaultConfig(hollowNodes, seed).Jobs
	case "service":
		dir, err := os.MkdirTemp(tmp, "journal-")
		if err != nil {
			return passResult{}, err
		}
		defer os.RemoveAll(dir)
		// Traced, the service writes its access log, which the spans
		// join on X-Request-Id.
		var access io.Writer
		if prefix != "" {
			f, err := os.Create(prefix + ".access.jsonl")
			if err != nil {
				return passResult{}, err
			}
			defer f.Close()
			access = f
		}
		res = servicePass(seed, dir, reports, tr, layers, access)
		// The standalone reports themselves must match the record.
		want := exp.Service[key]
		res.Attempted += len(refs)
		for i, got := range refs {
			if i >= len(want) || want[i] != got {
				res.fail(false, fmt.Sprintf("standalone report %d: digest %s, recorded %v", i, got, want))
			}
		}
		jobs = svcClients * svcCycles * svcJobs
	default:
		return passResult{}, fmt.Errorf("unknown workload %q", name)
	}

	if tr != nil {
		if err := stopProfile(); err != nil {
			return res, err
		}
		rt.finish(layers, jobs)
		if err := tr.write(prefix + ".spans.json"); err != nil {
			return res, err
		}
		if name == "suite" {
			for id := range res.Outputs {
				layers["suite."+id+"_s"] = tr.seconds(id)
			}
		}
		res.Layers = layers
	}
	return res, nil
}

// setupOnly measures the workload's set-up once and exits; the suite's
// set-up is the process start the parent already timed.
func setupOnly(name string, seed uint64, tmp string) (passResult, error) {
	var res passResult
	switch name {
	case "suite":
	case "hollow-10k":
		_, build, pump, err := hollowSetup(scale.DefaultConfig(hollowNodes, seed), nil)
		if err != nil {
			return res, err
		}
		res.SetupS = (build + pump).Seconds()
	case "service":
		dir, err := os.MkdirTemp(tmp, "journal-")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		t0 := time.Now()
		_, stop, err := startService(dir, nil)
		res.SetupS = time.Since(t0).Seconds()
		if err != nil {
			return res, err
		}
		if err := stop(); err != nil {
			return res, err
		}
	default:
		return res, fmt.Errorf("unknown workload %q", name)
	}
	return res, nil
}
