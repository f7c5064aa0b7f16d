package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"epajsrm/internal/metrics"
	"epajsrm/internal/runreport"
	"epajsrm/internal/service"
	"epajsrm/internal/simulator"
	"epajsrm/internal/site"
)

// The service workload: a closed loop of svcClients clients, each on its
// own connection and tenant, each waiting for its report before it
// submits again. A pass is svcClients*svcCycles runs.
const (
	svcClients = 2
	svcCycles  = 125
	svcSpecs   = 8
	svcSite    = "cineca"
	svcJobs    = 20
	svcDays    = 1
	svcPoll    = time.Millisecond
	// svcPause bounds a seeded random pause before each submit. Without
	// it the two clients, whose cycles take equally long, phase-lock:
	// one client's submit keeps landing at the same point of the other's
	// run, and the admit median moved by ±18% from pass to pass of one
	// run as that alignment drifted.
	svcPause = 4 * time.Millisecond
)

// serviceSpecs are the specs the clients cycle over, derived from the
// workload seed.
func serviceSpecs(seed uint64) []service.Spec {
	specs := make([]service.Spec, svcSpecs)
	for k := range specs {
		specs[k] = service.Spec{Site: svcSite, Seed: seed*1000 + uint64(k), Jobs: svcJobs, Days: svcDays}
	}
	return specs
}

// standaloneReport is epasim's report for spec: site.Build, Run to the
// horizon, runreport.Write.
func standaloneReport(spec service.Spec) ([]byte, error) {
	p, ok := site.ByName(spec.Site)
	if !ok {
		return nil, fmt.Errorf("unknown site %q", spec.Site)
	}
	m, js, err := p.Build(spec.Seed, spec.Jobs)
	if err != nil {
		return nil, err
	}
	end := m.Run(simulator.Time(spec.Days) * simulator.Day)
	var buf bytes.Buffer
	runreport.Write(&buf, p, m, js, end, runreport.Extras{})
	return buf.Bytes(), nil
}

// startService is the workload's set-up: service.New on an empty
// journal dir plus a listener, until /healthz answers 200.
func startService(journalDir string, accessLog io.Writer) (base string, stop func() error, err error) {
	cfg := service.Default()
	cfg.JournalDir = journalDir
	cfg.AccessLog = accessLog
	svc, err := service.New(cfg)
	if err != nil {
		return "", nil, fmt.Errorf("service.New: %w", err)
	}
	addr, closeHTTP, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		svc.Shutdown(context.Background()) //nolint:errcheck // already failing
		return "", nil, err
	}
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		herr := closeHTTP(ctx)
		if err := svc.Shutdown(ctx); err != nil {
			return err
		}
		return herr
	}
	base = "http://" + addr
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base, stop, nil
			}
		}
		if time.Now().After(deadline) {
			stop() //nolint:errcheck // already failing
			return "", nil, fmt.Errorf("/healthz not ready after 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// client is one closed-loop load generator on its own connection.
type client struct {
	base   string
	tenant string
	hc     *http.Client
	tr     *tracer
	// scrapeRun adds a GET /runs/{id}/metrics.json after each report
	// (traced runs only).
	scrapeRun bool
}

func newClient(base, tenant string, tr *tracer) *client {
	return &client{
		base:   base,
		tenant: tenant,
		tr:     tr,
		hc: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
}

// call sends one request with X-Request-Id req and returns the status
// and the whole body. Traced, it is one span tagged with the run ID.
func (c *client) call(method, path string, body []byte, req, run string, parent int) (int, []byte, time.Duration, error) {
	span := c.tr.open(method+" "+endpoint(path), parent)
	t0 := time.Now()
	hreq, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.tr.close(span, run, req)
		return 0, nil, 0, err
	}
	hreq.Header.Set("X-Request-Id", req)
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		c.tr.close(span, run, req)
		return 0, nil, time.Since(t0), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	c.tr.close(span, run, req)
	return resp.StatusCode, b, d, err
}

// endpoint names a request path without its run ID, for span names.
func endpoint(path string) string {
	if rest, ok := strings.CutPrefix(path, "/runs/"); ok {
		if _, sub, has := strings.Cut(rest, "/"); has {
			return "/runs/{id}/" + sub
		}
		return "/runs/{id}"
	}
	return path
}

// cycleResult is one request cycle as the client saw it.
type cycleResult struct {
	problem   string // empty when the cycle succeeded
	admit     time.Duration
	turn      time.Duration
	submit    time.Duration
	scrape    time.Duration
	report    time.Duration
	polls     []time.Duration
	errors    int // unexpected statuses and transport errors
	info      service.RunInfo
	runLayers map[string]float64 // the run's own metrics (scrapeRun only)
}

// cycle runs one request cycle: POST /runs, one GET of the run's
// /state, polls of GET /runs/{id} every svcPoll until the run is
// terminal, then GET /runs/{id}/report, whose bytes must equal want,
// and DELETE /runs/{id}.
func (c *client) cycle(spec service.Spec, want []byte, req string, parent int) cycleResult {
	var cr cycleResult
	span := c.tr.open("cycle", parent)
	defer func() { c.tr.close(span, cr.info.ID, req) }()
	fail := func(format string, a ...any) cycleResult {
		cr.problem = fmt.Sprintf(format, a...)
		return cr
	}
	spec.Tenant = c.tenant
	body, err := json.Marshal(spec)
	if err != nil {
		return fail("encode spec: %v", err)
	}
	t0 := time.Now()
	status, b, d, err := c.call(http.MethodPost, "/runs", body, req+"-submit", "", span)
	cr.admit, cr.submit = time.Since(t0), d
	if err != nil || status != http.StatusAccepted {
		cr.errors++
		return fail("POST /runs: status %d, err %v: %s", status, err, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, &cr.info); err != nil {
		return fail("POST /runs: decode: %v", err)
	}
	id := cr.info.ID

	// A run not yet started answers 409 (with Retry-After); both are
	// the service's documented answers.
	status, _, cr.scrape, err = c.call(http.MethodGet, "/runs/"+id+"/state", nil, req+"-state", id, span)
	if err != nil || (status != http.StatusOK && status != http.StatusConflict) {
		cr.errors++
	}

	for n := 0; !service.RunState(cr.info.State).Terminal(); n++ {
		time.Sleep(svcPoll)
		status, b, d, err := c.call(http.MethodGet, "/runs/"+id, nil, fmt.Sprintf("%s-poll%d", req, n), id, span)
		cr.polls = append(cr.polls, d)
		if err != nil || status != http.StatusOK {
			cr.errors++
			return fail("GET /runs/%s: status %d, err %v", id, status, err)
		}
		if err := json.Unmarshal(b, &cr.info); err != nil {
			return fail("GET /runs/%s: decode: %v", id, err)
		}
	}
	if cr.info.State != string(service.StateComplete) {
		return fail("run %s ended %s: %s", id, cr.info.State, cr.info.Reason)
	}
	status, b, cr.report, err = c.call(http.MethodGet, "/runs/"+id+"/report", nil, req+"-report", id, span)
	if err != nil || status != http.StatusOK {
		cr.errors++
		return fail("GET /runs/%s/report: status %d, err %v", id, status, err)
	}
	if !bytes.Equal(b, want) {
		return fail("run %s: report differs from standalone epasim (%d vs %d bytes)", id, len(b), len(want))
	}
	cr.turn = time.Since(t0)

	if c.scrapeRun {
		status, b, _, err = c.call(http.MethodGet, "/runs/"+id+"/metrics.json", nil, req+"-metrics", id, span)
		if err == nil && status == http.StatusOK {
			cr.runLayers, err = runLayers(b)
		}
		if err != nil || status != http.StatusOK {
			cr.errors++
		}
	}
	// Deleting the finished run keeps the table from holding every
	// pass's simulations (each keeps its manager, trace and metric
	// history until reaped: ~11 MB per run).
	status, _, _, err = c.call(http.MethodDelete, "/runs/"+id, nil, req+"-delete", id, span)
	if err != nil || status != http.StatusOK {
		cr.errors++
	}
	return cr
}

// registryPoint is one entry of a registry's metrics.json.
type registryPoint struct {
	Kind   string    `json:"kind"`
	Value  float64   `json:"value"`
	Count  int64     `json:"count"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

func decodeRegistry(b []byte) (map[string]registryPoint, error) {
	var reg map[string]registryPoint
	err := json.Unmarshal(b, &reg)
	return reg, err
}

// p50 estimates a histogram's median the way the registry does.
func (p registryPoint) p50() float64 {
	return metrics.Point{Kind: metrics.KindHistogram, Bounds: p.Bounds, Counts: p.Counts, Count: p.Count}.Quantile(0.5)
}

// runLayers picks a hosted run's phase profile and job counts out of its
// /runs/{id}/metrics.json.
func runLayers(b []byte) (map[string]float64, error) {
	reg, err := decodeRegistry(b)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for name, p := range reg {
		if phase, ok := strings.CutPrefix(name, "prof."); ok {
			phase, unit, _ := strings.Cut(phase, ".")
			if unit == "seconds" {
				out["phase."+phase+"_s"] = p.Value
			} else {
				out["phase."+phase+"_calls"] = p.Value
			}
		}
	}
	out["sim.jobs_completed"] = reg["jobs.completed"].Value
	out["sim.jobs_killed"] = reg["jobs.killed"].Value
	out["sim.requeues"] = reg["jobs.requeues"].Value
	out["sim.ckpts"] = reg["ckpt.written"].Value
	return out, nil
}

// serviceLayers reads the service's own registry at the end of a pass.
func serviceLayers(b []byte, layers map[string]float64) error {
	reg, err := decodeRegistry(b)
	if err != nil {
		return err
	}
	layers["service.completed"] = reg["service.completed"].Value
	layers["service.failed"] = reg["service.failed"].Value
	layers["service.shed"] = reg["service.shed_table_full"].Value + reg["service.shed_tenant_quota"].Value + reg["service.shed_draining"].Value
	layers["journal.appends"] = reg["journal.appends"].Value
	layers["journal.fsyncs"] = reg["journal.fsyncs"].Value
	layers["journal.rotations"] = reg["journal.rotations"].Value
	layers["journal.fsync_ms_p50"] = reg["journal.fsync_ms"].p50()
	layers["server.submit_ms_p50"] = reg["http.latency_ms.post.runs"].p50()
	return nil
}

// servicePass starts the service on a fresh journal dir, drives the
// closed loop, and checks every run's report against the standalone
// reports in want (one per spec).
func servicePass(seed uint64, journalDir string, want [][]byte, tr *tracer, layers map[string]float64, accessLog io.Writer) passResult {
	res := passResult{Attempted: svcClients * svcCycles}
	specs := serviceSpecs(seed)
	setup := tr.open("service.New", 0)
	t0 := time.Now()
	base, stop, err := startService(journalDir, accessLog)
	res.SetupS = time.Since(t0).Seconds()
	tr.close(setup, "", "")
	if err != nil {
		res.fail(true, err.Error())
		return res
	}

	load := tr.open("load", 0)
	results := make([][]cycleResult, svcClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(base, fmt.Sprintf("tenant-%d", c), tr)
			cl.scrapeRun = tr != nil
			defer cl.hc.CloseIdleConnections()
			rng := rand.New(rand.NewSource(int64(seed)*svcClients + int64(c)))
			for i := 0; i < svcCycles; i++ {
				time.Sleep(time.Duration(rng.Int63n(int64(svcPause))))
				k := (i*svcClients + c) % svcSpecs
				req := fmt.Sprintf("pb-c%d-i%d", c, i)
				results[c] = append(results[c], cl.cycle(specs[k], want[k], req, load))
			}
		}(c)
	}
	wg.Wait()
	res.WallS = time.Since(start).Seconds()
	tr.close(load, "", "")

	if tr != nil {
		hc := newClient(base, "", tr)
		status, b, _, err := hc.call(http.MethodGet, "/metrics.json", nil, "pb-metrics", "", 0)
		hc.hc.CloseIdleConnections()
		if err != nil || status != http.StatusOK {
			res.fail(false, fmt.Sprintf("GET /metrics.json: status %d, err %v", status, err))
		} else if err := serviceLayers(b, layers); err != nil {
			res.fail(false, "decode /metrics.json: "+err.Error())
		}
	}
	if err := stop(); err != nil {
		res.fail(false, "shutdown: "+err.Error())
	}

	tally(&res, results, layers)
	return res
}

// tally folds the clients' cycles into the pass: a failed cycle is a
// failed, missed unit; a succeeded one adds its latencies, and traced
// passes (layers != nil) get the client-side layer medians.
func tally(res *passResult, results [][]cycleResult, layers map[string]float64) {
	var submit, scrape, report, poll, wait, exec []float64
	polls, errs, cycles := 0, 0, 0
	for _, rs := range results {
		for _, cr := range rs {
			cycles++
			errs += cr.errors
			polls += len(cr.polls)
			if cr.problem != "" {
				res.fail(true, cr.problem)
				continue
			}
			res.Admit = append(res.Admit, ms(cr.admit))
			res.Turnaround = append(res.Turnaround, ms(cr.turn))
			submit = append(submit, ms(cr.submit))
			scrape = append(scrape, ms(cr.scrape))
			report = append(report, ms(cr.report))
			for _, d := range cr.polls {
				poll = append(poll, ms(d))
			}
			wait = append(wait, float64(cr.info.Started-cr.info.Created))
			exec = append(exec, float64(cr.info.Ended-cr.info.Started))
			for k, v := range cr.runLayers {
				layers[k] += v
			}
		}
	}
	if layers == nil {
		return
	}
	layers["http.submit_ms_p50"] = median(submit)
	layers["http.scrape_ms_p50"] = median(scrape)
	layers["http.report_ms_p50"] = median(report)
	layers["http.poll_ms_p50"] = median(poll)
	layers["http.errors"] = float64(errs)
	layers["service.queue_wait_ms_p50"] = median(wait)
	layers["service.exec_ms_p50"] = median(exec)
	layers["service.polls_per_run"] = float64(polls) / float64(cycles)
}
