package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"epajsrm/internal/flight"
	"epajsrm/internal/metrics"
)

// syncBuffer is a goroutine-safe log sink: slog lines arrive from
// middleware goroutines while the test reads them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines() [][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out [][]byte
	for _, l := range bytes.Split(b.buf.Bytes(), []byte("\n")) {
		if len(bytes.TrimSpace(l)) > 0 {
			out = append(out, append([]byte(nil), l...))
		}
	}
	return out
}

func TestRequestIDMintedAndEchoed(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(nil) //nolint:errcheck
	h := s.Handler()

	// Minted when absent.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	minted := rec.Header().Get("X-Request-Id")
	if minted == "" || !strings.HasPrefix(minted, "q") {
		t.Fatalf("minted request ID = %q, want q<N>", minted)
	}

	// A well-formed client ID is echoed...
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-Id", "trace-42.a_b")
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "trace-42.a_b" {
		t.Fatalf("client request ID = %q, want echoed trace-42.a_b", got)
	}

	// ...but a malformed one is replaced, never reflected back.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-Id", "evil\nheader{}")
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); strings.Contains(got, "evil") || got == "" {
		t.Fatalf("malformed client ID handled as %q, want a minted replacement", got)
	}
}

func TestAccessLogLinesAreStructured(t *testing.T) {
	sink := &syncBuffer{}
	cfg := testConfig()
	cfg.AccessLog = sink
	s := mustNew(t, cfg)
	defer s.Shutdown(nil) //nolint:errcheck
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/runs",
		strings.NewReader(`{"tenant":"acme","site":"cineca","seed":7,"jobs":5,"days":1}`)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatalf("submit body: %v", err)
	}
	waitState(t, s, acc.ID, StateComplete)

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/runs/"+acc.ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("get run: %d", rec.Code)
	}

	lines := sink.lines()
	if len(lines) < 2 {
		t.Fatalf("access log has %d lines, want >= 2", len(lines))
	}
	type logLine struct {
		Msg      string  `json:"msg"`
		Req      string  `json:"req"`
		Verb     string  `json:"verb"`
		Endpoint string  `json:"endpoint"`
		Status   int     `json:"status"`
		DurMS    float64 `json:"dur_ms"`
		Run      string  `json:"run"`
		Tenant   string  `json:"tenant"`
	}
	var submit, get *logLine
	for _, raw := range lines {
		var ll logLine
		if err := json.Unmarshal(raw, &ll); err != nil {
			t.Fatalf("access log line does not parse: %v\n%s", err, raw)
		}
		switch ll.Endpoint {
		case "runs":
			submit = &ll
		case "run":
			get = &ll
		}
	}
	if submit == nil || submit.Status != 202 || submit.Run != acc.ID || submit.Tenant != "acme" ||
		submit.Verb != "POST" || submit.Req == "" {
		t.Fatalf("submit log line = %+v, want 202 run=%s tenant=acme", submit, acc.ID)
	}
	if get == nil || get.Status != 200 || get.Run != acc.ID {
		t.Fatalf("get log line = %+v, want 200 run=%s", get, acc.ID)
	}
}

func TestShedReasonReachesAccessLog(t *testing.T) {
	sink := &syncBuffer{}
	cfg := testConfig()
	cfg.AccessLog = sink
	cfg.MaxRuns = 1
	gate := make(chan struct{})
	s := mustNew(t, cfg)
	defer func() { close(gate); s.Shutdown(nil) }() //nolint:errcheck
	setBuild(s, gatedBuild(gate))
	h := s.Handler()

	body := `{"tenant":"acme","site":"cineca","seed":1,"jobs":5,"days":1}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/runs", strings.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/runs", strings.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429", rec.Code)
	}

	found := false
	for _, raw := range sink.lines() {
		var ll struct {
			Status int    `json:"status"`
			Shed   string `json:"shed"`
		}
		if json.Unmarshal(raw, &ll) == nil && ll.Status == 429 && ll.Shed == "run table full" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no 429 line with shed reason in access log:\n%s", bytes.Join(sink.lines(), []byte("\n")))
	}
}

func TestLatencyHistogramsAndInFlightOnMetrics(t *testing.T) {
	s := mustNew(t, testConfig())
	defer s.Shutdown(nil) //nolint:errcheck
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	samples, err := metrics.ParsePrometheusText(rec.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	if got := samples["http_latency_ms_get_healthz_count"]; got < 1 {
		t.Fatalf("http_latency_ms_get_healthz_count = %v, want >= 1", got)
	}
	// The /metrics scrape itself is in flight while the gauge is read.
	if got, ok := samples["http_in_flight"]; !ok || got < 1 {
		t.Fatalf("http_in_flight = %v (present %v), want >= 1", got, ok)
	}
}

func TestJournalFsyncHistogramAndReqThreading(t *testing.T) {
	dir := t.TempDir()
	fr := flight.New(64)
	cfg := testConfig()
	cfg.JournalDir = dir
	cfg.Flight = fr
	cfg.BlackBox = filepath.Join(dir, "blackbox.jsonl")
	s := mustNew(t, cfg)
	h := s.Handler()

	req := httptest.NewRequest("POST", "/runs",
		strings.NewReader(`{"tenant":"acme","site":"cineca","seed":11,"jobs":5,"days":1}`))
	req.Header.Set("X-Request-Id", "storm-77")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", rec.Code)
	}
	var acc struct {
		ID string `json:"id"`
	}
	json.Unmarshal(rec.Body.Bytes(), &acc) //nolint:errcheck
	waitState(t, s, acc.ID, StateComplete)

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	samples, err := metrics.ParsePrometheusText(rec.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	if got := samples["journal_fsync_ms_count"]; got < 1 {
		t.Fatalf("journal_fsync_ms_count = %v, want >= 1", got)
	}
	if err := s.Shutdown(nil); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The edge request ID landed in the journal's accepted record...
	recovered := mustNew(t, cfg)
	defer recovered.Shutdown(nil) //nolint:errcheck
	recovered.mu.Lock()
	r := recovered.runs[acc.ID]
	var gotReq string
	if r != nil {
		gotReq = r.reqID
	}
	recovered.mu.Unlock()
	if gotReq != "storm-77" {
		t.Fatalf("recovered run's reqID = %q, want storm-77 (journal Req threading)", gotReq)
	}

	// ...and the flight recorder saw the whole admission lifecycle.
	kinds := map[string]string{}
	for _, ev := range fr.Events() {
		if _, ok := kinds[ev.Kind]; !ok {
			kinds[ev.Kind] = ev.Req
		}
	}
	for _, kind := range []string{"http-start", "http-end", "accepted", "dispatch", "run-terminal"} {
		if _, ok := kinds[kind]; !ok {
			t.Fatalf("flight recorder missing %q; saw %v", kind, kinds)
		}
	}
	if kinds["accepted"] != "storm-77" {
		t.Fatalf("accepted event carries req %q, want storm-77", kinds["accepted"])
	}
}
