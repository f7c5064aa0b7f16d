package service

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"epajsrm/internal/core"
	"epajsrm/internal/jobs"
	"epajsrm/internal/runreport"
	"epajsrm/internal/simulator"
	"epajsrm/internal/site"
)

// hostedSpec is the hosted run the observer budget is stated for: the
// perfbench service workload's site and size.
var hostedSpec = Spec{Site: "cineca", Seed: 3, Jobs: 20, Days: 1}

// TestHostedRunObserverBudget: one hosted run, with the service's default
// 1-minute slices and every per-run observer attached, allocates under
// 8 MB in total, and its tracer holds no events afterwards.
func TestHostedRunObserverBudget(t *testing.T) {
	s := mustNew(t, Default())
	defer shutdownOK(t, s)
	r := &Run{ID: "budget", Spec: hostedSpec}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.runSim(r); err != nil {
		t.Fatalf("runSim: %v", err)
	}
	runtime.ReadMemStats(&after)
	const budget = 8 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Fatalf("hosted run allocated %.1f MB, budget %d MB", float64(got)/(1<<20), budget>>20)
	}
	if n := r.tr.Len(); n != 0 {
		t.Fatalf("hosted run's tracer holds %d events, want none", n)
	}
}

// TestHostedRunStreamsEvents: a hosted run's /events stream still
// delivers trace events while the run advances, though its tracer keeps
// none of them.
func TestHostedRunStreamsEvents(t *testing.T) {
	s := mustNew(t, Default())
	defer shutdownOK(t, s)
	// Hold the run at one virtual hour, so the stream is open before the
	// rest of the day's events are emitted.
	reached, release := make(chan struct{}), make(chan struct{})
	setBuild(s, func(sp Spec) (*core.Manager, []*jobs.Job, site.Profile, error) {
		m, js, p, err := defaultBuild(sp)
		if err != nil {
			return nil, nil, p, err
		}
		if _, err := m.Eng.At(simulator.Hour, "test-hold", func(simulator.Time) {
			close(reached)
			<-release
		}); err != nil {
			return nil, nil, p, err
		}
		return m, js, p, nil
	})
	sp := hostedSpec
	sp.Tenant = "acme"
	run, err := s.Submit(sp)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("run never reached its first virtual hour")
	}

	// The service router reads the run's phase under the run's lock, which
	// the held engine owns; serve the run's own ops handler directly.
	s.mu.Lock()
	srv := run.srv
	s.mu.Unlock()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req) // returns once subscribed
	close(release)
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /events = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	streamed := false
	for !streamed && sc.Scan() {
		streamed = strings.HasPrefix(sc.Text(), "data: {")
	}
	if !streamed {
		t.Fatalf("/events ended without an event: %v", sc.Err())
	}
	cancel()

	if st := waitState(t, s, run.ID, StateComplete); st != StateComplete {
		t.Fatalf("run ended %s", st)
	}
	s.mu.Lock()
	tr := run.tr
	s.mu.Unlock()
	if n := tr.Len(); n != 0 {
		t.Fatalf("hosted run's tracer holds %d events, want none", n)
	}
}

// BenchmarkHostedRun prices the service's per-run observers on one hosted
// run (cineca, 20 jobs, 1 day): "bare" builds the simulation, runs it to
// the horizon and renders its report; "observed" is runSim, which does the
// same in 1-minute slices with the run's tracer, phase profiler, metric
// history and ops server attached. The difference is the observers' cost.
func BenchmarkHostedRun(b *testing.B) {
	horizon := simulator.Time(hostedSpec.Days) * simulator.Day
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, js, p, err := defaultBuild(hostedSpec)
			if err != nil {
				b.Fatal(err)
			}
			end := m.Run(horizon)
			runreport.Write(io.Discard, p, m, js, end, runreport.Extras{})
		}
	})
	b.Run("observed", func(b *testing.B) {
		s, err := New(Default())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Shutdown(context.Background()) //nolint:errcheck // no runs queued: returns at once
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.runSim(&Run{ID: "bench", Spec: hostedSpec}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
