package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"epajsrm/internal/core"
	"epajsrm/internal/jobs"
	"epajsrm/internal/simulator"
	"epajsrm/internal/site"
)

// testConfig is a fast-running Default: coarse slices so a one-day run
// takes dozens of lock acquisitions instead of over a thousand.
func testConfig() Config {
	cfg := Default()
	cfg.Slice = simulator.Hour
	return cfg
}

// mustNew builds a service or fails the test (New only errors on
// journal I/O).
func mustNew(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// fakeClock is an injectable wall clock for reaper and fairness tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// gatedBuild blocks every build until gate closes, pinning runs in the
// running state so admission tests see a stable live population.
func gatedBuild(gate chan struct{}) func(Spec) (*core.Manager, []*jobs.Job, site.Profile, error) {
	return func(spec Spec) (*core.Manager, []*jobs.Job, site.Profile, error) {
		<-gate
		return defaultBuild(spec)
	}
}

// setBuild swaps the service's build function under the lock (the
// dispatcher may already be running).
func setBuild(s *Service, b func(Spec) (*core.Manager, []*jobs.Job, site.Profile, error)) {
	s.mu.Lock()
	s.build = b
	s.mu.Unlock()
}

func setClock(s *Service, c *fakeClock) {
	s.mu.Lock()
	s.now = c.now
	s.mu.Unlock()
}

func spec(tenant string, seed uint64) Spec {
	return Spec{Tenant: tenant, Site: "cineca", Seed: seed, Jobs: 10, Days: 1}
}

// waitState polls until the run reaches want (or any terminal state when
// terminalOK) and returns the state observed.
func waitState(t *testing.T, s *Service, id string, want RunState) RunState {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		r, ok := s.runs[id]
		var st RunState
		if ok {
			st = r.state
		}
		s.mu.Unlock()
		if !ok {
			t.Fatalf("run %s vanished while waiting for %s", id, want)
		}
		if st == want || (st.Terminal() && want.Terminal()) {
			return st
		}
		if st.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %s", id, want)
	return ""
}

func shutdownOK(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	s := mustNew(t, testConfig())
	defer shutdownOK(t, s)
	bad := []Spec{
		{},
		{Tenant: "t", Site: "no-such-site", Jobs: 1, Days: 1},
		{Tenant: "t", Site: "cineca", Jobs: 0, Days: 1},
		{Tenant: "t", Site: "cineca", Jobs: 1_000_000, Days: 1},
		{Tenant: "t", Site: "cineca", Jobs: 1, Days: 0},
		{Tenant: "t", Site: "cineca", Jobs: 1, Days: 10_000},
		{Tenant: strings.Repeat("x", 65), Site: "cineca", Jobs: 1, Days: 1},
		{Tenant: "t", Site: "cineca", Jobs: 1, Days: 1, SliceS: -1},
		{Tenant: "t", Site: "cineca", Jobs: 1, Days: 1, SliceS: int64(simulator.Day) + 1},
	}
	for _, sp := range bad {
		_, err := s.Submit(sp)
		if err == nil {
			t.Errorf("Submit(%+v) accepted, want validation error", sp)
		}
		var shed *AdmissionError
		if errors.As(err, &shed) {
			t.Errorf("Submit(%+v) shed (%v), want plain validation error", sp, err)
		}
	}
}

// TestAdmissionTenantQuota: one tenant at its live-run cap sheds with 429 +
// Retry-After while other tenants keep being admitted.
func TestAdmissionTenantQuota(t *testing.T) {
	cfg := testConfig()
	cfg.MaxActive = 1
	cfg.TenantActive = 2
	s := mustNew(t, cfg)
	gate := make(chan struct{})
	setBuild(s, gatedBuild(gate))
	defer func() {
		close(gate)
		shutdownOK(t, s)
	}()

	for i := 0; i < cfg.TenantActive; i++ {
		if _, err := s.Submit(spec("a", uint64(i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := s.Submit(spec("a", 99))
	var shed *AdmissionError
	if !errors.As(err, &shed) {
		t.Fatalf("over-quota submit: err = %v, want *AdmissionError", err)
	}
	if shed.Code != 429 || shed.RetryAfter < 1 {
		t.Fatalf("over-quota shed = code %d retry %d, want 429 with Retry-After >= 1", shed.Code, shed.RetryAfter)
	}
	if !strings.Contains(shed.Reason, "quota") {
		t.Fatalf("shed reason %q does not name the quota", shed.Reason)
	}
	// A different tenant is unaffected by a's quota.
	if _, err := s.Submit(spec("b", 1)); err != nil {
		t.Fatalf("tenant b shed by tenant a's quota: %v", err)
	}
}

// TestAdmissionTableFull: the run table bound sheds with 429 even when the
// excess runs belong to distinct tenants.
func TestAdmissionTableFull(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRuns = 3
	cfg.MaxActive = 1
	s := mustNew(t, cfg)
	gate := make(chan struct{})
	setBuild(s, gatedBuild(gate))
	defer func() {
		close(gate)
		shutdownOK(t, s)
	}()

	tenants := []string{"a", "b", "c"}
	for i, tn := range tenants {
		if _, err := s.Submit(spec(tn, uint64(i))); err != nil {
			t.Fatalf("submit %s: %v", tn, err)
		}
	}
	_, err := s.Submit(spec("d", 9))
	var shed *AdmissionError
	if !errors.As(err, &shed) {
		t.Fatalf("table-full submit: err = %v, want *AdmissionError", err)
	}
	if shed.Code != 429 || shed.RetryAfter < 1 {
		t.Fatalf("table-full shed = code %d retry %d", shed.Code, shed.RetryAfter)
	}
	if table, _ := s.Peaks(); table > cfg.MaxRuns {
		t.Fatalf("table peak %d exceeded MaxRuns %d", table, cfg.MaxRuns)
	}
}

// TestDrainingSheds503: after Shutdown begins, admission refuses with 503.
func TestDrainingSheds503(t *testing.T) {
	s := mustNew(t, testConfig())
	shutdownOK(t, s)
	_, err := s.Submit(spec("a", 1))
	var shed *AdmissionError
	if !errors.As(err, &shed) {
		t.Fatalf("draining submit: err = %v, want *AdmissionError", err)
	}
	if shed.Code != 503 || shed.RetryAfter < 1 {
		t.Fatalf("draining shed = code %d retry %d, want 503 with Retry-After", shed.Code, shed.RetryAfter)
	}
}

// TestRunToCompletion: the ordinary lifecycle — queued, running, complete,
// report rendered, tenant charged in the ledger.
func TestRunToCompletion(t *testing.T) {
	s := mustNew(t, testConfig())
	defer shutdownOK(t, s)
	r, err := s.Submit(spec("a", 7))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, s, r.ID, StateComplete); st != StateComplete {
		t.Fatalf("run ended %s, want complete", st)
	}
	s.mu.Lock()
	report := string(r.report)
	usage := s.ledger.Usage("a")
	s.mu.Unlock()
	if !strings.Contains(report, "site cineca") || !strings.Contains(report, "Run report") {
		t.Fatalf("report missing expected sections:\n%s", report)
	}
	if usage <= 0 {
		t.Fatalf("ledger usage for tenant a = %g after a completed run, want > 0", usage)
	}
	// Cancel on a terminal run deletes it from the table.
	if _, ok := s.Cancel(r.ID); !ok {
		t.Fatal("Cancel on terminal run: not found")
	}
	if _, ok := s.Get(r.ID); ok {
		t.Fatal("terminal run still present after DELETE")
	}
}

// TestCancelQueuedAndRunning covers both live cancellation paths.
func TestCancelQueuedAndRunning(t *testing.T) {
	cfg := testConfig()
	cfg.MaxActive = 1
	s := mustNew(t, cfg)
	gate := make(chan struct{})
	setBuild(s, gatedBuild(gate))
	defer shutdownOK(t, s)

	running, err := s.Submit(spec("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(spec("a", 2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning)

	// Queued: cancels immediately without ever holding a slot.
	if _, ok := s.Cancel(queued.ID); !ok {
		t.Fatal("cancel queued: not found")
	}
	s.mu.Lock()
	st := queued.state
	s.mu.Unlock()
	if st != StateCancelled {
		t.Fatalf("queued run after cancel = %s, want cancelled", st)
	}

	// Running: the flag is honored at the next slice boundary.
	if _, ok := s.Cancel(running.ID); !ok {
		t.Fatal("cancel running: not found")
	}
	close(gate)
	if st := waitState(t, s, running.ID, StateCancelled); st != StateCancelled {
		t.Fatalf("running run after cancel = %s, want cancelled", st)
	}
}

// TestPanicIsolation: a run whose simulation panics is marked failed with
// the panic recorded, the panic counter increments, and a neighbor run in
// the same process completes untouched.
func TestPanicIsolation(t *testing.T) {
	s := mustNew(t, testConfig())
	defer shutdownOK(t, s)
	setBuild(s, func(sp Spec) (*core.Manager, []*jobs.Job, site.Profile, error) {
		m, js, p, err := defaultBuild(sp)
		if err != nil {
			return nil, nil, p, err
		}
		if sp.Tenant == "boom" {
			if _, err := m.Eng.At(30, "rigged-panic", func(simulator.Time) { panic("rigged panic") }); err != nil {
				return nil, nil, p, err
			}
		}
		return m, js, p, nil
	})

	bad, err := s.Submit(spec("boom", 1))
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Submit(spec("calm", 2))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, s, bad.ID, StateFailed); st != StateFailed {
		t.Fatalf("panicking run ended %s, want failed", st)
	}
	if st := waitState(t, s, good.ID, StateComplete); st != StateComplete {
		t.Fatalf("neighbor of panicking run ended %s, want complete", st)
	}
	s.mu.Lock()
	reason := bad.reason
	panics := s.reg.Value("service.run_panics")
	s.mu.Unlock()
	if !strings.Contains(reason, "panic") || !strings.Contains(reason, "rigged panic") {
		t.Fatalf("failed reason %q does not carry the panic", reason)
	}
	if panics != 1 {
		t.Fatalf("service.run_panics = %g, want 1", panics)
	}
}

// TestIdleReaper: terminal runs older than IdleTTL are reaped (lazily on
// Submit, so the test controls time), while live runs are never reaped.
func TestIdleReaper(t *testing.T) {
	cfg := testConfig()
	cfg.IdleTTL = time.Minute
	cfg.MaxActive = 1
	s := mustNew(t, cfg)
	clk := newFakeClock()
	setClock(s, clk)
	defer shutdownOK(t, s)

	done, err := s.Submit(spec("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, done.ID, StateComplete)

	// A live (gate-blocked) run that will out-age the TTL but must survive.
	gate := make(chan struct{})
	setBuild(s, gatedBuild(gate))
	defer close(gate)
	live, err := s.Submit(spec("b", 2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, live.ID, StateRunning)

	clk.advance(2 * time.Minute)
	if _, err := s.Submit(spec("c", 3)); err != nil {
		t.Fatalf("submit after TTL: %v", err)
	}
	if _, ok := s.Get(done.ID); ok {
		t.Fatal("terminal run survived past IdleTTL")
	}
	if _, ok := s.Get(live.ID); !ok {
		t.Fatal("live run was reaped")
	}
	s.mu.Lock()
	reaped := s.reg.Value("service.reaped")
	s.mu.Unlock()
	if reaped < 1 {
		t.Fatalf("service.reaped = %g, want >= 1", reaped)
	}
}

// TestFairShareDispatch: the next free slot goes to the tenant with the
// least decayed usage, not to the longest-waiting run.
func TestFairShareDispatch(t *testing.T) {
	s := mustNew(t, testConfig())
	defer shutdownOK(t, s)

	s.mu.Lock()
	// Tenant "hog" has burned service time; "newcomer" has not. Two queued
	// runs, hog's admitted first (lower seq).
	s.ledger.Charge("hog", 500)
	hog := &Run{ID: "rA", Spec: Spec{Tenant: "hog"}, seq: 1, state: StateQueued}
	newb := &Run{ID: "rB", Spec: Spec{Tenant: "newcomer"}, seq: 2, state: StateQueued}
	s.runs["rA"], s.runs["rB"] = hog, newb
	got := s.pickNextLocked()
	// Equal usage ties break by admission order.
	s.ledger.Charge("newcomer", 500)
	tie := s.pickNextLocked()
	delete(s.runs, "rA")
	delete(s.runs, "rB")
	s.mu.Unlock()

	if got != newb {
		t.Fatalf("pickNext chose %s, want the under-served tenant's run", got.ID)
	}
	if tie != hog {
		t.Fatalf("pickNext tie-break chose %s, want the earliest-admitted run", tie.ID)
	}
}

// TestGracefulShutdownDrains: an in-flight run finishes normally inside
// the drain deadline and queued runs are cancelled, not lost. The first
// run is held inside its simulation until Shutdown has cancelled the
// queue, since a short run left free could finish, and let the second be
// dispatched, before Shutdown is called.
func TestGracefulShutdownDrains(t *testing.T) {
	cfg := testConfig()
	cfg.MaxActive = 1
	s := mustNew(t, cfg)
	reached, release := make(chan struct{}), make(chan struct{})
	setBuild(s, func(sp Spec) (*core.Manager, []*jobs.Job, site.Profile, error) {
		m, js, p, err := defaultBuild(sp)
		if err != nil || sp.Seed != 1 {
			return m, js, p, err
		}
		if _, err := m.Eng.At(simulator.Hour, "test-hold", func(simulator.Time) {
			close(reached)
			<-release
		}); err != nil {
			return nil, nil, p, err
		}
		return m, js, p, nil
	})
	r1, err := s.Submit(spec("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Submit(spec("a", 2))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("first run never reached its hold")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(ctx) }()
	waitState(t, s, r2.ID, StateCancelled)
	close(release)
	if err := <-shut; err != nil {
		t.Fatalf("graceful Shutdown: %v", err)
	}
	s.mu.Lock()
	st1, st2 := r1.state, r2.state
	s.mu.Unlock()
	if st1 != StateComplete {
		t.Fatalf("in-flight run drained to %s, want complete", st1)
	}
	if st2 != StateCancelled {
		t.Fatalf("queued run drained to %s, want cancelled", st2)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestShutdownDeadlineHardStops: a run that cannot finish inside the drain
// deadline is hard-stopped at its next slice boundary and marked failed —
// the service never hangs on a wedged run.
func TestShutdownDeadlineHardStops(t *testing.T) {
	s := mustNew(t, testConfig())
	gate := make(chan struct{})
	setBuild(s, func(sp Spec) (*core.Manager, []*jobs.Job, site.Profile, error) {
		m, js, p, err := defaultBuild(sp)
		if err != nil {
			return nil, nil, p, err
		}
		// The first slice wedges mid-simulation until the gate opens.
		if _, err := m.Eng.At(30, "wedge", func(simulator.Time) { <-gate }); err != nil {
			return nil, nil, p, err
		}
		return m, js, p, nil
	})
	r, err := s.Submit(spec("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, r.ID, StateRunning)

	go func() {
		time.Sleep(300 * time.Millisecond)
		close(gate)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past deadline = %v, want DeadlineExceeded", err)
	}
	s.mu.Lock()
	st, reason := r.state, r.reason
	s.mu.Unlock()
	if st != StateFailed || !strings.Contains(reason, "shutdown deadline") {
		t.Fatalf("hard-stopped run = %s (%q), want failed with the deadline reason", st, reason)
	}
}

// TestSnapshotCensus sanity-checks the /healthz payload source.
func TestSnapshotCensus(t *testing.T) {
	cfg := testConfig()
	cfg.MaxActive = 1
	s := mustNew(t, cfg)
	gate := make(chan struct{})
	setBuild(s, gatedBuild(gate))
	defer func() {
		close(gate)
		shutdownOK(t, s)
	}()
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(spec("a", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Snapshot()
		if st.Running == 1 && st.Queued == 2 {
			if st.Status != "ok" || st.Runs != 3 || st.Tenants != 1 {
				t.Fatalf("census = %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("census never settled: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
