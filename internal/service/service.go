// Package service is the multi-tenant simulation control plane: one
// process hosts many concurrent site simulations, each a fully private
// engine + manager + metrics registry + tracer advanced in virtual-time
// slices under its own lock, so every hosted run stays deterministic and
// its report byte-identical to the same seed/profile run under standalone
// epasim (internal/runreport is the shared renderer that pins that
// contract).
//
// The robustness layer is the point. The survey's production sites stress
// that the operational plane around the scheduler must stay up under load
// and degrade predictably; this package applies that requirement one level
// up the stack, to the simulation service itself:
//
//   - Admission control: the run table is bounded (MaxRuns) and each
//     tenant's live runs are capped (TenantActive). Requests beyond either
//     bound are shed with 429 + Retry-After rather than queued without
//     bound — the degradation ladder is accept → queue → shed.
//   - Fair-share slot arbitration: queued runs compete for execution slots
//     (MaxActive) and the next slot goes to the tenant with the least
//     decayed service consumption, via the same policy.ShareLedger that
//     arbitrates job priority inside a simulation — shared-facility
//     fairness applied to the facility simulator itself.
//   - Request deadlines on every endpoint (RequestTimeout for unary
//     requests, StreamTimeout for SSE streams).
//   - Panic isolation: a run that panics mid-execution is marked failed
//     and reaped; its neighbors never notice.
//   - Graceful shutdown: draining refuses new work with 503, cancels
//     queued runs, releases SSE streams, and waits for in-flight runs to
//     finish until the caller's deadline, after which they are hard
//     stopped at their next slice boundary.
//   - Idle-run reaping: terminal runs are kept (still scrapeable — a
//     finished run's /metrics and /report stay on the wire) until nobody
//     has touched them for IdleTTL, then deleted so the table cannot fill
//     with corpses.
//   - Durability (JournalDir): every run-table transition is written to
//     an internal/journal write-ahead log — the accepted spec is fsynced
//     before the client's 202, terminal states (with the report) before
//     the table moves on — and New replays it, so a SIGKILL is
//     observationally a long pause: terminal runs come back as metadata,
//     interrupted runs re-execute deterministically from their journaled
//     spec, queued runs re-enter fair-share arbitration. See journal.go
//     for the recovery contract.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"epajsrm/internal/core"
	"epajsrm/internal/flight"
	"epajsrm/internal/jobs"
	"epajsrm/internal/journal"
	"epajsrm/internal/metrics"
	"epajsrm/internal/ops"
	"epajsrm/internal/policy"
	ctlprof "epajsrm/internal/prof"
	"epajsrm/internal/runreport"
	"epajsrm/internal/simulator"
	"epajsrm/internal/site"
	"epajsrm/internal/trace"
	"epajsrm/internal/tsdb"
)

// RunState is a hosted run's lifecycle position.
type RunState string

const (
	StateQueued    RunState = "queued"    // admitted, waiting for a slot
	StateRunning   RunState = "running"   // executing in slices
	StateComplete  RunState = "complete"  // finished; report available
	StateFailed    RunState = "failed"    // build error, panic, or hard stop
	StateCancelled RunState = "cancelled" // client cancel or shutdown drain
)

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == StateComplete || s == StateFailed || s == StateCancelled
}

// Spec is one tenant's run request: which surveyed site profile to
// simulate, at which seed, with how much workload.
type Spec struct {
	Tenant string `json:"tenant"`
	Site   string `json:"site"`
	Seed   uint64 `json:"seed"`
	Jobs   int    `json:"jobs"`
	Days   int    `json:"days"`
	// SliceS optionally overrides the virtual-time slice for this run,
	// in simulated seconds per lock acquisition. 0 means the service
	// default; anything else must land in [1, 86400] or admission
	// rejects the spec with 400 — a non-positive or absurd slice would
	// burn a fair-share slot spinning (or never yielding the run lock)
	// before failing.
	SliceS int64 `json:"slice_s,omitempty"`
}

// Config bounds the service. The zero value is unusable; call Default
// first and override fields.
type Config struct {
	// MaxRuns bounds the run table: queued + running + not-yet-reaped
	// terminal runs. Admission beyond it sheds with 429.
	MaxRuns int
	// MaxActive is the number of concurrent execution slots.
	MaxActive int
	// TenantActive caps one tenant's queued+running runs; admission beyond
	// it sheds that tenant with 429 while others keep being served.
	TenantActive int
	// MaxJobs and MaxDays bound a single spec (400 beyond them).
	MaxJobs int
	MaxDays int
	// IdleTTL is how long a terminal run survives with no endpoint
	// touching it before the reaper deletes it.
	IdleTTL time.Duration
	// RequestTimeout is the per-request deadline on every unary endpoint;
	// StreamTimeout bounds an SSE /events stream.
	RequestTimeout time.Duration
	StreamTimeout  time.Duration
	// Slice is the virtual-time quantum a run advances per lock
	// acquisition; between slices its ops endpoints can read a quiescent
	// manager and cancellation/shutdown can interject.
	Slice simulator.Time
	// HalfLife is the fair-share ledger's decay half-life (wall clock).
	HalfLife time.Duration
	// JournalDir, when non-empty, makes accepted runs durable: every
	// run-table transition is logged to an internal/journal WAL in this
	// directory and replayed by New after a crash.
	JournalDir string
	// JournalMaxBytes rotates the journal through a compacting snapshot
	// once the active segment outgrows it (<= 0: the journal's 4 MiB
	// default).
	JournalMaxBytes int64
	// JournalNoSync drops every fsync. Test-only: it keeps the record
	// stream (so recovery logic is exercised) but forfeits the
	// power-loss guarantee.
	JournalNoSync bool
	// WatermarkEvery journals a virtual-time progress watermark every N
	// slices of a running run (<= 0: 64). Watermarks are informational
	// — recovery re-executes from the spec, not the watermark — but
	// they bound how stale the journal's view of a long run can get.
	WatermarkEvery int
	// AccessLog, when non-nil, receives one structured JSON line per
	// HTTP request (log/slog JSONL): request ID, verb, endpoint, status,
	// latency, plus whatever the handler learned (run, tenant, shed
	// reason, the run's recovered flag).
	AccessLog io.Writer
	// Flight, when non-nil, is the black-box recorder the service feeds
	// with admission, shed, dispatch, terminal, cancel, reap, journal
	// and recovery events. The caller keeps its own reference for
	// on-demand dumps (epaserved dumps it on SIGQUIT).
	Flight *flight.Recorder
	// BlackBox is the file the flight recorder is dumped to when the
	// journal fails closed or a run panics (empty: no automatic dump).
	BlackBox string
	// HistoryStep is the sampling cadence of each hosted run's
	// virtual-time metric history (/runs/{id}/query); <= 0 selects the
	// tsdb default of one virtual minute.
	HistoryStep simulator.Time
}

// Default returns the production-shaped configuration the epaserved CLI
// starts from.
func Default() Config {
	return Config{
		MaxRuns:        256,
		MaxActive:      16,
		TenantActive:   8,
		MaxJobs:        5000,
		MaxDays:        60,
		IdleTTL:        10 * time.Minute,
		RequestTimeout: 10 * time.Second,
		StreamTimeout:  time.Minute,
		Slice:          simulator.Minute,
		HalfLife:       time.Hour,
		WatermarkEvery: 64,
	}
}

// Run is one hosted simulation. All fields are guarded by the Service
// mutex except the simulation objects (m, js, tr), which the executor
// advances exclusively under srv's per-run lock, and cancel/report, which
// are documented inline.
type Run struct {
	ID   string
	Spec Spec

	seq     int64
	state   RunState
	reason  string
	created time.Time
	started time.Time
	ended   time.Time
	touched time.Time // last endpoint access; reaper input

	// cancel is set by DELETE and checked by the executor between slices.
	cancel atomic.Bool

	// reqID is the edge request ID that carried the submission; it is
	// journaled in the accepted record so a post-mortem can join the
	// client's X-Request-Id to the WAL. Set once at admission.
	reqID string

	// recovered marks a run the journal re-admitted after a crash.
	recovered bool
	// wm is the last journaled virtual-time watermark (seconds), written
	// by the executor without the service mutex.
	wm atomic.Int64

	m    *core.Manager
	js   []*jobs.Job
	prof site.Profile
	tr   *trace.Tracer
	srv  *ops.Server // per-run ops plane: handler + the run's state lock

	end    simulator.Time
	report []byte // rendered once at completion, then immutable
}

// errCancelled and errHardStop are the executor's non-failure exits.
var (
	errCancelled = errors.New("cancelled")
	errHardStop  = errors.New("shutdown deadline exceeded")
)

// panicError wraps a recovered executor panic so completion accounting
// can distinguish it (service.panics metric) from ordinary failures.
type panicError struct{ v any }

func (p panicError) Error() string { return fmt.Sprintf("panic: %v", p.v) }

// Service hosts the run table and the executor pool.
type Service struct {
	cfg Config

	// mu guards everything below plus the service metrics registry and
	// the fair-share ledger. It is never held while a run's per-run lock
	// is taken, so a slow slice cannot stall the control plane.
	mu       sync.Mutex
	runs     map[string]*Run
	seq      int64
	active   int
	draining bool

	// runningPeak / tablePeak record high-water marks: the stampede test
	// asserts the table bound held and the slot pool actually filled.
	runningPeak int
	tablePeak   int

	ledger *policy.ShareLedger
	start  time.Time
	now    func() time.Time // injectable for reaper/fairness tests

	// build constructs a run's simulation; injectable so tests can return
	// rigged managers (e.g. one that panics mid-run).
	build func(Spec) (*core.Manager, []*jobs.Job, site.Profile, error)

	// j is the write-ahead journal (nil without JournalDir). It has its
	// own mutex; the lock order is s.mu → j's, never the reverse. jErrs
	// counts failed appends/rotations (atomic: watermark appends happen
	// off the service mutex) and recov is New's replay summary.
	j     *journal.Journal
	jErrs atomic.Int64
	recov RecoverySummary

	reg        *metrics.Registry
	accepted   *metrics.Counter
	shedTable  *metrics.Counter
	shedQuota  *metrics.Counter
	shedDrain  *metrics.Counter
	completed  *metrics.Counter
	failed     *metrics.Counter
	cancelled  *metrics.Counter
	panics     *metrics.Counter
	reaped     *metrics.Counter
	recoveries *metrics.Counter

	// The request-telemetry edge (telemetry.go). httpHists is guarded by
	// httpMu (lock order s.mu → httpMu); the histograms themselves are
	// internally synchronized, so the hot path never takes s.mu.
	access    *slog.Logger
	fr        *flight.Recorder
	reqSeq    atomic.Int64
	inFlight  atomic.Int64
	httpMu    sync.Mutex
	httpHists map[string]*metrics.SyncHistogram
	fsyncHist *metrics.SyncHistogram

	wake     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	hardStop atomic.Bool
	execWG   sync.WaitGroup // in-flight run executors
	loopWG   sync.WaitGroup // dispatcher + reaper daemons
}

// New builds a service and starts its dispatcher and reaper daemons.
// Callers own its lifecycle: Shutdown must be called to stop the daemons.
// With JournalDir set, New opens (or recovers) the write-ahead journal
// before accepting work: terminal runs reload as metadata, interrupted
// and queued runs re-enter the queue. The only error paths are journal
// I/O; config misuse still panics.
func New(cfg Config) (*Service, error) {
	if cfg.MaxRuns <= 0 || cfg.MaxActive <= 0 || cfg.Slice <= 0 {
		panic("service: config must come from Default()")
	}
	s := &Service{
		cfg:    cfg,
		runs:   make(map[string]*Run),
		ledger: policy.NewShareLedger(simulator.Time(cfg.HalfLife / time.Second)),
		start:  time.Now(),
		now:    time.Now,
		build:  defaultBuild,
		reg:    metrics.New(),
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),

		fr:        cfg.Flight,
		httpHists: make(map[string]*metrics.SyncHistogram),
	}
	if cfg.AccessLog != nil {
		s.access = slog.New(slog.NewJSONHandler(cfg.AccessLog, nil))
	}
	s.accepted = s.reg.Counter("service.accepted")
	s.shedTable = s.reg.Counter("service.shed_table_full")
	s.shedQuota = s.reg.Counter("service.shed_tenant_quota")
	s.shedDrain = s.reg.Counter("service.shed_draining")
	s.completed = s.reg.Counter("service.completed")
	s.failed = s.reg.Counter("service.failed")
	s.cancelled = s.reg.Counter("service.cancelled")
	s.panics = s.reg.Counter("service.run_panics")
	s.reaped = s.reg.Counter("service.reaped")
	s.recoveries = s.reg.Counter("service.recoveries")
	// Gauge closures run inside Snapshot, which every caller invokes with
	// s.mu already held — they must read fields directly, not re-lock.
	s.reg.GaugeFunc("service.runs", func() float64 { return float64(len(s.runs)) })
	s.reg.GaugeFunc("service.running", func() float64 { return float64(s.active) })
	s.reg.GaugeFunc("service.queued", func() float64 { return float64(s.countLocked(StateQueued)) })
	s.reg.GaugeFunc("http.in_flight", func() float64 { return float64(s.inFlight.Load()) })
	if cfg.JournalDir != "" {
		// The fsync histogram is fed from under the journal's own mutex
		// (Options.OnFsync), so it must be the synchronized kind; it
		// exists before Open because recovery itself fsyncs.
		s.fsyncHist = s.reg.SyncHistogram("journal.fsync_ms",
			0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100)
		j, recs, err := journal.Open(cfg.JournalDir, journal.Options{
			MaxBytes: cfg.JournalMaxBytes, NoSync: cfg.JournalNoSync,
			OnFsync: func(d time.Duration) {
				s.fsyncHist.Observe(float64(d) / float64(time.Millisecond))
			},
		})
		if err != nil {
			return nil, err
		}
		s.j = j
		s.recov = s.recoverLocked(recs)
		s.recov.TornTail = j.Stats().TornTail
		// The journal has its own mutex, so these closures are safe under
		// s.mu (lock order s.mu → journal; the journal never locks back).
		// Each closure takes one lock-consistent Stats() snapshot — never
		// a torn read of the journal's counters.
		s.reg.GaugeFunc("journal.appends", func() float64 { return float64(s.j.Stats().Appends) })
		s.reg.GaugeFunc("journal.fsyncs", func() float64 { return float64(s.j.Stats().Syncs) })
		s.reg.GaugeFunc("journal.rotations", func() float64 { return float64(s.j.Stats().Rotations) })
		s.reg.GaugeFunc("journal.segment_bytes", func() float64 { return float64(s.j.Stats().Size) })
		s.reg.GaugeFunc("journal.generation", func() float64 { return float64(s.j.Stats().Gen) })
		s.reg.GaugeFunc("journal.errors", func() float64 { return float64(s.jErrs.Load()) })
		s.reg.GaugeFunc("journal.replayed", func() float64 { return float64(s.recov.Replayed) })
		s.reg.GaugeFunc("journal.torn_tail", func() float64 {
			if s.recov.TornTail {
				return 1
			}
			return 0
		})
		s.fr.Note("recovery", "", "", fmt.Sprintf(
			"replayed=%d terminal=%d interrupted=%d requeued=%d torn_tail=%v",
			s.recov.Replayed, s.recov.Terminal, s.recov.Interrupted, s.recov.Requeued, s.recov.TornTail))
	}
	s.loopWG.Add(2)
	go s.dispatch()
	go s.reapLoop()
	s.wakeUp() // recovered queued runs dispatch immediately
	return s, nil
}

// defaultBuild resolves the spec against the surveyed site profiles.
func defaultBuild(spec Spec) (*core.Manager, []*jobs.Job, site.Profile, error) {
	p, ok := site.ByName(spec.Site)
	if !ok {
		return nil, nil, site.Profile{}, fmt.Errorf("unknown site %q", spec.Site)
	}
	m, js, err := p.Build(spec.Seed, spec.Jobs)
	return m, js, p, err
}

// AdmissionError is a shed decision: the HTTP layer maps Code/RetryAfter
// straight onto the response.
type AdmissionError struct {
	Code       int // 429 (load shed) or 503 (draining)
	RetryAfter int // seconds
	Reason     string
}

func (e *AdmissionError) Error() string { return e.Reason }

// Submit runs admission control and either enqueues a run or sheds the
// request. Invalid specs return a plain error (the HTTP layer maps those
// to 400); shed requests return *AdmissionError.
func (s *Service) Submit(spec Spec) (*Run, error) { return s.SubmitReq(spec, "") }

// SubmitReq is Submit carrying the edge request ID: the ID is journaled
// in the accepted record and threaded through the flight recorder, so
// every admission decision — accepted or shed — is attributable to the
// request that caused it.
func (s *Service) SubmitReq(spec Spec, req string) (*Run, error) {
	if err := s.validate(spec); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Lazy reap first: a full table of expired corpses must not shed live
	// traffic just because the reaper tick has not fired yet.
	s.reapLocked(s.now())
	if s.draining {
		s.shedDrain.Inc()
		s.fr.Note("shed", "", req, "draining")
		return nil, &AdmissionError{Code: 503, RetryAfter: s.retryAfterLocked(), Reason: "service is draining"}
	}
	if len(s.runs) >= s.cfg.MaxRuns {
		s.shedTable.Inc()
		s.fr.Note("shed", "", req, "table full")
		return nil, &AdmissionError{Code: 429, RetryAfter: s.retryAfterLocked(), Reason: "run table full"}
	}
	if n := s.tenantLiveLocked(spec.Tenant); n >= s.cfg.TenantActive {
		s.shedQuota.Inc()
		s.fr.Note("shed", "", req, "tenant quota: "+spec.Tenant)
		return nil, &AdmissionError{Code: 429, RetryAfter: s.retryAfterLocked(),
			Reason: fmt.Sprintf("tenant %q at quota (%d live runs)", spec.Tenant, n)}
	}
	s.seq++
	now := s.now()
	r := &Run{
		ID:      fmt.Sprintf("r%d", s.seq),
		Spec:    spec,
		seq:     s.seq,
		state:   StateQueued,
		created: now,
		touched: now,
		reqID:   req,
	}
	// The WAL commit point: the accepted spec is durable (fsynced) before
	// the run enters the table and the client sees its 202. A journal
	// that cannot commit makes this a durability outage, shed like any
	// other overload — accepting work we could silently forget is the
	// exact failure mode the journal exists to rule out. It is also a
	// black-box moment: the flight recorder is dumped so the post-mortem
	// starts from the requests that were on the wire when durability died.
	if s.j != nil {
		if err := s.j.Append(acceptedRecord(r)); err != nil {
			s.jErrs.Add(1)
			s.fr.Note("journal-fail", r.ID, req, err.Error())
			s.dumpBlackBox("journal fail-closed: " + err.Error())
			return nil, &AdmissionError{Code: 503, RetryAfter: 5,
				Reason: "durability unavailable: " + err.Error()}
		}
	}
	s.fr.Note("accepted", r.ID, req, spec.Tenant+" "+spec.Site)
	s.runs[r.ID] = r
	if len(s.runs) > s.tablePeak {
		s.tablePeak = len(s.runs)
	}
	s.maybeRotateLocked()
	s.accepted.Inc()
	s.wakeUp()
	return r, nil
}

func (s *Service) validate(spec Spec) error {
	if spec.Tenant == "" || len(spec.Tenant) > 64 {
		return fmt.Errorf("tenant must be 1-64 characters")
	}
	if _, ok := site.ByName(spec.Site); !ok {
		return fmt.Errorf("unknown site %q", spec.Site)
	}
	if spec.Jobs <= 0 || spec.Jobs > s.cfg.MaxJobs {
		return fmt.Errorf("jobs must be in [1, %d]", s.cfg.MaxJobs)
	}
	if spec.Days <= 0 || spec.Days > s.cfg.MaxDays {
		return fmt.Errorf("days must be in [1, %d]", s.cfg.MaxDays)
	}
	if spec.SliceS != 0 && (spec.SliceS < 1 || spec.SliceS > int64(simulator.Day)) {
		return fmt.Errorf("slice_s must be in [1, %d] simulated seconds when set", int64(simulator.Day))
	}
	return nil
}

// retryAfterLocked scales the shed hint with the backlog: an idle service
// says "come back in a second", a saturated one pushes clients out
// further. Clients add their own jitter (cmd/epastorm does).
func (s *Service) retryAfterLocked() int {
	ra := 1 + s.countLocked(StateQueued)/s.cfg.MaxActive
	if ra > 30 {
		ra = 30
	}
	return ra
}

func (s *Service) countLocked(st RunState) int {
	n := 0
	for _, r := range s.runs {
		if r.state == st {
			n++
		}
	}
	return n
}

// tenantLiveLocked counts a tenant's non-terminal runs.
func (s *Service) tenantLiveLocked(tenant string) int {
	n := 0
	for _, r := range s.runs {
		if r.Spec.Tenant == tenant && !r.state.Terminal() {
			n++
		}
	}
	return n
}

// Get returns a run by ID, updating its idle clock.
func (s *Service) Get(id string) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if ok {
		r.touched = s.now()
	}
	return r, ok
}

// Cancel cancels a run: a queued run terminates immediately, a running
// run stops at its next slice boundary, and a terminal run is deleted
// from the table (an explicit reap). Returns the state observed and
// whether the run existed.
func (s *Service) Cancel(id string) (RunState, bool) { return s.CancelReq(id, "") }

// CancelReq is Cancel carrying the edge request ID, which the deleted
// record and the flight recorder attribute the action to.
func (s *Service) CancelReq(id, req string) (RunState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return "", false
	}
	switch {
	case r.state == StateQueued:
		r.state = StateCancelled
		r.reason = "cancelled before start"
		r.ended = s.now()
		r.touched = r.ended
		s.fr.Note("cancel", id, req, "cancelled before start")
		s.journalAppend(terminalRecordLocked(r))
		s.maybeRotateLocked()
		s.cancelled.Inc()
	case r.state == StateRunning:
		r.cancel.Store(true)
		s.fr.Note("cancel", id, req, "running run flagged; stops at next slice")
	default: // terminal: delete now
		delete(s.runs, id)
		s.fr.Note("delete", id, req, "terminal run deleted")
		s.journalAppend(journal.Record{Type: journal.TypeDeleted, ID: id, Req: req})
		s.reaped.Inc()
	}
	return r.state, true
}

// dumpBlackBox best-effort writes the flight recorder to the configured
// black-box path; no-op without a recorder or a path.
func (s *Service) dumpBlackBox(reason string) {
	if err := s.fr.Dump(s.cfg.BlackBox, reason); err != nil && s.access != nil {
		s.access.LogAttrs(context.Background(), slog.LevelError, "blackbox",
			slog.String("error", err.Error()))
	}
}

// simNow maps the wall clock onto the ledger's time axis (seconds since
// the service started).
func (s *Service) simNow() simulator.Time {
	return simulator.Time(s.now().Sub(s.start) / time.Second)
}

// pickNextLocked chooses the queued run whose tenant has consumed the
// least decayed service time — the ShareLedger arbitration — breaking
// ties by admission order.
func (s *Service) pickNextLocked() *Run {
	s.ledger.Decay(s.simNow())
	var best *Run
	var bestU float64
	for _, r := range s.runs {
		if r.state != StateQueued {
			continue
		}
		u := s.ledger.Usage(r.Spec.Tenant)
		if best == nil || u < bestU || (u == bestU && r.seq < best.seq) {
			best, bestU = r, u
		}
	}
	return best
}

func (s *Service) wakeUp() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// dispatch is the slot scheduler: whenever a slot frees or work arrives,
// it fills every free slot with the fairest queued run.
func (s *Service) dispatch() {
	defer s.loopWG.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.wake:
		}
		for {
			s.mu.Lock()
			if s.draining || s.active >= s.cfg.MaxActive {
				s.mu.Unlock()
				break
			}
			r := s.pickNextLocked()
			if r == nil {
				s.mu.Unlock()
				break
			}
			r.state = StateRunning
			r.started = s.now()
			s.journalAppend(journal.Record{
				Type: journal.TypeStarted, ID: r.ID, UnixMS: r.started.UnixMilli(),
			})
			s.fr.Note("dispatch", r.ID, r.reqID, r.Spec.Tenant)
			s.active++
			if s.active > s.runningPeak {
				s.runningPeak = s.active
			}
			s.execWG.Add(1)
			s.mu.Unlock()
			go s.execute(r)
		}
	}
}

// execute owns one run from slot grant to terminal state. Panics anywhere
// in the simulation are converted to a failed state here — one tenant's
// crash never takes down a neighbor.
func (s *Service) execute(r *Run) {
	defer s.execWG.Done()
	err := s.runSim(r)
	s.mu.Lock()
	r.ended = s.now()
	r.touched = r.ended
	switch {
	case err == nil:
		r.state = StateComplete
		s.completed.Inc()
	case errors.Is(err, errCancelled):
		r.state = StateCancelled
		r.reason = "cancelled"
		s.cancelled.Inc()
	case errors.Is(err, errHardStop):
		r.state = StateFailed
		r.reason = errHardStop.Error()
		s.failed.Inc()
	default:
		r.state = StateFailed
		r.reason = err.Error()
		s.failed.Inc()
		var pe panicError
		if errors.As(err, &pe) {
			s.panics.Inc()
			// A panicking run is exactly what the black box exists for:
			// dump before the terminal record overwrites the scene.
			s.fr.Note("run-panic", r.ID, r.reqID, r.reason)
			s.dumpBlackBox("run panic: " + r.ID)
		}
	}
	s.fr.Note("run-terminal", r.ID, r.reqID, string(r.state)+" "+r.reason)
	// The terminal commit point: the outcome (and, for a complete run,
	// its report) is fsynced so a restart serves it as metadata instead
	// of re-executing — or worse, forgetting — a finished run.
	s.journalAppend(terminalRecordLocked(r))
	s.maybeRotateLocked()
	// Charge the tenant for the wall time its run held a slot; the floor
	// keeps even sub-millisecond runs ordering tenants in the ledger.
	dur := r.ended.Sub(r.started).Seconds()
	if dur < 1e-3 {
		dur = 1e-3
	}
	s.ledger.Decay(s.simNow())
	s.ledger.Charge(r.Spec.Tenant, dur)
	s.active--
	s.mu.Unlock()
	s.wakeUp()
}

// runSim builds and advances one simulation to its horizon in Slice-sized
// virtual-time steps, each under the run's own ops lock — exactly the
// runServed loop in cmd/epasim, which is what keeps the hosted report
// byte-identical to the CLI's.
func (s *Service) runSim(r *Run) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = panicError{p}
		}
	}()
	if r.cancel.Load() {
		return errCancelled
	}
	m, js, prof, err := s.build(r.Spec)
	if err != nil {
		return err
	}
	// The run's only trace reader is the live /events stream, so its
	// tracer keeps no history.
	tr := trace.NewStreaming()
	m.AttachTracer(tr)
	// Every hosted run carries a phase profiler: its gauges ride the
	// run's /metrics plane. The profiler only observes — runreport never
	// reads the registry — so the report stays byte-identical to
	// standalone epasim.
	m.AttachProfiler(ctlprof.New())
	// Every hosted run also carries a metric history, so tenants can
	// range-query their run's series (/runs/{id}/query). The sampler is
	// a read-only daemon event: the report stays byte-identical to
	// standalone epasim. Attach before ManagerSource — Source copies the
	// History pointer by value.
	m.AttachHistory(tsdb.New(m.Reg, tsdb.Config{Step: s.cfg.HistoryStep}))
	src := ops.ManagerSource(m)
	// recovered is set during New's replay, before any executor starts,
	// and never mutated after — safe to read without s.mu here.
	if r.recovered {
		base := src.Health
		src.Health = func() ops.Health {
			h := base()
			h.Recovered = true
			return h
		}
	}
	srv := ops.NewServer(src)
	s.mu.Lock()
	r.m, r.js, r.prof, r.tr, r.srv = m, js, prof, tr, srv
	s.mu.Unlock()

	// The slice is the run's lock quantum; a spec may override the
	// service default (validated into [1s, 1 day] at admission). The
	// report is slice-invariant — the engine is event-driven — so this
	// only tunes lock granularity, never results.
	slice := s.cfg.Slice
	if r.Spec.SliceS > 0 {
		slice = simulator.Time(r.Spec.SliceS)
	}
	wmEvery := s.cfg.WatermarkEvery
	if wmEvery <= 0 {
		wmEvery = 64
	}
	horizon := simulator.Time(r.Spec.Days) * simulator.Day
	var end simulator.Time
	slices := 0
	for now := slice; ; now += slice {
		if r.cancel.Load() {
			srv.Shutdown(context.Background()) //nolint:errcheck // handler-only server: releases SSE, never blocks
			return errCancelled
		}
		if s.hardStop.Load() {
			srv.Shutdown(context.Background()) //nolint:errcheck // handler-only server: releases SSE, never blocks
			return errHardStop
		}
		step := now
		if step > horizon {
			step = horizon
		}
		srv.Locked(func() { end = m.Eng.RunUntil(step) })
		if slices++; s.j != nil && slices%wmEvery == 0 {
			// Progress watermark: best-effort (no fsync, no service
			// mutex — the journal has its own); recovery re-executes
			// from the spec either way.
			r.wm.Store(int64(end))
			s.journalAppend(journal.Record{Type: journal.TypeWatermark, ID: r.ID, VT: int64(end)})
		}
		if step >= horizon {
			break
		}
	}
	srv.Locked(func() { m.FinishRun(end) })

	var buf bytes.Buffer
	runreport.Write(&buf, prof, m, js, end, runreport.Extras{})
	s.mu.Lock()
	r.end = end
	r.report = buf.Bytes()
	s.mu.Unlock()
	return nil
}

// reapLoop deletes idle terminal runs on a timer; Submit also reaps
// inline so admission never sheds against a table of expired runs.
func (s *Service) reapLoop() {
	defer s.loopWG.Done()
	period := s.cfg.IdleTTL / 4
	if period < 100*time.Millisecond {
		period = 100 * time.Millisecond
	}
	if period > 30*time.Second {
		period = 30 * time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			s.reapLocked(s.now())
			s.mu.Unlock()
		}
	}
}

func (s *Service) reapLocked(now time.Time) {
	for id, r := range s.runs {
		if r.state.Terminal() && now.Sub(r.touched) > s.cfg.IdleTTL {
			delete(s.runs, id)
			s.fr.Note("reap", id, "", "idle terminal run deleted")
			// A reaped run must stay gone after a restart: the deleted
			// record stops recovery from resurrecting it, and the next
			// compaction forgets it entirely.
			s.journalAppend(journal.Record{Type: journal.TypeDeleted, ID: id})
			s.reaped.Inc()
		}
	}
}

// Shutdown drains the service: admission flips to 503, queued runs are
// cancelled, every run's SSE streams are released, and in-flight runs
// finish normally until ctx expires — after which they are hard-stopped
// at their next slice boundary and marked failed. Idempotent; returns
// ctx's error when the deadline cut the drain short.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var srvs []*ops.Server
	for _, r := range s.runs {
		if r.state == StateQueued {
			r.state = StateCancelled
			r.reason = "service shutting down"
			r.ended = s.now()
			r.touched = r.ended
			s.journalAppend(terminalRecordLocked(r))
			s.cancelled.Inc()
		}
		if r.srv != nil {
			srvs = append(srvs, r.srv)
		}
	}
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	for _, srv := range srvs {
		srv.Shutdown(context.Background()) //nolint:errcheck // handler-only server: releases SSE, never blocks
	}

	done := make(chan struct{})
	go func() {
		s.execWG.Wait()
		close(done)
	}()
	var err error
	if ctx == nil {
		<-done
	} else {
		select {
		case <-done:
		case <-ctx.Done():
			s.hardStop.Store(true)
			<-done // executors abandon at the next slice boundary
			err = ctx.Err()
		}
	}
	s.loopWG.Wait()
	// Every writer (executors, dispatcher, reaper) is stopped; seal the
	// journal. Close is idempotent, matching Shutdown.
	if s.j != nil {
		if cerr := s.j.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Stats is a point-in-time service census (also the /healthz payload).
type Stats struct {
	Status  string `json:"status"` // "ok" or "draining"
	Runs    int    `json:"runs"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Tenants int    `json:"tenants"`
}

// Snapshot returns the service census.
func (s *Service) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Status: "ok", Runs: len(s.runs), Running: s.active}
	if s.draining {
		st.Status = "draining"
	}
	st.Queued = s.countLocked(StateQueued)
	tenants := map[string]bool{}
	for _, r := range s.runs {
		tenants[r.Spec.Tenant] = true
	}
	st.Tenants = len(tenants)
	return st
}

// Peaks reports the high-water marks: table occupancy and concurrently
// executing runs. The stampede test asserts the table bound held and the
// slot pool saturated.
func (s *Service) Peaks() (table, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tablePeak, s.runningPeak
}
