// Package ops is the live operations plane: an opt-in HTTP server that
// exposes a running simulation's observability surface while it executes —
// the serving side of the monitoring loop every surveyed production site
// runs. Endpoints:
//
//	/metrics       Prometheus text exposition of the metrics registry
//	/metrics.json  the registry's JSON snapshot — the exact renderer the
//	               epasim -metrics file uses, so endpoint and file can
//	               never drift
//	/healthz       control-loop liveness: current sim time plus the age of
//	               the last telemetry sample and scheduling pass (virtual
//	               time, so a stalled loop is visible regardless of wall
//	               speed)
//	/state         a deterministic JSON snapshot of queue, running jobs,
//	               per-node power and caps, and fault status
//	/events        trace events streamed as server-sent events via a
//	               bounded non-blocking tracer subscription
//	/query         range queries over the virtual-time metric history
//	               (?metric=…&from=…&to=…&step=…, virtual seconds); with
//	               no metric parameter, the list of queryable series
//
// Determinism contract: the server never mutates simulation state, and the
// simulation never waits on a client. Handlers read under the same lock
// the simulation driver advances under (Locked), so every response is a
// consistent between-events snapshot; the /events stream drops on overflow
// (counted in the ops.events_dropped metric) instead of back-pressuring
// the tracer. A run with the server attached is byte-identical to one
// without it.
package ops

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"

	"epajsrm/internal/metrics"
	"epajsrm/internal/simulator"
	"epajsrm/internal/trace"
	"epajsrm/internal/tsdb"
)

// Source wires a Server to one run's observability surface. Registry is
// required; the rest degrade gracefully when absent (503/404 responses).
type Source struct {
	// Registry backs /metrics and /metrics.json.
	Registry *metrics.Registry
	// Tracer, when non-nil, backs /events.
	Tracer *trace.Tracer
	// Health produces the /healthz payload. Called under the state lock.
	Health func() Health
	// State produces the /state payload. Called under the state lock; nil
	// disables the endpoint (404).
	State func() State
	// History, when non-nil, backs /query range queries over the sampled
	// metric history.
	History *tsdb.Store
}

// Server serves the ops endpoints for one Source. Create with NewServer,
// expose via Handler (tests) or Start (a real listener). The zero value is
// not usable.
type Server struct {
	// mu is the state lock shared between the handlers and the simulation
	// driver: the driver advances the engine only inside Locked, and every
	// handler that touches simulation state holds mu while rendering, so
	// scrapes observe a quiescent manager even mid-run.
	mu  sync.Mutex
	src Source

	lis  net.Listener
	hsrv *http.Server

	// drain closes when the server begins shutting down; streaming
	// handlers (/events) watch it so a graceful Shutdown can complete
	// instead of waiting forever on open SSE connections.
	drain     chan struct{}
	drainOnce sync.Once
}

// NewServer builds a server over src. When both a registry and a tracer
// are present, the registry gains an ops.events_dropped derived gauge
// counting /events overflow drops — call NewServer at most once per
// registry, or the duplicate registration panics by design.
func NewServer(src Source) *Server {
	if src.Registry != nil && src.Tracer != nil {
		tr := src.Tracer
		src.Registry.GaugeFunc("ops.events_dropped", func() float64 {
			return float64(tr.Dropped())
		})
	}
	return &Server{src: src, drain: make(chan struct{})}
}

// Locked runs fn while holding the server's state lock. The simulation
// driver advances the engine exclusively inside Locked so that handlers
// only ever observe the state between event slices.
func (s *Server) Locked(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// Handler returns the ops route mux, for tests and embedding.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/state", s.handleState)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/query", s.handleQuery)
	return mux
}

// Start listens on addr (host:port; :0 picks a free port) and serves in a
// background goroutine until Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("ops: listen %s: %w", addr, err)
	}
	s.lis = lis
	s.hsrv = &http.Server{Handler: s.Handler()}
	go s.hsrv.Serve(lis) //nolint:errcheck // Serve always returns on Close
	return lis.Addr().String(), nil
}

// Close stops the listener and aborts in-flight requests (including
// /events streams). Safe to call when Start was never called. For a
// graceful stop that lets in-flight scrapes finish, use Shutdown.
func (s *Server) Close() error {
	s.drainOnce.Do(func() { close(s.drain) })
	if s.hsrv == nil {
		return nil
	}
	return s.hsrv.Close()
}

// Shutdown stops the server gracefully: streaming handlers (/events) are
// told to finish their current event and return, no new connections are
// accepted, and in-flight requests drain until ctx expires (after which
// the caller should fall back to Close). Safe to call when Start was never
// called — an embedded Handler-only server (the multi-tenant service
// multiplexes one per run) still gets its streams released. Safe to call
// more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() { close(s.drain) })
	if s.hsrv == nil {
		return nil
	}
	return s.hsrv.Shutdown(ctx)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.src.Registry == nil {
		http.Error(w, "no metrics registry attached", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Render under the lock too: a snapshot's histogram counts alias the
	// live histograms, which the simulation driver writes between slices.
	s.mu.Lock()
	defer s.mu.Unlock()
	metrics.WritePrometheus(w, s.src.Registry.Snapshot()) //nolint:errcheck // client gone mid-write
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	if s.src.Registry == nil {
		http.Error(w, "no metrics registry attached", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Registry.WriteJSON(w) //nolint:errcheck // client gone mid-write
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.src.Health == nil {
		http.Error(w, "no health source attached", http.StatusServiceUnavailable)
		return
	}
	s.mu.Lock()
	h := s.src.Health()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	// "ok" is a live loop, "complete" a finished one; both are healthy.
	// Everything else (telemetry-stale, ...) is a degradation → 503.
	if h.Status != "ok" && h.Status != "complete" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, h)
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	if s.src.State == nil {
		http.Error(w, "no state source attached", http.StatusNotFound)
		return
	}
	s.mu.Lock()
	st := s.src.State()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	WriteState(w, st) //nolint:errcheck // client gone mid-write
}

// handleQuery serves range queries over the metric history:
// /query?metric=NAME&from=S&to=S&step=S (all times in virtual seconds).
// Omitted bounds default to the full retained range; step is a resolution
// hint selecting a rollup tier (the response reports the tier cadence
// actually served). With no metric parameter the handler lists the
// queryable series. Responses are deterministic: same history, same
// query, same bytes.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	h := s.src.History
	if h == nil {
		http.Error(w, "no metric history attached; run with history enabled", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	name := q.Get("metric")
	w.Header().Set("Content-Type", "application/json")
	if name == "" {
		s.mu.Lock()
		names := h.Names()
		s.mu.Unlock()
		writeJSON(w, struct {
			Metrics []string `json:"metrics"`
		}{Metrics: names})
		return
	}
	parse := func(key string, def simulator.Time) (simulator.Time, bool) {
		v := q.Get(key)
		if v == "" {
			return def, true
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad %s: %q", key, v), http.StatusBadRequest)
			return 0, false
		}
		return simulator.Time(n), true
	}
	s.mu.Lock()
	last, _ := h.Now()
	s.mu.Unlock()
	from, ok := parse("from", 0)
	if !ok {
		return
	}
	to, ok := parse("to", last)
	if !ok {
		return
	}
	step, ok := parse("step", 0)
	if !ok {
		return
	}
	s.mu.Lock()
	samples, tierStep, found := h.Query(name, from, to, step)
	s.mu.Unlock()
	if !found {
		http.Error(w, fmt.Sprintf("unknown metric %q (GET /query for the list)", name), http.StatusNotFound)
		return
	}
	tsdb.WriteQueryJSON(w, name, tierStep, from, to, samples) //nolint:errcheck // client gone mid-write
}

// handleEvents streams trace events as server-sent events: each event is
// one `data:` line holding the same single-line JSON object the JSONL
// export writes. The subscription is bounded and non-blocking — a slow
// client loses events (counted in ops.events_dropped) rather than slowing
// the simulation. ?buf=N sizes the subscriber buffer, clamped to
// [1, 65536]; a missing or unparseable value selects the default (1024).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.src.Tracer == nil {
		http.Error(w, "tracing disabled; run with a tracer attached", http.StatusServiceUnavailable)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, cancel := s.src.Tracer.Subscribe(eventsBuf(r.URL.Query().Get("buf")))
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.drain:
			// Graceful shutdown: finish the stream so Shutdown can drain
			// instead of hanging on a never-ending SSE connection.
			return
		case ev, open := <-ch:
			if !open {
				return
			}
			if _, err := fmt.Fprint(w, "data: "); err != nil {
				return
			}
			if err := trace.WriteEvent(w, &ev); err != nil {
				return
			}
			if _, err := fmt.Fprint(w, "\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// eventsBuf parses the ?buf=N subscriber-buffer size: clamped to
// [1, 65536] so a client can neither disable the buffer nor demand an
// unbounded one; parse failures and absence fall back to 0, which selects
// the tracer's default (1024).
func eventsBuf(q string) int {
	if q == "" {
		return 0
	}
	n, err := strconv.Atoi(q)
	if err != nil {
		return 0
	}
	if n < 1 {
		return 1
	}
	if n > 65536 {
		return 65536
	}
	return n
}
