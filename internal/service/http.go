package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// RunInfo is the JSON view of a hosted run.
type RunInfo struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Site   string `json:"site"`
	Seed   uint64 `json:"seed"`
	Jobs   int    `json:"jobs"`
	Days   int    `json:"days"`
	State  string `json:"state"`
	Reason string `json:"reason,omitempty"`
	// Recovered marks a run the journal re-admitted after a crash (it
	// re-entered the queue and, if it had started, re-executes
	// deterministically from its journaled spec).
	Recovered bool  `json:"recovered,omitempty"`
	Created   int64 `json:"created_unix_ms"`
	Started   int64 `json:"started_unix_ms,omitempty"`
	Ended     int64 `json:"ended_unix_ms,omitempty"`
	SimEndS   int64 `json:"sim_end_s,omitempty"`
}

// infoLocked renders a run's JSON view; the service mutex must be held.
func infoLocked(r *Run) RunInfo {
	info := RunInfo{
		ID: r.ID, Tenant: r.Spec.Tenant, Site: r.Spec.Site,
		Seed: r.Spec.Seed, Jobs: r.Spec.Jobs, Days: r.Spec.Days,
		State: string(r.state), Reason: r.reason,
		Recovered: r.recovered,
		Created:   r.created.UnixMilli(),
	}
	if !r.started.IsZero() {
		info.Started = r.started.UnixMilli()
	}
	if !r.ended.IsZero() {
		info.Ended = r.ended.UnixMilli()
	}
	if r.state == StateComplete {
		info.SimEndS = int64(r.end)
	}
	return info
}

// Handler returns the service's HTTP surface:
//
//	GET    /healthz              service census (503 while draining)
//	GET    /metrics              service-level Prometheus exposition
//	GET    /metrics.json         service-level registry snapshot
//	POST   /runs                 submit a run (202, or 400/429/503)
//	GET    /runs[?tenant=t]      list runs
//	GET    /runs/{id}            one run's status
//	DELETE /runs/{id}            cancel (running), or delete (terminal)
//	GET    /runs/{id}/report     the finished run's report (epasim bytes)
//	GET    /runs/{id}/metrics    per-run ops plane, multiplexed from
//	       .../metrics.json      internal/ops — same handlers epasim -http
//	       .../healthz           serves for a single run
//	       .../state
//	       .../events            SSE trace stream (StreamTimeout deadline)
//	       .../query             range queries over the run's metric history
//
// Every unary endpoint runs under http.TimeoutHandler with RequestTimeout
// (a request that blows the deadline gets 503); /events streams instead
// carry a context deadline of StreamTimeout, so a client cannot hold a
// stream open forever.
//
// The shed protocol holds on every degraded admission response: a POST
// /runs that is refused — 429 at quota, 503 draining, or 503 because the
// request blew its deadline under load — always carries Retry-After. The
// deadline case is covered by pre-setting the header before the timeout
// wrapper (TimeoutHandler's own 503 cannot add headers); an accepted 202
// keeps that floor value as a poll hint, and a real shed overwrites it
// with the backlog-scaled one.
func (s *Service) Handler() http.Handler {
	inner := http.HandlerFunc(s.route)
	unary := http.TimeoutHandler(inner, s.cfg.RequestTimeout, "request deadline exceeded\n")
	// The telemetry middleware wraps everything — timeout handler
	// included — so a deadline 503 is logged and measured with the wall
	// time the client actually experienced.
	return s.telemetry(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.StreamTimeout)
			defer cancel()
			inner.ServeHTTP(w, r.WithContext(ctx))
			return
		}
		if r.Method == http.MethodPost && strings.TrimSuffix(r.URL.Path, "/") == "/runs" {
			w.Header().Set("Retry-After", "1")
		}
		unary.ServeHTTP(w, r)
	}))
}

// route is the manual dispatcher: the path shapes are too entangled with
// run IDs for ServeMux patterns, and keeping one switch makes the method
// checks and 404s uniform.
func (s *Service) route(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimSuffix(r.URL.Path, "/")
	switch {
	case path == "" && r.URL.Path == "/":
		s.handleIndex(w, r)
	case path == "/healthz":
		s.handleHealthz(w, r)
	case path == "/metrics":
		s.handleMetrics(w, r, false)
	case path == "/metrics.json":
		s.handleMetrics(w, r, true)
	case path == "/runs":
		switch r.Method {
		case http.MethodPost:
			s.handleSubmit(w, r)
		case http.MethodGet:
			s.handleList(w, r)
		default:
			httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
		}
	case strings.HasPrefix(path, "/runs/"):
		s.handleRun(w, r, strings.TrimPrefix(path, "/runs/"))
	default:
		httpError(w, http.StatusNotFound, "no such endpoint")
	}
}

func (s *Service) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `epaserved — multi-tenant EPA JSRM simulation service

POST   /runs                {"tenant","site","seed","jobs","days"}
GET    /runs[?tenant=t]     list runs
GET    /runs/{id}           status
DELETE /runs/{id}           cancel or delete
GET    /runs/{id}/report    finished run report (byte-identical to epasim)
GET    /runs/{id}/{metrics,metrics.json,healthz,state,events,query}
GET    /healthz /metrics /metrics.json
`)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if st.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, st)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request, asJSON bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if asJSON {
		w.Header().Set("Content-Type", "application/json")
		s.reg.WriteJSON(w) //nolint:errcheck // client gone mid-write
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w) //nolint:errcheck // client gone mid-write
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: "+err.Error())
		return
	}
	ri := reqFrom(r.Context())
	ri.annotate(func(ri *reqInfo) { ri.tenant = spec.Tenant })
	run, err := s.SubmitReq(spec, reqID(r.Context()))
	if err != nil {
		var shed *AdmissionError
		if errors.As(err, &shed) {
			ri.annotate(func(ri *reqInfo) { ri.shed = shed.Reason })
			w.Header().Set("Retry-After", strconv.Itoa(shed.RetryAfter))
			httpError(w, shed.Code, shed.Reason)
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ri.annotate(func(ri *reqInfo) { ri.run = run.ID })
	s.mu.Lock()
	info := infoLocked(run)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, info)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	s.mu.Lock()
	infos := make([]RunInfo, 0, len(s.runs))
	for _, run := range s.runs {
		if tenant != "" && run.Spec.Tenant != tenant {
			continue
		}
		infos = append(infos, infoLocked(run))
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return runSeq(infos[i].ID) < runSeq(infos[j].ID) })
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string]any{"runs": infos})
}

// runSeq recovers the admission sequence from a run ID ("r17" -> 17) for
// stable listing order.
func runSeq(id string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(id, "r"), 10, 64)
	return n
}

// handleRun dispatches /runs/{id} and /runs/{id}/{sub}.
func (s *Service) handleRun(w http.ResponseWriter, r *http.Request, rest string) {
	id, sub, _ := strings.Cut(rest, "/")
	run, ok := s.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	ri := reqFrom(r.Context())
	s.mu.Lock()
	tenant, recovered := run.Spec.Tenant, run.recovered
	s.mu.Unlock()
	ri.annotate(func(ri *reqInfo) {
		ri.run, ri.tenant, ri.recovered = id, tenant, recovered
	})
	if sub == "" {
		switch r.Method {
		case http.MethodGet:
			s.mu.Lock()
			info := infoLocked(run)
			s.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			writeJSON(w, info)
		case http.MethodDelete:
			state, _ := s.CancelReq(id, reqID(r.Context()))
			w.Header().Set("Content-Type", "application/json")
			writeJSON(w, map[string]string{"id": id, "state": string(state)})
		default:
			httpError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
		}
		return
	}
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if sub == "report" {
		s.handleReport(w, run)
		return
	}
	// The per-run ops plane: delegate to the run's own ops.Server handler,
	// which takes the run's state lock — never the service mutex — so a
	// scrape of one tenant's run cannot stall another's.
	s.mu.Lock()
	srv := run.srv
	state := run.state
	s.mu.Unlock()
	if srv == nil {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusConflict, "run not started (state "+string(state)+")")
		return
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/" + sub
	srv.Handler().ServeHTTP(w, r2)
}

func (s *Service) handleReport(w http.ResponseWriter, run *Run) {
	s.mu.Lock()
	state := run.state
	reason := run.reason
	report := run.report
	s.mu.Unlock()
	switch state {
	case StateComplete:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(report) //nolint:errcheck // client gone mid-write
	case StateFailed, StateCancelled:
		httpError(w, http.StatusGone, "run "+string(state)+": "+reason)
	default:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusConflict, "run not finished (state "+string(state)+")")
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	writeJSON(w, map[string]any{"error": msg, "code": code})
}

func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Write(b) //nolint:errcheck // client gone mid-write
}

// Serve starts a real listener over Handler and returns the bound
// address plus a closer that gracefully drains the HTTP server (the
// Service itself is shut down separately). Used by cmd/epaserved; tests
// use Handler directly.
func (s *Service) Serve(addr string) (string, func(ctx context.Context) error, error) {
	hsrv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("service: listen %s: %w", addr, err)
	}
	go hsrv.Serve(lis) //nolint:errcheck // Serve always returns on Shutdown/Close
	return lis.Addr().String(), hsrv.Shutdown, nil
}
