package service

// The request-telemetry edge: every HTTP request gets an ID at the door
// (or keeps the one it arrived with), and that ID follows the request
// through the access log, the flight recorder, and — for admissions and
// deletions — into the write-ahead journal, so a post-mortem can walk
// from a client's X-Request-Id header to the exact journal record it
// committed. The middleware also owns the per-endpoint latency
// histograms and the in-flight gauge; handlers annotate the in-context
// reqInfo with what they learned (run ID, tenant, shed reason, the
// run's recovered flag) and the middleware folds those annotations into
// the structured access-log line after the response is written.

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"epajsrm/internal/metrics"
)

// reqInfo rides the request context from the middleware into the
// handlers. Annotations are mutex-guarded because http.TimeoutHandler
// runs the inner handler on its own goroutine: when a request blows its
// deadline the middleware logs the 503 while the handler may still be
// annotating.
type reqInfo struct {
	id string // assigned at the edge, immutable

	mu        sync.Mutex
	run       string // run ID the request touched or created
	tenant    string
	shed      string // admission shed reason, when the request was refused
	recovered bool   // the touched run was journal-recovered
}

// annotate applies fn under the info lock; safe on nil (requests that
// bypass the middleware, e.g. direct route tests).
func (ri *reqInfo) annotate(fn func(*reqInfo)) {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	fn(ri)
	ri.mu.Unlock()
}

type reqKey struct{}

// reqFrom recovers the request's telemetry record from its context;
// nil when the middleware did not run.
func reqFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqKey{}).(*reqInfo)
	return ri
}

// reqID returns the request's edge ID, or "" without middleware.
func reqID(ctx context.Context) string {
	if ri := reqFrom(ctx); ri != nil {
		return ri.id
	}
	return ""
}

// requestID honors a well-formed client-supplied X-Request-Id (so a
// caller can correlate across its own systems) and otherwise mints a
// process-unique one. Client IDs are sanitized, not trusted: anything
// long or outside [A-Za-z0-9._-] is replaced, never echoed.
func (s *Service) requestID(r *http.Request) string {
	if id := sanitizeReqID(r.Header.Get("X-Request-Id")); id != "" {
		return id
	}
	return fmt.Sprintf("q%d", s.reqSeq.Add(1))
}

func sanitizeReqID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}

// endpointOf collapses a request path onto the fixed endpoint taxonomy
// so the latency metrics stay bounded: run IDs never become metric
// names, and unknown paths share one "other" bucket.
func endpointOf(path string) string {
	p := strings.TrimSuffix(path, "/")
	switch p {
	case "":
		return "index"
	case "/healthz":
		return "healthz"
	case "/metrics":
		return "metrics"
	case "/metrics.json":
		return "metrics_json"
	case "/runs":
		return "runs"
	}
	if rest, ok := strings.CutPrefix(p, "/runs/"); ok {
		_, sub, has := strings.Cut(rest, "/")
		if !has {
			return "run"
		}
		switch sub {
		case "report", "metrics", "metrics.json", "healthz", "state", "events":
			return "run_" + strings.ReplaceAll(sub, ".", "_")
		}
	}
	return "other"
}

// verbOf bounds the method the same way: the known verbs keep their
// names, anything exotic shares "other".
func verbOf(method string) string {
	switch method {
	case http.MethodGet:
		return "get"
	case http.MethodPost:
		return "post"
	case http.MethodDelete:
		return "delete"
	case http.MethodHead:
		return "head"
	case http.MethodPut:
		return "put"
	case http.MethodPatch:
		return "patch"
	case http.MethodOptions:
		return "options"
	}
	return "other"
}

// latencyBoundsMS spans sub-millisecond metadata reads through the
// 10-second unary deadline.
var latencyBoundsMS = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// latencyHist returns (registering on first use) the histogram for one
// verb × endpoint cell. Registration takes the service mutex — the
// registry is guarded by it — but the steady state is one lock-free map
// read plus the histogram's own mutex.
func (s *Service) latencyHist(name string) *metrics.SyncHistogram {
	s.httpMu.Lock()
	h, ok := s.httpHists[name]
	s.httpMu.Unlock()
	if ok {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if h, ok = s.httpHists[name]; !ok {
		h = s.reg.SyncHistogram(name, latencyBoundsMS...)
		s.httpHists[name] = h
	}
	return h
}

// statusWriter captures the response status for the access log and
// latency metrics. It forwards Flush so the SSE /events stream keeps
// working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// telemetry is the outermost middleware: it wraps even the timeout
// handler, so a deadline 503 is logged and measured like any other
// response, with the true wall time the client experienced.
func (s *Service) telemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ri := &reqInfo{id: s.requestID(r)}
		w.Header().Set("X-Request-Id", ri.id)
		sw := &statusWriter{ResponseWriter: w}
		ep := endpointOf(r.URL.Path)
		s.inFlight.Add(1)
		s.fr.RequestStart(ri.id, r.Method+" "+r.URL.Path)
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqKey{}, ri)))
		dur := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.inFlight.Add(-1)
		s.latencyHist("http.latency_ms." + verbOf(r.Method) + "." + ep).
			Observe(float64(dur) / float64(time.Millisecond))
		s.fr.RequestEnd(ri.id, fmt.Sprintf("%d %s", status, ep))
		if s.access == nil {
			return
		}
		attrs := []slog.Attr{
			slog.String("req", ri.id),
			slog.String("verb", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("endpoint", ep),
			slog.Int("status", status),
			slog.Float64("dur_ms", float64(dur)/float64(time.Millisecond)),
		}
		ri.mu.Lock()
		run, tenant, shed, recovered := ri.run, ri.tenant, ri.shed, ri.recovered
		ri.mu.Unlock()
		if run != "" {
			attrs = append(attrs, slog.String("run", run))
		}
		if tenant != "" {
			attrs = append(attrs, slog.String("tenant", tenant))
		}
		if shed != "" {
			attrs = append(attrs, slog.String("shed", shed))
		}
		if recovered {
			attrs = append(attrs, slog.Bool("recovered", true))
		}
		s.access.LogAttrs(context.Background(), slog.LevelInfo, "http", attrs...)
	})
}
