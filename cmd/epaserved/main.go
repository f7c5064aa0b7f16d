// Command epaserved hosts the multi-tenant simulation service: a REST/JSON
// control plane that launches, runs, and tears down many concurrent site
// simulations per process. Each hosted run owns its engine, registry, and
// tracer, so its report is byte-identical to the same seed/profile run
// under standalone epasim.
//
// Usage:
//
//	epaserved -addr :8080
//	curl -s -X POST localhost:8080/runs \
//	     -d '{"tenant":"acme","site":"cineca","seed":9,"jobs":50,"days":2}'
//	curl -s localhost:8080/runs/r1
//	curl -s localhost:8080/runs/r1/report
//
// Robustness knobs: -max-runs bounds the run table, -max-active the
// concurrent execution slots, -tenant-active each tenant's live runs
// (excess requests shed with 429 + Retry-After), -idle-ttl reaps
// untouched terminal runs, -req-timeout and -stream-timeout deadline
// every request, and -drain bounds the graceful shutdown on
// SIGINT/SIGTERM (in-flight runs finish inside the window; past it they
// are hard-stopped at their next slice).
//
// Durability: -journal <dir> writes every run-table transition to a
// write-ahead log (accepted specs fsynced before the client's 202,
// terminal states with their reports before the table moves on) and
// replays it at startup. After a crash — SIGKILL included — terminal
// runs reload as metadata with fetchable reports, interrupted runs
// re-execute deterministically from their journaled specs (same seed,
// byte-identical report), and queued runs re-enter fair-share
// arbitration: zero accepted-then-lost. -wal-max bounds the journal
// size via compacting snapshot rotation.
//
// Observability: -access-log <file> ('-' for stderr) writes one
// structured JSONL line per request — request ID, verb, endpoint,
// status, latency, and whatever the handler learned (run, tenant,
// shed reason, recovered flag). -blackbox <file> arms an
// in-memory flight recorder (-flight-cap bounds its ring) that dumps
// recent service events plus in-flight request IDs to the file on
// SIGQUIT, a run panic, or the journal failing closed; SIGQUIT is a
// dump trigger only — the server keeps serving. Per-endpoint latency
// histograms, in-flight gauges, and journal fsync timings ride the
// existing /metrics exposition.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"epajsrm/internal/flight"
	"epajsrm/internal/service"
	"epajsrm/internal/simulator"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil))
}

// run is main with its environment explicit; ready (when non-nil)
// receives the bound address once the listener is up, which lets tests
// drive a real server in-process.
func run(args []string, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("epaserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := service.Default()
	addr := fs.String("addr", ":8080", "listen address")
	maxRuns := fs.Int("max-runs", def.MaxRuns, "run-table bound (queued+running+unreaped); beyond it requests shed with 429")
	maxActive := fs.Int("max-active", def.MaxActive, "concurrent execution slots")
	tenantActive := fs.Int("tenant-active", def.TenantActive, "per-tenant live-run quota")
	idleTTL := fs.Duration("idle-ttl", def.IdleTTL, "reap terminal runs untouched for this long")
	reqTimeout := fs.Duration("req-timeout", def.RequestTimeout, "per-request deadline on unary endpoints")
	streamTimeout := fs.Duration("stream-timeout", def.StreamTimeout, "deadline on /events SSE streams")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain window on SIGINT/SIGTERM")
	halfLife := fs.Duration("halflife", def.HalfLife, "fair-share ledger decay half-life")
	journalDir := fs.String("journal", "", "write-ahead journal directory; empty disables durability")
	walMax := fs.Int64("wal-max", 0, "journal segment bytes before a compacting rotation (0: journal default)")
	slice := fs.Duration("slice", time.Duration(def.Slice)*time.Second, "virtual-time quantum a run advances per lock acquisition")
	accessLog := fs.String("access-log", "", "structured JSONL access log file ('-' = stderr); empty disables")
	blackBox := fs.String("blackbox", "", "flight-recorder dump file, written on SIGQUIT, run panic, or journal fail-closed; empty disables the recorder")
	flightCap := fs.Int("flight-cap", 0, "flight-recorder ring capacity (0: default)")
	historyStep := fs.Duration("history-step", 0, "metric-history sampling cadence in virtual time for /runs/{id}/query (0: 1 virtual minute)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := def
	cfg.MaxRuns = *maxRuns
	cfg.MaxActive = *maxActive
	cfg.TenantActive = *tenantActive
	cfg.IdleTTL = *idleTTL
	cfg.RequestTimeout = *reqTimeout
	cfg.StreamTimeout = *streamTimeout
	cfg.HalfLife = *halfLife
	cfg.JournalDir = *journalDir
	cfg.JournalMaxBytes = *walMax
	if *slice > 0 {
		cfg.Slice = simulator.Time(*slice / time.Second)
	}
	if *historyStep > 0 {
		cfg.HistoryStep = simulator.Time(*historyStep / time.Second)
	}
	switch *accessLog {
	case "":
	case "-":
		cfg.AccessLog = stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "epaserved: %v\n", err)
			return 1
		}
		defer f.Close()
		cfg.AccessLog = f
	}
	var rec *flight.Recorder
	if *blackBox != "" {
		rec = flight.New(*flightCap)
		cfg.Flight = rec
		cfg.BlackBox = *blackBox
	}
	svc, err := service.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "epaserved: %v\n", err)
		return 1
	}
	if *journalDir != "" {
		rec := svc.Recovery()
		fmt.Fprintf(stderr, "epaserved: journal %s — replayed %d records: %d terminal reloaded, %d interrupted re-admitted, %d queued re-entered",
			*journalDir, rec.Replayed, rec.Terminal, rec.Interrupted, rec.Requeued)
		if rec.TornTail {
			fmt.Fprint(stderr, " (torn tail truncated)")
		}
		fmt.Fprintln(stderr)
	}

	bound, closeHTTP, err := svc.Serve(*addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "epaserved: serving on http://%s (max-runs %d, max-active %d, tenant quota %d)\n",
		bound, cfg.MaxRuns, cfg.MaxActive, cfg.TenantActive)
	if ready != nil {
		ready <- bound
	}

	// SIGQUIT is the black-box trigger, not a shutdown: dump the flight
	// recorder and keep serving, so an operator can snapshot a live
	// incident without taking the service down.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
	var got os.Signal
	for got = range sig {
		if got != syscall.SIGQUIT {
			break
		}
		if rec == nil {
			fmt.Fprintln(stderr, "epaserved: SIGQUIT ignored (no -blackbox)")
			continue
		}
		if err := rec.Dump(*blackBox, "SIGQUIT"); err != nil {
			fmt.Fprintf(stderr, "epaserved: black box: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "epaserved: SIGQUIT — black box dumped to %s\n", *blackBox)
		}
	}
	fmt.Fprintf(stderr, "epaserved: %s — draining (window %s)\n", got, *drain)

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the service first: admission flips to 503 + Retry-After, SSE
	// streams are released, queued runs cancel, in-flight runs finish
	// inside the window. Only then drain the listener — its remaining
	// requests are all fast once no stream can hold a connection open.
	svcErr := svc.Shutdown(ctx)
	if err := closeHTTP(ctx); err != nil {
		fmt.Fprintf(stderr, "epaserved: http drain: %v\n", err)
	}
	if svcErr != nil {
		fmt.Fprintf(stderr, "epaserved: drain incomplete: %v\n", svcErr)
		return 1
	}
	fmt.Fprintln(stderr, "epaserved: drained cleanly")
	return 0
}
