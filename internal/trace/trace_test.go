package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"epajsrm/internal/simulator"
)

func sampleTracer() *Tracer {
	tr := New()
	tr.SetThreadName(17, "job 17")
	tr.Span(PidJobs, 17, "run", 100, 350,
		Arg{"energy_j", 1234.5}, Arg{"nodes", 4}, Arg{"reason", "completed"})
	tr.Span(PidJobs, 17, "queue-wait", 10, 100)
	tr.Instant(PidSched, 0, "backfill", 100, Arg{"job", int64(17)}, Arg{"ok", true})
	tr.Counter(PidPower, "it_power_w", 120, 2500.25)
	tr.Instant(PidFault, 0, "node-crash", 300, Arg{"node", 3})
	return tr
}

func TestChromeExportParsesAndIsOrdered(t *testing.T) {
	var b bytes.Buffer
	if err := sampleTracer().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, b.String())
	}
	// 5 process_name + 1 thread_name metadata records, then 5 events.
	if len(doc.TraceEvents) != 11 {
		t.Fatalf("got %d records, want 11:\n%s", len(doc.TraceEvents), b.String())
	}
	var lastTs float64 = -1
	sawSpan, sawCounter := false, false
	for _, ev := range doc.TraceEvents {
		ph := ev["ph"].(string)
		if ph == "M" {
			continue
		}
		ts := ev["ts"].(float64)
		if ts < lastTs {
			t.Fatalf("events out of ts order: %v after %v", ts, lastTs)
		}
		lastTs = ts
		switch ph {
		case "X":
			sawSpan = true
			if ev["name"] == "run" {
				if ev["dur"].(float64) != 250 {
					t.Fatalf("run span dur = %v, want 250", ev["dur"])
				}
				args := ev["args"].(map[string]any)
				if args["energy_j"].(float64) != 1234.5 || args["reason"] != "completed" {
					t.Fatalf("run span args = %v", args)
				}
			}
		case "C":
			sawCounter = true
			if v := ev["args"].(map[string]any)["value"].(float64); v != 2500.25 {
				t.Fatalf("counter value = %v", v)
			}
		}
	}
	if !sawSpan || !sawCounter {
		t.Fatalf("missing span (%v) or counter (%v) in export", sawSpan, sawCounter)
	}
}

func TestJSONLOneValidObjectPerLine(t *testing.T) {
	var b bytes.Buffer
	if err := sampleTracer().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), b.String())
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, ln)
		}
	}
}

func TestExportByteDeterministic(t *testing.T) {
	var b1, b2 bytes.Buffer
	if err := sampleTracer().WriteChrome(&b1); err != nil {
		t.Fatal(err)
	}
	if err := sampleTracer().WriteChrome(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two identical tracers exported different chrome bytes")
	}
}

func TestNegativeSpanClampedToZero(t *testing.T) {
	tr := New()
	tr.Span(PidJobs, 1, "odd", 50, 40)
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Dur != 0 {
		t.Fatalf("events = %+v, want single zero-dur span", evs)
	}
}

func TestStableOrderForSameTimestamp(t *testing.T) {
	// Spans emitted out of start order must still export sorted by ts,
	// and ties break by pid/tid/name — never by emission order across
	// different tracks.
	tr := New()
	tr.Instant(PidFault, 0, "b", 100)
	tr.Instant(PidSched, 0, "a", 100)
	tr.Span(PidJobs, 2, "early", 5, 20)
	evs := tr.Events()
	if evs[0].Name != "early" || evs[1].Name != "a" || evs[2].Name != "b" {
		t.Fatalf("order = %q %q %q", evs[0].Name, evs[1].Name, evs[2].Name)
	}
}

func TestVirtualTimestampsOnly(t *testing.T) {
	// The tracer's timestamps are simulator.Time passed by the caller;
	// exporting twice from tracers built identically must agree even if
	// wall time has advanced between builds (no time.Now anywhere).
	tr := New()
	at := simulator.Time(42)
	tr.Instant(PidSched, 0, "tick", at)
	evs := tr.Events()
	if evs[0].Ts != at {
		t.Fatalf("ts = %v, want %v", evs[0].Ts, at)
	}
}

// TestStreamingTracerKeepsNoHistory: a streaming tracer delivers every
// event to a live subscriber, in emission order, and retains none.
func TestStreamingTracerKeepsNoHistory(t *testing.T) {
	tr := NewStreaming()
	tr.Instant(PidSched, 0, "before-subscribe", 1)
	ch, cancel := tr.Subscribe(8)
	tr.Span(PidJobs, 17, "run", 100, 350, Arg{"nodes", 4})
	tr.Counter(PidPower, "it_power_w", 120, 2500.25)
	cancel()
	var names []string
	for e := range ch {
		names = append(names, e.Name)
	}
	if strings.Join(names, ",") != "run,it_power_w" {
		t.Fatalf("subscriber saw %v, want [run it_power_w]", names)
	}
	if tr.Len() != 0 || len(tr.Events()) != 0 {
		t.Fatalf("streaming tracer retained %d events", tr.Len())
	}
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil || b.Len() != 0 {
		t.Fatalf("JSONL export of a streaming tracer = %q, %v; want empty", b.String(), err)
	}
}
