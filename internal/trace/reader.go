package trace

// Reader side of the trace formats: parse a Chrome trace_event document or
// a JSONL stream (both written by this package) back into typed Events, so
// offline tooling (cmd/traceanalyze) works on the same structures the
// control loop emitted instead of raw JSON maps.
//
// Arg order is preserved exactly: events are decoded token-by-token with
// encoding/json's streaming Decoder rather than into Go maps, whose
// iteration order would destroy the writer's deterministic arg ordering.
//
// Numeric fidelity: the writers print integers without a decimal point and
// floats in shortest round-trip form, so the reader maps JSON numbers
// without '.', 'e', or 'E' to int64 and everything else to float64. An
// arg emitted as a Go int (or simulator.Time) therefore reads back as
// int64, and a float64 holding an integral value reads back as int64 too —
// the formats do not distinguish them. ArgFloat on Event absorbs that for
// consumers.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"epajsrm/internal/simulator"
)

// Meta carries the metadata records of a Chrome export: track (process)
// and thread display names.
type Meta struct {
	ProcessNames map[int]string
	ThreadNames  map[int]string
}

// Read parses a trace in either supported form, sniffing the format: a
// document whose first value is an object with a traceEvents key is Chrome
// trace_event JSON, anything else is treated as JSONL. The returned Meta
// is empty (never nil) for JSONL input, which carries no metadata records.
func Read(r io.Reader) ([]Event, *Meta, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, _ := br.Peek(64)
	if bytes.HasPrefix(bytes.TrimLeft(head, " \t\r\n"), []byte(`{"traceEvents"`)) {
		return ReadChrome(br)
	}
	evs, err := ReadJSONL(br)
	return evs, &Meta{ProcessNames: map[int]string{}, ThreadNames: map[int]string{}}, err
}

// ReadChrome parses a Chrome trace_event document (the object form with a
// traceEvents array) into events plus the metadata name records. Events
// are returned in document order, which for files written by WriteChrome
// is the stable export order.
func ReadChrome(r io.Reader) ([]Event, *Meta, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	meta := &Meta{ProcessNames: map[int]string{}, ThreadNames: map[int]string{}}
	if err := expectDelim(dec, '{'); err != nil {
		return nil, nil, fmt.Errorf("trace: not a Chrome trace document: %w", err)
	}
	var events []Event
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, nil, err
		}
		key, _ := keyTok.(string)
		if key != "traceEvents" {
			// Unknown top-level field (displayTimeUnit etc.): skip its value.
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return nil, nil, err
			}
			continue
		}
		if err := expectDelim(dec, '['); err != nil {
			return nil, nil, err
		}
		for dec.More() {
			ev, err := decodeEvent(dec)
			if err != nil {
				return nil, nil, err
			}
			if ev.Ph == "M" {
				name := ""
				if len(ev.Args) > 0 {
					name, _ = ev.Args[0].Val.(string)
				}
				switch ev.Name {
				case "process_name":
					meta.ProcessNames[ev.Pid] = name
				case "thread_name":
					meta.ThreadNames[ev.Tid] = name
				}
				continue
			}
			events = append(events, ev)
		}
		if err := expectDelim(dec, ']'); err != nil {
			return nil, nil, err
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return nil, nil, err
	}
	return events, meta, nil
}

// ReadJSONL parses a stream of one-JSON-object-per-line events (the
// WriteJSONL form; blank lines are tolerated) in input order.
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var events []Event
	for {
		ev, err := decodeEvent(dec)
		if errors.Is(err, io.EOF) {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
		if ev.Ph == "M" {
			continue
		}
		events = append(events, ev)
	}
}

// ArgFloat returns the named arg as a float64 (converting an integer form)
// and whether it was present.
func (e *Event) ArgFloat(key string) (float64, bool) {
	for _, a := range e.Args {
		if a.Key != key {
			continue
		}
		switch v := a.Val.(type) {
		case float64:
			return v, true
		case int64:
			return float64(v), true
		case int:
			return float64(v), true
		case simulator.Time:
			return float64(v), true
		}
		return 0, false
	}
	return 0, false
}

// ArgString returns the named arg as a string and whether it was present
// with that type.
func (e *Event) ArgString(key string) (string, bool) {
	for _, a := range e.Args {
		if a.Key == key {
			s, ok := a.Val.(string)
			return s, ok
		}
	}
	return "", false
}

// ArgBool returns the named arg as a bool and whether it was present with
// that type.
func (e *Event) ArgBool(key string) (bool, bool) {
	for _, a := range e.Args {
		if a.Key == key {
			b, ok := a.Val.(bool)
			return b, ok
		}
	}
	return false, false
}

// decodeEvent consumes one event object from dec (which must use
// UseNumber) and returns it with arg order preserved.
func decodeEvent(dec *json.Decoder) (Event, error) {
	var ev Event
	if err := expectDelim(dec, '{'); err != nil {
		return ev, err
	}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return ev, err
		}
		key, ok := keyTok.(string)
		if !ok {
			return ev, fmt.Errorf("trace: event key is %T, want string", keyTok)
		}
		if key == "args" {
			if err := expectDelim(dec, '{'); err != nil {
				return ev, err
			}
			for dec.More() {
				akTok, err := dec.Token()
				if err != nil {
					return ev, err
				}
				ak, _ := akTok.(string)
				av, err := decodeScalar(dec)
				if err != nil {
					return ev, fmt.Errorf("trace: arg %q: %w", ak, err)
				}
				ev.Args = append(ev.Args, Arg{Key: ak, Val: av})
			}
			if err := expectDelim(dec, '}'); err != nil {
				return ev, err
			}
			continue
		}
		v, err := decodeScalar(dec)
		if err != nil {
			return ev, fmt.Errorf("trace: field %q: %w", key, err)
		}
		switch key {
		case "ph":
			ev.Ph, _ = v.(string)
		case "name":
			ev.Name, _ = v.(string)
		case "pid":
			ev.Pid = int(asInt(v))
		case "tid":
			ev.Tid = int(asInt(v))
		case "ts":
			ev.Ts = simulator.Time(asInt(v))
		case "dur":
			ev.Dur = simulator.Time(asInt(v))
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return ev, err
	}
	return ev, nil
}

// decodeScalar reads one scalar JSON value: string, bool, null, or number
// (int64 when the literal has no fraction/exponent, float64 otherwise).
func decodeScalar(dec *json.Decoder) (any, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	switch v := tok.(type) {
	case string:
		return v, nil
	case bool:
		return v, nil
	case nil:
		return nil, nil
	case json.Number:
		s := v.String()
		if !strings.ContainsAny(s, ".eE") {
			if n, err := v.Int64(); err == nil {
				return n, nil
			}
		}
		f, err := v.Float64()
		return f, err
	case json.Delim:
		return nil, fmt.Errorf("unexpected %v, want scalar", v)
	default:
		return nil, fmt.Errorf("unexpected token %T", tok)
	}
}

func asInt(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case float64:
		return int64(x)
	}
	return 0
}

func expectDelim(dec *json.Decoder, d rune) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if dl, ok := tok.(json.Delim); !ok || rune(dl) != d {
		return fmt.Errorf("trace: unexpected token %v, want %q", tok, d)
	}
	return nil
}
