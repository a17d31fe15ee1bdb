package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Trace phases, a subset of the Chrome trace_event vocabulary.
const (
	// PhaseInstant is a point event ("i").
	PhaseInstant = "i"
	// PhaseSpan is a complete event with a duration ("X").
	PhaseSpan = "X"
	// PhaseCounter is a counter sample ("C").
	PhaseCounter = "C"
)

// TraceEvent is one structured trace record on the virtual clock.
type TraceEvent struct {
	// T is the virtual-clock offset from the start of the run.
	T time.Duration
	// Dur is the span length (spans only).
	Dur time.Duration
	// Phase is PhaseInstant, PhaseSpan or PhaseCounter.
	Phase string
	// Cat is the event's category — in sim traces, the bus topic. Each
	// distinct category renders as its own lane in the Chrome export.
	Cat string
	// Name is the event's human-readable identity.
	Name string
	// Args carries numeric payloads (counter tracks). encoding/json
	// renders map keys sorted, so Args never perturbs byte-identity.
	Args map[string]float64
}

// Trace is an append-only trace recorder. It is not safe for concurrent
// use — the sim engine appends from its single event-loop goroutine —
// and it holds timestamps from the virtual clock only, so a recorded
// run exports byte-identically no matter when or how fast it ran.
type Trace struct {
	events []TraceEvent
}

// NewTrace creates an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Instant records a point event.
func (t *Trace) Instant(at time.Duration, cat, name string) {
	t.events = append(t.events, TraceEvent{T: at, Phase: PhaseInstant, Cat: cat, Name: name})
}

// Span records a complete event covering [start, start+dur].
func (t *Trace) Span(start, dur time.Duration, cat, name string) {
	t.events = append(t.events, TraceEvent{T: start, Dur: dur, Phase: PhaseSpan, Cat: cat, Name: name})
}

// Counter records a counter sample: one named track with one or more
// numeric series.
func (t *Trace) Counter(at time.Duration, name string, values map[string]float64) {
	t.events = append(t.events, TraceEvent{T: at, Phase: PhaseCounter, Cat: "counter", Name: name, Args: values})
}

// Len is the number of recorded events.
func (t *Trace) Len() int { return len(t.events) }

// traceJSON is the serialised shape of one event: a fixed field order
// and microsecond integer timestamps, so exports are byte-stable.
type traceJSON struct {
	TUS   int64              `json:"t_us"`
	Ph    string             `json:"ph"`
	Cat   string             `json:"cat"`
	Name  string             `json:"name"`
	DurUS int64              `json:"dur_us,omitempty"`
	Args  map[string]float64 `json:"args,omitempty"`
}

func (ev *TraceEvent) jsonShape() traceJSON {
	return traceJSON{
		TUS:   ev.T.Microseconds(),
		Ph:    ev.Phase,
		Cat:   ev.Cat,
		Name:  ev.Name,
		DurUS: ev.Dur.Microseconds(),
		Args:  ev.Args,
	}
}

// WriteJSONL writes one JSON object per line in append order — the
// grep/jq-friendly export, and the one the CI determinism gate diffs
// byte-for-byte across same-seed runs.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range t.events {
		if err := enc.Encode(t.events[i].jsonShape()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteChrome writes the trace in Chrome trace_event format (a JSON
// object with a traceEvents array), loadable by chrome://tracing and
// Perfetto. Categories map to thread lanes in first-appearance order,
// each named by a thread_name metadata record, so a sim run reads as
// parallel lanes of ROA, BGP, RTR, RP and probe activity.
func (t *Trace) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[` + "\n"); err != nil {
		return err
	}
	lanes := make(map[string]int)
	first := true
	emit := func(v any) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = bw.Write(data)
		return err
	}
	lane := func(cat string) (int, error) {
		tid, ok := lanes[cat]
		if !ok {
			tid = len(lanes) + 1
			lanes[cat] = tid
			err := emit(map[string]any{
				"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
				"args": map[string]string{"name": cat},
			})
			if err != nil {
				return 0, err
			}
		}
		return tid, nil
	}
	for i := range t.events {
		ev := &t.events[i]
		tid, err := lane(ev.Cat)
		if err != nil {
			return err
		}
		rec := map[string]any{
			"ph": ev.Phase, "ts": ev.T.Microseconds(), "pid": 1, "tid": tid,
			"cat": ev.Cat, "name": ev.Name,
		}
		switch ev.Phase {
		case PhaseInstant:
			rec["s"] = "t" // thread-scoped instant
		case PhaseSpan:
			rec["dur"] = ev.Dur.Microseconds()
		case PhaseCounter:
			rec["args"] = ev.Args
		}
		if err := emit(rec); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFormat dispatches on a format name ("jsonl" or "chrome") — the
// shared flag-handling for CLIs exposing both exports.
func (t *Trace) WriteFormat(w io.Writer, format string) error {
	switch format {
	case "jsonl":
		return t.WriteJSONL(w)
	case "chrome":
		return t.WriteChrome(w)
	default:
		return fmt.Errorf("obs: unknown trace format %q (want jsonl or chrome)", format)
	}
}
