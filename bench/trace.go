//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the bench's side of
// the call. Spans of one simulation run share a Run id; Parent is the
// span that caused this one (0 for the root). CPU is what the whole
// bench process burned between Start and End: the traced run makes its
// calls one at a time, so that is the call plus what it set off on other
// goroutines — the collector, the far side of an RTR sync — which the
// caller's wall time does not show and a sweep still pays for.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"`
}

// tracer keeps spans in memory and writes them out when the traced run
// ends. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(name string, parent, run int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name,
		Start: int64(time.Since(t.t0)), CPU: -int64(processCPU())})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.CPU += int64(processCPU())
	return time.Duration(s.End - s.Start)
}

// timed records fn as one span.
func (t *tracer) timed(name string, parent, run int, fn func()) time.Duration {
	id := t.begin(name, parent, run)
	fn()
	return t.end(id)
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover, the same for its CPU, and counts the spans.
func (t *tracer) selfTimes() (self, selfCPU map[string]time.Duration, count map[string]int) {
	children := make([]int64, len(t.spans)+1)
	childrenCPU := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
		childrenCPU[s.Parent] += s.CPU
	}
	self, selfCPU = map[string]time.Duration{}, map[string]time.Duration{}
	count = map[string]int{}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - children[s.ID])
		selfCPU[s.Name] += time.Duration(s.CPU - childrenCPU[s.ID])
		count[s.Name]++
	}
	return self, selfCPU, count
}

// write stores the spans as JSON lines in bench/out/trace-<name>.jsonl.
func (t *tracer) write(e *env, name string) (string, error) {
	dir := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
