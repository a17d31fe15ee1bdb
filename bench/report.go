//go:build linux

package main

import "fmt"

// report is the outcome of one run of one workload: what was attempted,
// what failed, the metrics by name, and lines for the human reader.
type report struct {
	attempted int
	failed    int
	metrics   map[string]float64
	// notes are extra lines for the printed report: sample counts,
	// quartiles, the ISSUE-level names of a generic metric.
	notes []string
	// invalid lists broken validity rules. They are about the load
	// generator, not the system: a run that breaks one measured the
	// generator and prints INVALID instead of numbers.
	invalid []string
	// failures describes the first few failed operations.
	failures []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// ok counts one attempted operation that passed.
func (r *report) ok() { r.attempted++ }

// fail counts one attempted operation that failed.
func (r *report) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation, failed unless cond holds.
func (r *report) check(cond bool, format string, args ...any) {
	if cond {
		r.ok()
		return
	}
	r.fail(format, args...)
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}
