package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: ripki/internal/sweep
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSweep/workers=4-8         	       2	3489621020 ns/op	         9.170 runs/s	1017605704 B/op	 6232998 allocs/op
BenchmarkSweep/workers=4-8         	       2	3300000000 ns/op	         9.600 runs/s	1017605800 B/op	 6232999 allocs/op
BenchmarkSweep/shared/workers=4-8  	       2	2359750430 ns/op	        13.56 runs/s	817745672 B/op	 3374609 allocs/op
BenchmarkSimTick   	     100	  11400000 ns/op	  131072 B/op	    2048 allocs/op
PASS
ok  	ripki/internal/sweep	24.037s
`

func TestParseFoldsBestOf(t *testing.T) {
	got, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	// GOMAXPROCS suffix stripped; repeated runs folded to the minimum.
	sweep, ok := got["BenchmarkSweep/workers=4"]
	if !ok {
		t.Fatalf("normalised name missing: %v", got)
	}
	if sweep.NsPerOp != 3300000000 {
		t.Errorf("ns/op not folded to min: %v", sweep.NsPerOp)
	}
	if sweep.BPerOp != 1017605704 {
		t.Errorf("B/op not folded to min: %v", sweep.BPerOp)
	}
	if sweep.AllocsPerOp != 6232998 {
		t.Errorf("allocs/op not folded to min: %v", sweep.AllocsPerOp)
	}
	// Custom metrics between ns/op and B/op don't confuse the parser,
	// and a name with no GOMAXPROCS suffix survives normalisation.
	if got["BenchmarkSimTick"].BPerOp != 131072 {
		t.Errorf("SimTick B/op: %v", got["BenchmarkSimTick"].BPerOp)
	}
	if got["BenchmarkSimTick"].AllocsPerOp != 2048 {
		t.Errorf("SimTick allocs/op: %v", got["BenchmarkSimTick"].AllocsPerOp)
	}
	if len(got) != 3 {
		t.Errorf("parsed %d benchmarks, want 3", len(got))
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Error("no benchmark lines accepted")
	}
}

func TestCompareGate(t *testing.T) {
	base := &Baseline{Benchmarks: map[string]Entry{
		"BenchmarkSweep/workers=4": {BPerOp: 500},
		"BenchmarkSimTick":         {BPerOp: 50},
	}}
	// Within threshold (+20%, improvement): passes.
	ok := map[string]Entry{
		"BenchmarkSweep/workers=4": {NsPerOp: 1200, BPerOp: 600},
		"BenchmarkSimTick":         {NsPerOp: 90, BPerOp: 45},
	}
	if failures, _, _ := Compare(base, ok); len(failures) != 0 {
		t.Errorf("in-threshold run failed the gate: %v", failures)
	}
	// Time is not gated: a 10× slowdown alone passes, whatever machine
	// or neighbour caused it.
	slow := map[string]Entry{
		"BenchmarkSweep/workers=4": {NsPerOp: 12000, BPerOp: 500},
		"BenchmarkSimTick":         {NsPerOp: 900, BPerOp: 50},
	}
	if failures, _, _ := Compare(base, slow); len(failures) != 0 {
		t.Errorf("a slowdown alone failed the gate: %v", failures)
	}
	// +30% B/op is the edge and passes; +31% fails, alone.
	edge := map[string]Entry{
		"BenchmarkSweep/workers=4": {NsPerOp: 1000, BPerOp: 650},
		"BenchmarkSimTick":         {NsPerOp: 100, BPerOp: 50},
	}
	if failures, _, _ := Compare(base, edge); len(failures) != 0 {
		t.Errorf("+30%% B/op failed the gate: %v", failures)
	}
	edge["BenchmarkSweep/workers=4"] = Entry{NsPerOp: 1000, BPerOp: 655}
	failures, _, _ := Compare(base, edge)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkSweep/workers=4: B/op regressed 31.0%") {
		t.Errorf("+31%% B/op: want that failure alone, got %v", failures)
	}
	// A baselined benchmark vanishing from the input: fails.
	missing := map[string]Entry{
		"BenchmarkSimTick": {NsPerOp: 100, BPerOp: 50},
	}
	if failures, _, _ := Compare(base, missing); len(failures) != 1 {
		t.Errorf("missing benchmark not caught: %v", failures)
	}
	// New benchmarks not yet baselined warn, never fail — the landing
	// path for a benchmark added before its baseline refresh.
	extra := map[string]Entry{
		"BenchmarkSweep/workers=4": {NsPerOp: 1000, BPerOp: 500},
		"BenchmarkSimTick":         {NsPerOp: 100, BPerOp: 50},
		"BenchmarkNew":             {NsPerOp: 7, BPerOp: 7},
	}
	failures, warnings, _ := Compare(base, extra)
	if len(failures) != 0 {
		t.Errorf("unbaselined benchmark failed the gate: %v", failures)
	}
	if len(warnings) != 1 ||
		!strings.Contains(warnings[0], "BenchmarkNew") ||
		!strings.Contains(warnings[0], "not in baseline") {
		t.Errorf("unbaselined benchmark did not warn: %v", warnings)
	}
	// A fully-baselined run warns about nothing.
	if _, warnings, _ := Compare(base, ok); len(warnings) != 0 {
		t.Errorf("spurious warnings: %v", warnings)
	}
}

// TestCompareAllocsGate: allocation counts gate independently of bytes
// — and only when the baseline recorded a positive count, so baselines
// written before the allocation gate existed (AllocsPerOp zero-valued on
// decode) stay ungated.
func TestCompareAllocsGate(t *testing.T) {
	base := &Baseline{Benchmarks: map[string]Entry{
		"BenchmarkGated":   {BPerOp: 500, AllocsPerOp: 100},
		"BenchmarkLegacy":  {BPerOp: 500}, // pre-gate baseline: no allocs recorded
		"BenchmarkNoMemOp": {BPerOp: -1, AllocsPerOp: -1},
	}}
	// allocs/op +31% while B/op held: only the allocs gate trips, and
	// only on the benchmark whose baseline carries a count.
	cur := map[string]Entry{
		"BenchmarkGated":   {NsPerOp: 1000, BPerOp: 500, AllocsPerOp: 131},
		"BenchmarkLegacy":  {NsPerOp: 1000, BPerOp: 500, AllocsPerOp: 999999},
		"BenchmarkNoMemOp": {NsPerOp: 1000, BPerOp: -1, AllocsPerOp: -1},
	}
	failures, _, _ := Compare(base, cur)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkGated: allocs/op regressed 31.0%") {
		t.Errorf("allocs regression not isolated: %v", failures)
	}
	// Within threshold: passes, and the report carries the allocs line.
	ok := map[string]Entry{
		"BenchmarkGated":   {NsPerOp: 1000, BPerOp: 500, AllocsPerOp: 130},
		"BenchmarkLegacy":  {NsPerOp: 1000, BPerOp: 500, AllocsPerOp: 7},
		"BenchmarkNoMemOp": {NsPerOp: 1000, BPerOp: -1, AllocsPerOp: -1},
	}
	failures, _, report := Compare(base, ok)
	if len(failures) != 0 {
		t.Errorf("in-threshold allocs failed the gate: %v", failures)
	}
	var allocLines int
	for _, line := range report {
		if strings.Contains(line, "allocs/op") {
			allocLines++
		}
		if strings.Contains(line, "ns/op") {
			t.Errorf("the comparison reports a time: %q", line)
		}
	}
	if allocLines != 1 {
		t.Errorf("want exactly one allocs/op report line (the gated benchmark), got %d:\n%s",
			allocLines, strings.Join(report, "\n"))
	}
}

// TestBaselineFileHasNoTime: the baseline file records B/op and
// allocs/op only, and one written when time was gated still reads — its
// ns_per_op is ignored, not an error and not a gate.
func TestBaselineFileHasNoTime(t *testing.T) {
	data, err := json.Marshal(Baseline{Benchmarks: map[string]Entry{"BenchmarkX": {NsPerOp: 123, BPerOp: 500, AllocsPerOp: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "ns_per_op") || !strings.Contains(string(data), `"b_per_op":500,"allocs_per_op":9`) {
		t.Errorf("baseline written as %s", data)
	}
	var old Baseline
	if err := json.Unmarshal([]byte(`{"note": "old", "benchmarks": {"BenchmarkX": {"ns_per_op": 100, "b_per_op": 500, "allocs_per_op": 9}}}`), &old); err != nil {
		t.Fatalf("a baseline with ns_per_op does not read: %v", err)
	}
	if got := old.Benchmarks["BenchmarkX"]; got != (Entry{BPerOp: 500, AllocsPerOp: 9}) {
		t.Errorf("old baseline read as %+v", got)
	}
	cur := map[string]Entry{"BenchmarkX": {NsPerOp: 1000, BPerOp: 500, AllocsPerOp: 9}}
	if failures, _, _ := Compare(&old, cur); len(failures) != 0 {
		t.Errorf("ten times the old file's ns_per_op failed the gate: %v", failures)
	}
}

// TestBuildReport: the -json artifact carries the same verdict as the
// human-readable output — per-benchmark ratios, missing baselined
// benchmarks, unbaselined extras — plus the run's ns/op as information,
// and survives a JSON round trip.
func TestBuildReport(t *testing.T) {
	base := &Baseline{Benchmarks: map[string]Entry{
		"BenchmarkSweep/workers=4": {BPerOp: 500, AllocsPerOp: 10},
		"BenchmarkSimTick":         {BPerOp: 50},
	}}
	cur := map[string]Entry{
		"BenchmarkSweep/workers=4": {NsPerOp: 2000, BPerOp: 400, AllocsPerOp: 20},
		"BenchmarkNew":             {NsPerOp: 7, BPerOp: 7},
	}
	failures, _, _ := Compare(base, cur)
	rep := BuildReport("BENCH_baseline.json", base, cur, failures)

	if rep.Pass {
		t.Error("report passes despite failures")
	}
	if rep.Baseline != "BENCH_baseline.json" || rep.Threshold != 0.30 {
		t.Errorf("report header: %+v", rep)
	}
	sweep := rep.Benchmarks["BenchmarkSweep/workers=4"]
	if sweep.CurrentNsPerOp != 2000 || sweep.BRatio != 0.8 || sweep.AllocsRatio != 2.0 || sweep.Missing {
		t.Errorf("sweep entry: %+v", sweep)
	}
	tick := rep.Benchmarks["BenchmarkSimTick"]
	if !tick.Missing || tick.CurrentNsPerOp != -1 {
		t.Errorf("missing benchmark entry: %+v", tick)
	}
	if len(rep.Unbaselined) != 1 || rep.Unbaselined[0] != "BenchmarkNew" {
		t.Errorf("unbaselined: %v", rep.Unbaselined)
	}
	if len(rep.Failures) != 2 || len(rep.Failures) != len(failures) {
		t.Errorf("failures not carried: %v", rep.Failures)
	}

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Benchmarks["BenchmarkSweep/workers=4"].AllocsRatio != 2.0 || back.Benchmarks["BenchmarkSweep/workers=4"].CurrentNsPerOp != 2000 {
		t.Errorf("round trip lost data: %+v", back)
	}

	// A clean run reports pass and no failure list.
	clean := map[string]Entry{
		"BenchmarkSweep/workers=4": {NsPerOp: 1000, BPerOp: 500, AllocsPerOp: 10},
		"BenchmarkSimTick":         {NsPerOp: 100, BPerOp: 50},
	}
	cleanFailures, _, _ := Compare(base, clean)
	if rep := BuildReport("b.json", base, clean, cleanFailures); !rep.Pass || len(rep.Failures) != 0 || len(rep.Unbaselined) != 0 {
		t.Errorf("clean report: %+v", rep)
	}
}
