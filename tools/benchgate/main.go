// Command benchgate is the benchmark-regression gate: it parses `go
// test -bench -benchmem` output on stdin, folds repeated runs (-count N)
// to their best observation, and either records the result as a
// baseline or compares it against a committed one, failing on
// regression.
//
//	go test -run '^$' -bench 'BenchmarkSweep$' -benchmem -count 3 ./internal/sweep | \
//	    go run ./tools/benchgate -check BENCH_baseline.json
//	... | go run ./tools/benchgate -write BENCH_baseline.json
//	... | go run ./tools/benchgate -check BENCH_baseline.json -json bench-report.json
//
// -check -json also writes the comparison as a machine-readable report
// — per-benchmark baseline/current/ratio plus the pass/fail verdict —
// written on both pass and fail so CI can archive it as an artifact.
//
// The gate holds what no machine moves: it fails (exit 1) when any
// baselined benchmark's B/op or allocs/op worsens by more than 30 %
// (threshold), or when a baselined benchmark is missing from the input
// (a silent rename or deletion would otherwise retire its gate
// unnoticed). Benchmarks in the input but not the baseline WARN, never
// fail: a new benchmark must be able to land in the same change that
// introduces it, before the baseline refresh (make bench-baseline)
// starts gating it.
//
// Time is not gated here. ns/op means something only against the
// machine that wrote the baseline, and no knob loose enough to absorb
// the next machine is tight enough to catch a regression; the -json
// report carries the run's ns/op as information, the baseline file does
// not record it, and time is compared by bench/'s paired runs of parent
// and change on one machine (bench/README.md).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// threshold is the allowed fractional regression of B/op and allocs/op.
const threshold = 0.30

// Entry is one benchmark's observation. AllocsPerOp is -1 when the
// observation carried no allocs/op column (and 0 in baselines written
// before the allocation gate existed — both disable gating, so an old
// baseline keeps passing until `make bench-baseline` refreshes it with
// real counts). NsPerOp is this run's time, for the report only: the
// baseline file neither stores nor supplies it (one written when time
// was gated still reads; its ns_per_op is ignored).
type Entry struct {
	NsPerOp     float64 `json:"-"`
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the committed gate file.
type Baseline struct {
	// Note documents how to refresh the file.
	Note string `json:"note"`
	// Benchmarks maps the normalised benchmark name (GOMAXPROCS suffix
	// stripped) to its best observation.
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// benchLine matches one `go test -bench -benchmem` result line:
// name, iterations, ns/op, then optional custom metrics, B/op,
// allocs/op.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(.*)$`)

// gomaxprocsSuffix is the trailing -N go test appends when GOMAXPROCS
// exceeds 1; stripping it makes baselines portable across core counts.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads benchmark output, folding repeated names (from -count N)
// to their minimum ns/op and B/op.
func Parse(r io.Reader) (map[string]Entry, error) {
	out := make(map[string]Entry)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op in %q: %w", sc.Text(), err)
		}
		e := Entry{NsPerOp: ns, BPerOp: -1, AllocsPerOp: -1}
		for _, field := range strings.Split(m[3], "\t") {
			field = strings.TrimSpace(field)
			if v, ok := strings.CutSuffix(field, " B/op"); ok {
				b, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					return nil, fmt.Errorf("benchgate: bad B/op in %q: %w", sc.Text(), err)
				}
				e.BPerOp = b
			}
			if v, ok := strings.CutSuffix(field, " allocs/op"); ok {
				a, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					return nil, fmt.Errorf("benchgate: bad allocs/op in %q: %w", sc.Text(), err)
				}
				e.AllocsPerOp = a
			}
		}
		if prev, seen := out[name]; seen {
			if prev.NsPerOp < e.NsPerOp {
				e.NsPerOp = prev.NsPerOp
			}
			if prev.BPerOp >= 0 && (e.BPerOp < 0 || prev.BPerOp < e.BPerOp) {
				e.BPerOp = prev.BPerOp
			}
			if prev.AllocsPerOp >= 0 && (e.AllocsPerOp < 0 || prev.AllocsPerOp < e.AllocsPerOp) {
				e.AllocsPerOp = prev.AllocsPerOp
			}
		}
		out[name] = e
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchgate: no benchmark lines on stdin")
	}
	return out, nil
}

// ReportBench is one baselined benchmark's comparison in the -json
// artifact. Ratios are current/baseline (1.0 = unchanged); B/op fields
// are -1 when the observation carried none. CurrentNsPerOp is
// information: it has no baseline and gates nothing.
type ReportBench struct {
	CurrentNsPerOp      float64 `json:"current_ns_per_op"`
	BaselineBPerOp      float64 `json:"baseline_b_per_op"`
	CurrentBPerOp       float64 `json:"current_b_per_op"`
	BRatio              float64 `json:"b_ratio"`
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op"`
	CurrentAllocsPerOp  float64 `json:"current_allocs_per_op"`
	AllocsRatio         float64 `json:"allocs_ratio"`
	// Missing marks a baselined benchmark absent from the input (always
	// a gate failure); its current fields are -1.
	Missing bool `json:"missing,omitempty"`
}

// Report is the machine-readable artifact -json writes after a -check
// run — the same verdict the human-readable output renders, in a shape
// CI can archive and diff across runs.
type Report struct {
	Baseline   string                 `json:"baseline"`
	Threshold  float64                `json:"threshold"`
	Pass       bool                   `json:"pass"`
	Benchmarks map[string]ReportBench `json:"benchmarks"`
	// Unbaselined lists input benchmarks the baseline doesn't gate yet
	// (warnings, never failures).
	Unbaselined []string `json:"unbaselined,omitempty"`
	Failures    []string `json:"failures,omitempty"`
}

// BuildReport assembles the -json artifact from the same inputs Compare
// judges, plus Compare's verdict.
func BuildReport(baselinePath string, base *Baseline, cur map[string]Entry, failures []string) Report {
	rep := Report{
		Baseline:   baselinePath,
		Threshold:  threshold,
		Pass:       len(failures) == 0,
		Benchmarks: make(map[string]ReportBench, len(base.Benchmarks)),
		Failures:   failures,
	}
	for name, b := range base.Benchmarks {
		rb := ReportBench{
			CurrentNsPerOp: -1,
			BaselineBPerOp: b.BPerOp, CurrentBPerOp: -1, BRatio: -1,
			BaselineAllocsPerOp: b.AllocsPerOp, CurrentAllocsPerOp: -1, AllocsRatio: -1,
		}
		if c, ok := cur[name]; ok {
			rb.CurrentNsPerOp = c.NsPerOp
			rb.CurrentBPerOp = c.BPerOp
			if b.BPerOp > 0 && c.BPerOp >= 0 {
				rb.BRatio = c.BPerOp / b.BPerOp
			}
			rb.CurrentAllocsPerOp = c.AllocsPerOp
			if b.AllocsPerOp > 0 && c.AllocsPerOp >= 0 {
				rb.AllocsRatio = c.AllocsPerOp / b.AllocsPerOp
			}
		} else {
			rb.Missing = true
		}
		rep.Benchmarks[name] = rb
	}
	for name := range cur {
		if _, ok := base.Benchmarks[name]; !ok {
			rep.Unbaselined = append(rep.Unbaselined, name)
		}
	}
	sort.Strings(rep.Unbaselined)
	return rep
}

// Compare checks current observations against the baseline and returns
// the failures (empty = gate passes), the warnings (benchmarks in the
// input but not yet baselined — surfaced loudly but never fatal, so a
// new benchmark can land ahead of its baseline refresh), and an
// informational report. B/op and allocs/op are each held to threshold,
// and only where the baseline recorded a positive figure, so old
// baselines (and benchmarks without -benchmem) stay ungated until the
// next refresh.
func Compare(base *Baseline, cur map[string]Entry) (failures, warnings, report []string) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: baselined benchmark missing from input", name))
			continue
		}
		// One rule for both columns: compared only where the baseline
		// holds a positive figure and the run reported one.
		for _, col := range []struct {
			unit      string
			base, cur float64
		}{{"B/op", b.BPerOp, c.BPerOp}, {"allocs/op", b.AllocsPerOp, c.AllocsPerOp}} {
			if col.base <= 0 || col.cur < 0 {
				continue
			}
			pct := (col.cur/col.base - 1) * 100
			report = append(report, fmt.Sprintf("%-55s %-9s %12.0f -> %12.0f (%+.1f%%)", name, col.unit, col.base, col.cur, pct))
			if col.cur/col.base > 1+threshold {
				failures = append(failures, fmt.Sprintf("%s: %s regressed %.1f%% (%.0f -> %.0f, threshold %.0f%%)",
					name, col.unit, pct, col.base, col.cur, threshold*100))
			}
		}
	}
	extra := make([]string, 0)
	for name := range cur {
		if _, ok := base.Benchmarks[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		warnings = append(warnings, fmt.Sprintf("%s: not in baseline; run `make bench-baseline` to start gating it", name))
	}
	return failures, warnings, report
}

func main() {
	var (
		check   = flag.String("check", "", "baseline JSON to compare stdin against")
		write   = flag.String("write", "", "baseline JSON to (over)write from stdin")
		jsonOut = flag.String("json", "", "with -check: also write the comparison as a machine-readable JSON report to this file (written on pass and fail, for CI artifacts)")
	)
	flag.Parse()
	if (*check == "") == (*write == "") {
		fmt.Fprintln(os.Stderr, "benchgate: exactly one of -check or -write is required")
		os.Exit(2)
	}
	if *jsonOut != "" && *check == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -json requires -check")
		os.Exit(2)
	}
	cur, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *write != "" {
		base := Baseline{
			Note:       "benchmark-regression baseline (B/op and allocs/op; time is not gated here); refresh with `make bench-baseline`",
			Benchmarks: cur,
		}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := os.WriteFile(*write, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(cur), *write)
		return
	}

	data, err := os.ReadFile(*check)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: parsing %s: %v\n", *check, err)
		os.Exit(2)
	}
	failures, warnings, report := Compare(&base, cur)
	// The JSON artifact is written before the verdict exits, so CI can
	// archive it for failing runs too — that's when it matters most.
	if *jsonOut != "" {
		rep := BuildReport(*check, &base, cur, failures)
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	for _, line := range report {
		fmt.Println(line)
	}
	// Unbaselined benchmarks warn on stderr — visible in CI logs even
	// when the gate passes — but never fail the run.
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "WARNING:", w)
	}
	if len(failures) > 0 {
		fmt.Println()
		for _, f := range failures {
			fmt.Println("REGRESSION:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d gated benchmarks within %.0f%% on B/op and allocs/op\n", len(base.Benchmarks), threshold*100)
}
