//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench itself: with
// BENCH_AS_MAIN set it runs main, so a test can start the bench as a
// child process and signal it.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// descendants lists the live processes whose ancestry leads to pid,
// with their command names.
func descendants(t *testing.T, pid int) map[int]string {
	t.Helper()
	parent, name := map[int]int{}, map[int]string{}
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // exited meanwhile
		}
		open, shut := bytes.IndexByte(data, '('), bytes.LastIndexByte(data, ')')
		f := strings.Fields(string(data[shut+1:]))
		if open < 0 || shut < 0 || len(f) < 2 || f[0] == "Z" {
			continue
		}
		p, _ := strconv.Atoi(strings.TrimSpace(string(data[:open])))
		parent[p], _ = strconv.Atoi(f[1])
		name[p] = string(data[open+1 : shut])
	}
	out := map[int]string{}
	for p := range parent {
		for a := parent[p]; a > 1; a = parent[a] {
			if a == pid {
				out[p] = name[p]
				break
			}
		}
	}
	return out
}

// TestSmoke runs every workload, end to end and traced, at smoke sizes.
// It catches a harness that no longer builds or runs, an oracle that
// fails, a leaked ripki-served, and a scratch directory left behind. It
// makes no timing assertions.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real binaries")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	e, err := newEnv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runOne(ctx, e, w.name, smokeSizes, 1, 4, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res := rep.result(defsFor(traced))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d failed of %d, invalid %v: %v", w.name, traced, res.Failed, res.Attempted, rep.invalid, rep.failures)
			}
			if len(res.Metrics) != len(defsFor(traced)) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defsFor(traced)))
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
	// The traced runs discriminate even at smoke sizes in one respect:
	// publish spans exist on serve-churn only.
	for name, want := range map[string]bool{"serve-validate": false, "serve-churn": true} {
		data, err := os.ReadFile(filepath.Join(e.root, "bench", "out", "trace-"+name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Contains(data, []byte(`"name":"serve.publish"`)); got != want {
			t.Errorf("trace-%s.jsonl has serve.publish spans: %v, want %v", name, got, want)
		}
	}
	e.close()
	if _, err := os.Stat(e.workDir); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s left behind", e.workDir)
	}
	if left := descendants(t, os.Getpid()); len(left) != 0 {
		t.Errorf("child processes left behind: %v", left)
	}
}

// TestInterruptKillsChildren starts the bench as a child, waits until it
// has a ripki-served of its own, interrupts it, and checks that both are
// gone and the scratch directory with them.
func TestInterruptKillsChildren(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real binaries")
	}
	bench := exec.Command(os.Args[0], "-smoke", "-workload", "serve-churn", "-seconds", "60", "-trace", "0")
	bench.Env = append(os.Environ(), "BENCH_AS_MAIN=1")
	var stderr bytes.Buffer
	bench.Stderr = &stderr
	if err := bench.Start(); err != nil {
		t.Fatal(err)
	}
	defer bench.Process.Kill()
	pid := bench.Process.Pid
	served := func() bool {
		for _, name := range descendants(t, pid) {
			if name == "ripki-served" {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(2 * time.Minute); !served(); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no ripki-served under the bench within 2 min: %s", stderr.String())
		}
	}
	bench.Process.Signal(syscall.SIGINT)
	done := make(chan error, 1)
	go func() { done <- bench.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("an interrupted bench exited 0")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the bench did not exit within 30 s of SIGINT")
	}
	if left := descendants(t, pid); len(left) != 0 {
		t.Errorf("processes left behind after SIGINT: %v", left)
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	if runs, _ := filepath.Glob(filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d-*", pid))); len(runs) != 0 {
		t.Errorf("scratch directories left behind after SIGINT: %v", runs)
	}
}

// TestRepeatOpsGivesUp checks that a child failing every time ends the
// run with its failures counted, and that failures between successes do
// not.
func TestRepeatOpsGivesUp(t *testing.T) {
	rep := newReport()
	calls := 0
	ops, err := repeatOps(context.Background(), time.Hour, rep, func() (sweepOp, error) {
		calls++
		return sweepOp{}, errors.New("killed")
	})
	if err != nil || len(ops) != 0 || calls != maxSweepFailures || rep.failed != maxSweepFailures {
		t.Errorf("always failing: %d ops, %d calls, %d failed, err %v; want 0, %d, %d, nil",
			len(ops), calls, rep.failed, err, maxSweepFailures, maxSweepFailures)
	}
	rep, calls = newReport(), 0
	ops, err = repeatOps(context.Background(), 0, rep, func() (sweepOp, error) {
		if calls++; calls%2 == 1 {
			return sweepOp{}, errors.New("killed")
		}
		return sweepOp{}, nil
	})
	if err != nil || len(ops) != minSweepOps || rep.failed != minSweepOps {
		t.Errorf("failing every other time: %d ops, %d failed, err %v; want %d, %d, nil",
			len(ops), rep.failed, err, minSweepOps, minSweepOps)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json and the bench's own
// tables name the same workloads and metrics with the same units,
// directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, w := range workloads {
		want = append(want, "workload "+w.name+": "+w.why)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		want = append(want, fmt.Sprint(d.name, d.unit, d.better, d.bound))
	}
	for _, w := range spec.Workloads {
		got = append(got, "workload "+w.Name+": "+w.Why)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		got = append(got, fmt.Sprint(m.Name, m.Unit, m.Better, m.Bound))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("BENCHMARK.json and main.go disagree:\n--- BENCHMARK.json\n%s\n--- main.go\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
