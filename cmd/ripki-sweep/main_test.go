package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ripki/internal/distsweep"
	"ripki/internal/obs"
	"ripki/internal/obs/obstest"
	"ripki/internal/sweep"
)

var fastArgs = []string{
	"-scenarios", "baseline", "-replicates", "1",
	"-domains", "800", "-tick", "30s", "-duration", "2m",
	"-sample-every", "4", "-sample-domains", "50",
}

// TestQuietIsFullyQuiet is the -quiet regression test: a successful
// sweep with -quiet writes not a single byte to stderr — no header, no
// progress — in the flag-axes path, the grid-file path, and both output
// formats.
func TestQuietIsFullyQuiet(t *testing.T) {
	gridFile := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(gridFile, []byte(`{
		"scenarios": ["baseline"], "replicates": 1, "domains": [800],
		"ticks": ["30s"], "durations": ["2m"],
		"sample_every": [4], "sample_domains": [50]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]string{
		"flag-axes-tsv":  append(append([]string{}, fastArgs...), "-quiet"),
		"flag-axes-json": append(append([]string{}, fastArgs...), "-quiet", "-format", "json"),
		"grid-file":      {"-grid", gridFile, "-quiet"},
		"streaming":      append(append([]string{}, fastArgs...), "-quiet", "-streaming"),
		"no-sharing":     append(append([]string{}, fastArgs...), "-quiet", "-share-worlds=false"),
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(context.Background(), args, &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			if stderr.Len() != 0 {
				t.Errorf("-quiet leaked to stderr: %q", stderr.String())
			}
			if stdout.Len() == 0 {
				t.Error("no output on stdout")
			}
		})
	}
}

// TestHeaderOnStderrWithoutQuiet: the header and progress exist — on
// stderr, never on stdout — when -quiet is absent.
func TestHeaderOnStderrWithoutQuiet(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), fastArgs, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "1 cells × 1 seeds = 1 runs") {
		t.Errorf("header missing from stderr: %q", stderr.String())
	}
	if !strings.Contains(stderr.String(), "[  1/1]") {
		t.Errorf("progress missing from stderr: %q", stderr.String())
	}
	if strings.Contains(stdout.String(), "ripki-sweep: [") {
		t.Error("progress leaked onto stdout")
	}
}

// TestStreamingMarksOutput: the streaming mode is visible in the TSV
// header, so downstream tooling can tell estimated percentiles from
// exact ones.
func TestStreamingMarksOutput(t *testing.T) {
	var exact, streamed bytes.Buffer
	if err := run(context.Background(), append(append([]string{}, fastArgs...), "-quiet"), &exact, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append(append([]string{}, fastArgs...), "-quiet", "-streaming"), &streamed, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(firstLine(exact.String()), "mode=streaming") {
		t.Error("exact output marked streaming")
	}
	if !strings.Contains(firstLine(streamed.String()), "mode=streaming") {
		t.Errorf("streaming output not marked: %q", firstLine(streamed.String()))
	}
}

// TestHelpAndBadFlags: -h is a successful exit (usage on stderr, nil
// error) and an unknown flag reports exactly once.
func TestHelpAndBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &stdout, &stderr); err != nil {
		t.Errorf("-h returned error: %v", err)
	}
	if !strings.Contains(stderr.String(), "-share-worlds") {
		t.Error("usage missing from -h output")
	}
	stderr.Reset()
	err := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("unknown flag accepted")
	}
	if got := strings.Count(stderr.String(), "flag provided but not defined"); got != 1 {
		t.Errorf("parse error reported %d times, want 1: %q", got, stderr.String())
	}
	if !errors.Is(err, errFlagParse) {
		t.Errorf("parse failure not marked pre-reported: %v", err)
	}
}

// TestNegativeTickExitsFast: a negative tick is refused by the plan, so
// the command fails in well under a second instead of running a
// simulation that never ends.
func TestNegativeTickExitsFast(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	began := time.Now()
	err := run(ctx, []string{"-quiet", "-scenarios", "baseline", "-replicates", "1", "-domains", "2000",
		"-tick", "-10s", "-duration", "1m"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "Tick") {
		t.Fatalf("-tick -10s: %v, want a refusal naming Tick", err)
	}
	if took := time.Since(began); took > 5*time.Second {
		t.Errorf("refused after %v", took)
	}
}

// TestProgressETA: the per-run progress line carries a live ETA once a
// rate exists, and the final line says done. Two replicates give one
// intermediate line (an extrapolation) and one closing line.
func TestProgressETA(t *testing.T) {
	args := []string{
		"-scenarios", "baseline", "-replicates", "2",
		"-domains", "800", "-tick", "30s", "-duration", "2m",
		"-sample-every", "4", "-sample-domains", "50",
	}
	var stdout bytes.Buffer
	stderr := &syncBuffer{}
	if err := run(context.Background(), args, &stdout, stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), ", eta ") {
		t.Errorf("intermediate progress line lacks an ETA: %q", stderr.String())
	}
	if !strings.Contains(stderr.String(), ", done)") {
		t.Errorf("final progress line not marked done: %q", stderr.String())
	}
}

// TestDistributedFlagValidation: the mode flags police each other — a
// worker's grid comes from the coordinator, so grid-shaping flags are
// refused, and the coordinator-only flags demand -coordinate — and a grid
// the plan refuses (a negative world size) fails before any run.
func TestDistributedFlagValidation(t *testing.T) {
	cases := map[string]struct {
		args []string
		want string
	}{
		"both-modes":         {[]string{"-coordinate", ":0", "-worker", "x:1"}, "mutually exclusive"},
		"worker-grid-flag":   {[]string{"-worker", "x:1", "-scenarios", "baseline"}, "-scenarios"},
		"worker-format-flag": {[]string{"-worker", "x:1", "-format", "json"}, "-format"},
		"worker-streaming":   {[]string{"-worker", "x:1", "-streaming"}, "-streaming"},
		"stray-checkpoint":   {[]string{"-checkpoint", "d"}, "requires -coordinate"},
		"stray-lease-timeout": {
			append(append([]string{}, fastArgs...), "-lease-timeout", "1m"), "require -coordinate"},
		"stray-lease-cells": {
			append(append([]string{}, fastArgs...), "-lease-cells", "2"), "require -coordinate"},
		"stray-http": {
			append(append([]string{}, fastArgs...), "-http", ":0"), "require -coordinate"},
		"stray-pprof": {
			append(append([]string{}, fastArgs...), "-pprof"), "require -coordinate"},
		"status-plus-coordinate": {[]string{"-status", "host:9201", "-coordinate", ":0"}, "its own mode"},
		"status-plus-worker":     {[]string{"-status", "host:9201", "-worker", "x:1"}, "its own mode"},
		"negative-domains":       {[]string{"-scenarios", "baseline", "-domains", "2000,-5"}, "domains must not be negative"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(context.Background(), tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// syncBuffer lets the round-trip test poll a goroutine's stderr for the
// coordinator's "listening on" line without racing the writer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDistributedCLIRoundTrip drives the real command in both modes —
// a coordinator with a checkpoint journal and one worker, wired over
// loopback — and demands the coordinator's stdout be byte-identical to
// the same grid run locally. This is the end-to-end CLI counterpart of
// the package-level determinism tests in internal/distsweep.
func TestDistributedCLIRoundTrip(t *testing.T) {
	gridArgs := []string{
		"-scenarios", "baseline,rp-lag", "-replicates", "2",
		"-domains", "800", "-tick", "30s", "-duration", "2m",
		"-sample-every", "4", "-sample-domains", "50",
	}
	var reference bytes.Buffer
	if err := run(context.Background(), append(append([]string{}, gridArgs...), "-quiet"), &reference, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "ckpt")
	coordArgs := append(append([]string{}, gridArgs...),
		"-coordinate", "127.0.0.1:0", "-checkpoint", ckpt, "-lease-cells", "1")
	var coordOut bytes.Buffer
	coordErr := &syncBuffer{}
	coordDone := make(chan error, 1)
	go func() {
		coordDone <- run(context.Background(), coordArgs, &coordOut, coordErr)
	}()

	// The header names the bound address; poll for it.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never announced its address: %q", coordErr.String())
		}
		for _, line := range strings.Split(coordErr.String(), "\n") {
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr = strings.Fields(rest)[0]
				addr = strings.TrimSuffix(addr, ":")
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	var workerOut, workerErr bytes.Buffer
	if err := run(context.Background(), []string{"-worker", addr, "-quiet"}, &workerOut, &workerErr); err != nil {
		t.Fatalf("worker: %v (stderr %q)", err, workerErr.String())
	}
	if workerOut.Len() != 0 {
		t.Errorf("worker wrote to stdout: %q", workerOut.String())
	}
	if err := <-coordDone; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if !bytes.Equal(coordOut.Bytes(), reference.Bytes()) {
		t.Error("distributed CLI output differs from local run")
	}

	// -checkpoint journalled every cell durably.
	entries, err := os.ReadDir(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var records int
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "cell-") && strings.HasSuffix(e.Name(), ".json") {
			records++
		}
	}
	if records != 2 {
		t.Errorf("journal holds %d cell records, want 2", records)
	}
}

// TestCoordinatorHTTPAndStatus: -http serves a live /progress while the
// coordinator waits for workers, and -status renders that JSON for a
// terminal. Runs against a real coordinator process loop over loopback.
func TestCoordinatorHTTPAndStatus(t *testing.T) {
	gridArgs := []string{
		"-scenarios", "baseline", "-replicates", "1",
		"-domains", "800", "-tick", "30s", "-duration", "2m",
		"-sample-every", "4", "-sample-domains", "50",
	}
	coordArgs := append(append([]string{}, gridArgs...),
		"-coordinate", "127.0.0.1:0", "-http", "127.0.0.1:0")
	var coordOut bytes.Buffer
	coordErr := &syncBuffer{}
	coordDone := make(chan error, 1)
	go func() {
		coordDone <- run(context.Background(), coordArgs, &coordOut, coordErr)
	}()

	// The header names both addresses; poll for them.
	var leaseAddr, httpAddr string
	deadline := time.Now().Add(10 * time.Second)
	for leaseAddr == "" || httpAddr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never announced its addresses: %q", coordErr.String())
		}
		for _, line := range strings.Split(coordErr.String(), "\n") {
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				leaseAddr = strings.TrimSuffix(strings.Fields(rest)[0], ":")
			}
			if _, rest, ok := strings.Cut(line, "progress on http://"); ok {
				httpAddr = strings.TrimSuffix(strings.Fields(rest)[0], "/progress")
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Live /progress before any worker connects: everything pending, no
	// rate yet.
	resp, err := http.Get("http://" + httpAddr + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Cells struct {
			Total, Completed, Pending int
		} `json:"cells"`
		ETASeconds float64 `json:"eta_seconds"`
		Done       bool    `json:"done"`
	}
	err = json.NewDecoder(resp.Body).Decode(&p)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if p.Cells.Total != 1 || p.Cells.Pending != 1 || p.Done || p.ETASeconds != -1 {
		t.Errorf("fresh /progress: %+v", p)
	}

	// -status renders the same report through the CLI.
	var statusOut, statusErr bytes.Buffer
	if err := run(context.Background(), []string{"-status", httpAddr}, &statusOut, &statusErr); err != nil {
		t.Fatalf("-status: %v (stderr %q)", err, statusErr.String())
	}
	for _, want := range []string{"running", "cells: 0/1 completed", "eta unknown", "workers: 0"} {
		if !strings.Contains(statusOut.String(), want) {
			t.Errorf("-status output missing %q: %q", want, statusOut.String())
		}
	}

	// Finish the sweep so the coordinator exits cleanly.
	var workerOut, workerErr bytes.Buffer
	if err := run(context.Background(), []string{"-worker", leaseAddr, "-quiet"}, &workerOut, &workerErr); err != nil {
		t.Fatalf("worker: %v (stderr %q)", err, workerErr.String())
	}
	if err := <-coordDone; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if coordOut.Len() == 0 {
		t.Error("coordinator produced no output")
	}
}

// TestProgressListenerCutsSlowLoris: the coordinator's -http listener,
// built the way run builds it, drops a peer that never finishes its
// request header while /progress keeps answering.
func TestProgressListenerCutsSlowLoris(t *testing.T) {
	grid, err := sweep.ParseGrid([]byte(`{"scenarios": ["baseline"], "replicates": 1, "domains": [800]}`))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := distsweep.NewCoordinator("127.0.0.1:0", distsweep.CoordinatorConfig{Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// Run is what closes the lease listener; a cancelled one does
		// nothing else.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		coord.Run(ctx)
	}()
	obstest.SlowLorisIsCutOff(t, obs.NewServer(coord.Handler(true)), "/progress")
}

// TestStatusBadAddress: -status against nothing is a plain error, not a
// hang.
func TestStatusBadAddress(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here any more
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-status", addr}, &stdout, &stderr); err == nil {
		t.Error("-status against a dead address succeeded")
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
