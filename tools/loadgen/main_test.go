package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ripki/internal/netutil"
	"ripki/internal/rpki/vrp"
	"ripki/internal/serve"
)

// TestLoadgenAgainstInProcessService drives the real open-loop schedule
// against a real Service over HTTP and checks both the text report and
// the -json artifact: offered vs. achieved rate, per-status counts,
// and latencies measured from the scheduled start.
func TestLoadgenAgainstInProcessService(t *testing.T) {
	svc := serve.New(nil)
	set, err := vrp.FromVRPs([]vrp.VRP{
		{Prefix: netutil.MustPrefix("10.0.0.0/16"), MaxLength: 24, ASN: 64500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PublishSet(set, "test", 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	jsonPath := filepath.Join(t.TempDir(), "report.json")
	var out, errBuf bytes.Buffer
	err = run([]string{
		"-addr", ts.URL, "-rate", "200", "-duration", "300ms", "-batch", "4",
		"-json", jsonPath,
	}, &out, &errBuf)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	text := out.String()
	for _, want := range []string{"offered", "achieved", "0 errors", "p99=", "scheduled start"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("json report: %v", err)
	}
	if rep.Scheduled != 60 { // 200 req/s * 0.3s
		t.Errorf("scheduled = %d, want 60", rep.Scheduled)
	}
	if rep.Completed != rep.Scheduled {
		t.Errorf("completed = %d, want %d", rep.Completed, rep.Scheduled)
	}
	if rep.Errors != 0 || rep.StatusCounts["200"] != rep.Completed {
		t.Errorf("errors = %d, statusCounts = %v", rep.Errors, rep.StatusCounts)
	}
	if rep.OfferedRPS != 200 {
		t.Errorf("offered_rps = %v, want 200", rep.OfferedRPS)
	}
	if rep.AchievedRPS <= 0 {
		t.Errorf("achieved_rps = %v, want > 0", rep.AchievedRPS)
	}
	if rep.LatencyMS.P99 < rep.LatencyMS.P50 || rep.LatencyMS.Max <= 0 {
		t.Errorf("latency block inconsistent: %+v", rep.LatencyMS)
	}
	if rep.SLO != nil {
		t.Errorf("slo block present without -slo-p99: %+v", rep.SLO)
	}
}

// TestLoadgenSLOGate: an absurdly tight p99 target must fail the run
// (exit 1 path) while still recording the verdict in the JSON report.
func TestLoadgenSLOGate(t *testing.T) {
	svc := serve.New(nil)
	if _, err := svc.PublishSet(vrp.NewSet(), "test", 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	jsonPath := filepath.Join(t.TempDir(), "report.json")
	var out, errBuf bytes.Buffer
	err := run([]string{
		"-addr", ts.URL, "-rate", "100", "-duration", "100ms",
		"-slo-p99", "1ns", "-json", jsonPath,
	}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "SLO violated") {
		t.Fatalf("run with 1ns p99 target: %v, want SLO violation", err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SLO == nil || rep.SLO.Pass {
		t.Errorf("slo block = %+v, want failed gate", rep.SLO)
	}
}

// TestLoadgenUsageAndFailure: flag errors are errFlagParse; a dead
// server is a runtime error, not a hang.
func TestLoadgenUsageAndFailure(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-h"}, &out, &errBuf); err != nil {
		t.Fatalf("-h: %v", err)
	}
	if err := run([]string{"-rate", "0"}, &out, &errBuf); !errors.Is(err, errFlagParse) {
		t.Fatalf("bad rate: %v, want errFlagParse", err)
	}
	if err := run([]string{"-batch", "0"}, &out, &errBuf); !errors.Is(err, errFlagParse) {
		t.Fatalf("bad batch: %v, want errFlagParse", err)
	}
	if err := run([]string{"-addr", "http://127.0.0.1:1", "-duration", "100ms"}, &out, &errBuf); err == nil {
		t.Fatal("dead server accepted")
	}
}
