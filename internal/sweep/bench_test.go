package sweep

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// benchGrid is the benchmark's 32-run grid: 8 scenarios × 4 replicates,
// so each of the 4 seed worlds is shared by 8 cells. Every run is a
// full simulation — world (generated or cloned), RTR cache over
// loopback TCP, relying parties, 8 ticks of events.
func benchGrid() Grid {
	return Grid{
		Scenarios: []string{"baseline", "roa-churn", "hijack-window", "route-leak",
			"maxlen-misissuance", "rtr-restart", "rp-lag", "delegated-ca-compromise"},
		MasterSeed:    1,
		Replicates:    4, // × 8 scenarios = 32 runs
		Domains:       []int{4000},
		Ticks:         []time.Duration{15 * time.Second},
		Durations:     []time.Duration{2 * time.Minute},
		SampleEvery:   []int{6},
		SampleDomains: []int{100},
	}
}

func runSweepBench(b *testing.B, opt Options) {
	grid := benchGrid()
	totalRuns := 0
	for i := 0; i < b.N; i++ {
		res, err := run(context.Background(), grid, opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, rr := range res.Runs {
			if rr.Err != "" {
				b.Fatalf("run %d: %s", rr.Spec.Index, rr.Err)
			}
		}
		totalRuns += len(res.Runs)
	}
	b.ReportMetric(float64(totalRuns)/b.Elapsed().Seconds(), "runs/s")
}

// BenchmarkSweep measures simulated runs/sec on the 32-run grid.
//
// The workers=N variants regenerate every world per run (the PR 2
// execution model) and track pool scaling. The shared variant generates
// each of the 4 seed worlds once and clones it across the 8 cells that
// share it — the per-run world tax (generation + certificate-path
// validation) drops 8×, worth ≥1.5× runs/s at this grid shape. The
// streaming variant folds into online accumulators instead of keeping
// each replicate's value; its runs/s matches shared (the fold is cheap
// in both modes).
// All variants feed the committed BENCH_baseline.json regression gate
// (make bench-check).
func BenchmarkSweep(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runSweepBench(b, Options{Workers: workers})
		})
	}
	b.Run("shared/workers=4", func(b *testing.B) {
		runSweepBench(b, Options{Workers: 4, ShareWorlds: true})
	})
	b.Run("shared-streaming/workers=4", func(b *testing.B) {
		runSweepBench(b, Options{Workers: 4, ShareWorlds: true, Streaming: true})
	})
}
