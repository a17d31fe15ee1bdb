// Sweep demonstrates the multi-world question the single-run engine
// cannot answer: not "does this hijack land?" but "how often does it
// land, across many possible webs?".
//
// The grid below crosses three attack scenarios with four seeded worlds
// apiece. Each run is a full simulation — generated ecosystem, RTR
// cache over loopback TCP, lag-bound relying parties — and the sweep
// shards them across workers, then folds the per-tick series into
// cross-run distributions. The part worth staring at is the per-RP
// hijack-success table:
//
//   - route-leak lands on drop-invalid routers in every world (the
//     unsigned fraction always leaks through), but with a smaller
//     footprint than on accept-all routers;
//   - trust-anchor-outage lands everywhere while the anchor is dark —
//     origin validation cannot help when the ROAs are unreachable;
//   - delegated-ca-compromise lands *because* of the RPKI: the rogue
//     ROA validates the attack.
//
// Determinism carries over from single runs: the same grid and master
// seed produce byte-identical aggregates at any worker count.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"ripki/internal/stats"
	"ripki/internal/sweep"
)

func main() {
	log.SetFlags(0)

	grid := sweep.Grid{
		Scenarios:  []string{"route-leak", "trust-anchor-outage", "delegated-ca-compromise"},
		MasterSeed: 1,
		Replicates: 4,
		Domains:    []int{4000},
		Ticks:      []time.Duration{10 * time.Second},
		Durations:  []time.Duration{8 * time.Minute},
		// Sample every 2 ticks so short attack windows can't slip
		// between probes.
		SampleEvery:   []int{2},
		SampleDomains: []int{400},
	}

	// ShareWorlds generates each of the 4 seed worlds once and clones it
	// across the 3 scenarios sharing it (never changes the output).
	// Streaming keeps one online accumulator per (tick, metric) of a cell
	// in flight where exact mode keeps every replicate's value: it is for
	// many replicates per cell — a replicates=10000 version of this grid —
	// and at 4 it only shows the option (neither mode keeps a run's series
	// past its fold, and a finished cell holds its aggregate in both).
	plan, err := grid.Plan()
	if err != nil {
		log.Fatal(err)
	}
	res, err := sweep.RunPlan(context.Background(), plan, sweep.Options{
		ShareWorlds: true,
		Streaming:   true,
		Progress: func(done, total int, rr *sweep.RunResult) {
			fmt.Fprintf(os.Stderr, "[%2d/%d] %s\n", done, total, rr)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	table := &stats.Table{
		Title:   "Hijack success across worlds (4 seeds per scenario)",
		Columns: []string{"scenario", "rp", "success rate", "mean hijacked ticks"},
	}
	for _, cell := range res.Cells {
		for _, h := range cell.Hijacks {
			table.Rows = append(table.Rows, []string{
				cell.Scenario, h.RP,
				fmt.Sprintf("%.2f", h.SuccessRate),
				fmt.Sprintf("%.1f", h.MeanHijackedTicks),
			})
		}
	}
	if err := table.WriteAligned(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("Full per-tick distributions: ripki-sweep emits the same grid as TSV/JSON —")
	fmt.Println("  go run ./cmd/ripki-sweep -scenarios route-leak,trust-anchor-outage,delegated-ca-compromise \\")
	fmt.Println("    -replicates 4 -domains 4000 -tick 10s -duration 8m -sample-every 2 -sample-domains 400")
}
