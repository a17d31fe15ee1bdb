package distsweep

import (
	"encoding/json"
	"testing"
	"time"

	"ripki/internal/stats"
	"ripki/internal/sweep"
)

// BenchmarkDistMerge measures the coordinator's merge path: decoding a
// full set of wire-form partials — what a worker ships: run summaries
// and the cell's rendered aggregate — and assembling the final Result,
// the work the coordinator does per completed sweep beyond running
// sims. 16 cells × 8 replicates × 48 ticks × 6 metrics, all synthetic:
// the benchmark isolates assembly from simulation entirely.
func BenchmarkDistMerge(b *testing.B) {
	grid := sweep.Grid{
		Scenarios:  []string{"baseline"},
		MasterSeed: 7,
		Replicates: 8,
		// A 16-point domains axis makes 16 cells without running anything.
		Domains:       []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Ticks:         []time.Duration{10 * time.Second},
		Durations:     []time.Duration{8 * time.Minute},
		SampleEvery:   []int{1},
		SampleDomains: []int{50},
	}
	plan, err := grid.Plan()
	if err != nil {
		b.Fatal(err)
	}
	const rows, metrics = 48, 6
	wire := make([][]byte, len(plan.Cells))
	for ci := range plan.Cells {
		agg := sweep.Cell{
			Runs:    len(plan.Seeds),
			Columns: []string{"valid", "invalid", "unknown", "coverage", "hijacks", "reachable"},
			Hijacks: []sweep.RPHijackRate{{RP: "drop-invalid", Runs: 8, SuccessRate: 3.0 / 8, MeanHijackedTicks: 19.0 / 8}},
		}
		for r := 0; r < rows; r++ {
			ta := sweep.TickAggregate{T: float64(r) * 10, Tick: float64(r)}
			for m := 0; m < metrics; m++ {
				acc := stats.NewStreamingSummary()
				for rep := 0; rep < len(plan.Seeds); rep++ {
					// Deterministic synthetic observations.
					acc.Add(float64((ci*31+r*7+m*3+rep*13)%97) / 97)
				}
				ta.Metrics = append(ta.Metrics, acc.Summary())
			}
			agg.Ticks = append(agg.Ticks, ta)
		}
		p := sweep.CellPartial{Cell: ci, Streaming: true, Agg: &agg}
		for rep := 0; rep < len(plan.Seeds); rep++ {
			p.Runs = append(p.Runs, sweep.RunPartial{
				Run:        ci*len(plan.Seeds) + rep,
				RunSummary: sweep.RunSummary{Rows: rows},
			})
		}
		data, err := json.Marshal(&p)
		if err != nil {
			b.Fatal(err)
		}
		wire[ci] = data
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partials := make([]sweep.CellPartial, len(wire))
		for ci, data := range wire {
			if err := json.Unmarshal(data, &partials[ci]); err != nil {
				b.Fatal(err)
			}
		}
		res, err := sweep.AssembleResult(plan, true, partials)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Cells) != len(plan.Cells) {
			b.Fatal("assembly lost cells")
		}
	}
}
