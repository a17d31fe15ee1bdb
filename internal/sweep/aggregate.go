package sweep

import (
	"ripki/internal/stats"
)

// Cell is one grid cell's cross-run aggregate: the runs differing only
// in seed, folded tick by tick.
type Cell struct {
	CellInfo
	// Runs and Errors count the cell's completed and failed runs;
	// aggregates cover only the completed ones.
	Runs   int `json:"runs"`
	Errors int `json:"errors"`
	// Columns names the aggregated metrics — the cell's time-series
	// columns minus the row keys t and tick.
	Columns []string `json:"columns"`
	// Ticks is the per-sample aggregate: Metrics[i] summarises
	// Columns[i] across the cell's runs.
	Ticks []TickAggregate `json:"ticks"`
	// Hijacks is the per-RP success rate across the cell's runs.
	Hijacks []RPHijackRate `json:"hijacks"`
}

// TickAggregate is one sampled instant across a cell's runs.
type TickAggregate struct {
	T       float64         `json:"t"`
	Tick    float64         `json:"tick"`
	Metrics []stats.Summary `json:"metrics"`
}

// RPHijackRate is one relying party's hijack-success rate across a
// cell's runs — the sweep-level answer to "how often does this attack
// land on this kind of router?".
type RPHijackRate struct {
	RP string `json:"rp"`
	// Runs is how many completed runs had this RP.
	Runs int `json:"runs"`
	// SuccessRate is the fraction of runs where the RP ever forwarded
	// to a hijacked prefix.
	SuccessRate float64 `json:"success_rate"`
	// MeanHijackedTicks is the mean attack window in sampled ticks.
	MeanHijackedTicks float64 `json:"mean_hijacked_ticks"`
}

// aggregate folds run results into per-cell aggregates, in grid order.
// Failed runs are counted and skipped; a cell whose runs all failed has
// empty aggregates.
func aggregate(plan *Plan, runs []RunResult) []Cell {
	byCell := make([][]*RunResult, len(plan.Cells))
	for i := range runs {
		rr := &runs[i]
		byCell[rr.Spec.Cell] = append(byCell[rr.Spec.Cell], rr)
	}
	cells := make([]Cell, len(plan.Cells))
	for ci, info := range plan.Cells {
		cells[ci] = aggregateCell(info, byCell[ci])
	}
	return cells
}

// aggregateCell folds one cell's run results (series attached, in
// replicate order) into its aggregate. Shared by the whole-plan
// aggregate above and the distributed worker, which aggregates only its
// leased cells before shipping them.
func aggregateCell(info CellInfo, runs []*RunResult) Cell {
	cell := Cell{CellInfo: info}
	var ok []*RunResult
	for _, rr := range runs {
		if rr.Err != "" || rr.Series == nil {
			cell.Errors++
			continue
		}
		ok = append(ok, rr)
	}
	cell.Runs = len(ok)
	if len(ok) > 0 {
		aggregateTicks(&cell, ok)
		aggregateHijacks(&cell, ok)
	}
	return cell
}

// aggregateTicks summarises every non-key column at every sampled tick
// across the cell's runs. All runs share a config (bar the seed), so
// they share columns and cadence; the row count is clamped to the
// shortest run as a guard.
func aggregateTicks(cell *Cell, ok []*RunResult) {
	first := ok[0].Series
	var metricIdx []int
	for i, c := range first.Columns {
		if c == "t" || c == "tick" {
			continue
		}
		metricIdx = append(metricIdx, i)
		cell.Columns = append(cell.Columns, c)
	}
	rows := len(first.Rows)
	for _, rr := range ok[1:] {
		if len(rr.Series.Rows) < rows {
			rows = len(rr.Series.Rows)
		}
	}
	tCol, tickCol := first.Column("t"), first.Column("tick")
	vals := make([]float64, len(ok))
	for row := 0; row < rows; row++ {
		ta := TickAggregate{Metrics: make([]stats.Summary, 0, len(metricIdx))}
		if tCol != nil {
			ta.T = tCol[row]
		}
		if tickCol != nil {
			ta.Tick = tickCol[row]
		}
		for _, mi := range metricIdx {
			for ri, rr := range ok {
				vals[ri] = rr.Series.Rows[row][mi]
			}
			ta.Metrics = append(ta.Metrics, stats.Summarize(vals))
		}
		cell.Ticks = append(cell.Ticks, ta)
	}
}

// aggregateHijacks folds the per-run RP outcomes into success rates, in
// the RP order of the cell's first completed run.
func aggregateHijacks(cell *Cell, ok []*RunResult) {
	order := make([]string, 0, len(ok[0].Hijacks))
	acc := make(map[string]*RPHijackRate)
	for _, rr := range ok {
		for _, h := range rr.Hijacks {
			r, exists := acc[h.RP]
			if !exists {
				r = &RPHijackRate{RP: h.RP}
				acc[h.RP] = r
				order = append(order, h.RP)
			}
			r.Runs++
			if h.Success {
				r.SuccessRate++
			}
			r.MeanHijackedTicks += float64(h.HijackedTicks)
		}
	}
	for _, rp := range order {
		r := acc[rp]
		r.SuccessRate /= float64(r.Runs)
		r.MeanHijackedTicks /= float64(r.Runs)
		cell.Hijacks = append(cell.Hijacks, *r)
	}
}
