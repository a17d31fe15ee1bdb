package sweep

import (
	"ripki/internal/sim"
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

// cellFold is the one place a cell's runs become its aggregate: in
// exact and in streaming mode, for a local sweep and on a distributed
// worker. The pool hands it every finished run of the cell, in whatever
// order the workers finish them; it folds them in replicate order —
// never completion order, which is what makes the output independent of
// the worker count — drops each run's time series as it is folded, and
// renders the Cell the moment the last replicate has been. What a
// finished cell holds, in either mode, is its aggregate.
//
// A run that lands ahead of a predecessor is parked, time series
// attached, until the stragglers arrive. A cell's runs are dispatched
// back to back, so at most about Workers runs are ever parked.
type cellFold struct {
	// out grows one run summary per folded replicate; render sets Agg.
	out    CellPartial
	reps   int            // runs the cell is owed
	parked map[int]landed // by replicate

	// The aggregate being built: identity and counts in agg, the rest
	// laid out by the first completed run and dropped by render. Runs of
	// one cell share a config (bar the seed) and therefore columns and
	// cadence; the row count is clamped to the shortest run as a guard.
	agg       Cell
	metricIdx []int // agg.Columns[m] is the run's column metricIdx[m]
	t, tick   []float64
	rows      int
	// Per (row, metric), at row*len(metricIdx)+metric: exact mode keeps
	// the completed runs' values (reps slots each), streaming mode one
	// online accumulator.
	vals    []float64
	accs    []*stats.StreamingSummary
	hijacks []hijackTally
}

// landed is one finished run: what it measured and, unless it failed,
// its time series.
type landed struct {
	run    RunPartial
	series *sim.TimeSeries
}

// hijackTally is one relying party's outcome counts within a cell.
// Integers, divided only at render time: the quotient does not depend on
// the order the runs were added in.
type hijackTally struct {
	rp                     string
	runs, successes, ticks int
}

func newCellFold(info CellInfo, streaming bool) cellFold {
	return cellFold{
		out:    CellPartial{Cell: info.Index, Streaming: streaming},
		parked: make(map[int]landed),
		agg:    Cell{CellInfo: info},
	}
}

// land takes one finished run of the cell and folds every run that is
// now next in replicate order. Callers serialise calls.
func (f *cellFold) land(rep int, l landed) {
	f.parked[rep] = l
	for {
		next, ok := f.parked[len(f.out.Runs)]
		if !ok {
			return
		}
		delete(f.parked, len(f.out.Runs))
		f.out.Runs = append(f.out.Runs, next.run)
		f.fold(next)
		if len(f.out.Runs) == f.reps {
			f.render()
			return
		}
	}
}

// fold adds one run, in replicate order. A failed run is counted and
// otherwise skipped; a cell whose runs all failed has empty aggregates.
func (f *cellFold) fold(l landed) {
	series := l.series
	if series == nil {
		f.agg.Errors++
		return
	}
	if f.agg.Runs == 0 {
		for i, col := range series.Columns {
			if col == "t" || col == "tick" {
				continue
			}
			f.metricIdx = append(f.metricIdx, i)
			f.agg.Columns = append(f.agg.Columns, col)
		}
		f.t, f.tick = series.Column("t"), series.Column("tick")
		f.rows = len(series.Rows)
		n := f.rows * len(f.metricIdx)
		if f.out.Streaming {
			f.accs = make([]*stats.StreamingSummary, n)
			for i := range f.accs {
				f.accs[i] = stats.NewStreamingSummary()
			}
		} else {
			f.vals = make([]float64, n*f.reps)
		}
	}
	f.rows = min(f.rows, len(series.Rows))
	for row := 0; row < f.rows; row++ {
		for m, mi := range f.metricIdx {
			i, v := row*len(f.metricIdx)+m, series.Rows[row][mi]
			if f.out.Streaming {
				f.accs[i].Add(v)
			} else {
				f.vals[i*f.reps+f.agg.Runs] = v
			}
		}
	}
	f.agg.Runs++
	for _, h := range l.run.Hijacks {
		t := f.tally(h.RP)
		t.runs++
		if h.Success {
			t.successes++
		}
		t.ticks += h.HijackedTicks
	}
}

// tally returns the RP's tally, appending one on first sight — so rates
// come out in the RP order of the cell's first completed run.
func (f *cellFold) tally(rp string) *hijackTally {
	for i := range f.hijacks {
		if f.hijacks[i].rp == rp {
			return &f.hijacks[i]
		}
	}
	f.hijacks = append(f.hijacks, hijackTally{rp: rp})
	return &f.hijacks[len(f.hijacks)-1]
}

// render turns what was folded into the cell's aggregate and lets go of
// everything else.
func (f *cellFold) render() {
	cell := f.agg
	metrics := len(f.metricIdx)
	for row := 0; row < f.rows; row++ {
		ta := TickAggregate{Metrics: make([]stats.Summary, metrics)}
		if f.t != nil {
			ta.T = f.t[row]
		}
		if f.tick != nil {
			ta.Tick = f.tick[row]
		}
		for m := range ta.Metrics {
			i := row*metrics + m
			if f.out.Streaming {
				ta.Metrics[m] = f.accs[i].Summary()
			} else {
				ta.Metrics[m] = stats.Summarize(f.vals[i*f.reps:][:cell.Runs])
			}
		}
		cell.Ticks = append(cell.Ticks, ta)
	}
	for _, t := range f.hijacks {
		cell.Hijacks = append(cell.Hijacks, RPHijackRate{
			RP:                t.rp,
			Runs:              t.runs,
			SuccessRate:       float64(t.successes) / float64(t.runs),
			MeanHijackedTicks: float64(t.ticks) / float64(t.runs),
		})
	}
	f.out.Agg = &cell
	*f = cellFold{out: f.out}
}
