package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ripki/internal/sim"
	"ripki/internal/stats"
)

// aggregateCell is the sweep's aggregation as it was before cellFold:
// every run of the cell in hand at once, in replicate order, each
// (row, metric) summarised in one pass and the hijack rates accumulated
// in floats. Kept as the exact-mode oracle for the fold.
func aggregateCell(info CellInfo, runs []landed) Cell {
	cell := Cell{CellInfo: info}
	var ok []landed
	for _, l := range runs {
		if l.run.Err != "" || l.series == nil {
			cell.Errors++
			continue
		}
		ok = append(ok, l)
	}
	cell.Runs = len(ok)
	if len(ok) == 0 {
		return cell
	}

	first := ok[0].series
	var metricIdx []int
	for i, c := range first.Columns {
		if c == "t" || c == "tick" {
			continue
		}
		metricIdx = append(metricIdx, i)
		cell.Columns = append(cell.Columns, c)
	}
	rows := len(first.Rows)
	for _, l := range ok[1:] {
		rows = min(rows, len(l.series.Rows))
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
			for ri, l := range ok {
				vals[ri] = l.series.Rows[row][mi]
			}
			ta.Metrics = append(ta.Metrics, stats.Summarize(vals))
		}
		cell.Ticks = append(cell.Ticks, ta)
	}

	var order []string
	acc := make(map[string]*RPHijackRate)
	for _, l := range ok {
		for _, h := range l.run.Hijacks {
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
	return cell
}

// randomCell draws one cell's worth of finished runs in replicate order:
// 1–5 replicates, each failed with probability 1/4 (the first as likely
// as any), NaN cells sprinkled in, an RP that some runs lack, and at
// most one run a few rows short.
func randomCell(rnd *rand.Rand) []landed {
	reps := 1 + rnd.Intn(5)
	rows := 1 + rnd.Intn(6)
	short := rnd.Intn(reps + 1) // == reps: no run is short
	runs := make([]landed, reps)
	for rep := range runs {
		l := landed{run: RunPartial{Run: rep}}
		if rnd.Intn(4) == 0 {
			l.run.Err = fmt.Sprintf("run %d failed", rep)
			runs[rep] = l
			continue
		}
		n := rows
		if rep == short {
			n = rnd.Intn(rows + 1)
		}
		l.series = &sim.TimeSeries{Columns: []string{"t", "valid", "tick", "head_valid", "hijacks"}}
		for i := 0; i < n; i++ {
			row := []float64{float64(i * 30), rnd.Float64(), float64(i), rnd.NormFloat64() * 40, float64(rnd.Intn(3))}
			if rnd.Intn(5) == 0 {
				row[3] = math.NaN()
			}
			l.series.Rows = append(l.series.Rows, row)
		}
		l.run.Rows = n
		for _, rp := range []string{"drop-invalid", "legacy", "slow"} {
			if rp == "slow" && rnd.Intn(2) == 0 {
				continue
			}
			ticks := rnd.Intn(4)
			l.run.Hijacks = append(l.run.Hijacks, RPHijack{RP: rp, HijackedTicks: ticks, Success: ticks > 0})
		}
		runs[rep] = l
	}
	return runs
}

// foldInOrder lands the runs on a fresh fold in the given arrival order
// and returns the fold once the last has landed.
func foldInOrder(t *testing.T, info CellInfo, streaming bool, runs []landed, arrival []int) *cellFold {
	t.Helper()
	f := newCellFold(info, streaming)
	f.reps = len(runs)
	for i, rep := range arrival {
		if f.out.Agg != nil {
			t.Fatalf("cell rendered with %d of %d runs landed", i, len(runs))
		}
		f.land(rep, runs[rep])
	}
	if f.out.Agg == nil {
		t.Fatalf("cell not rendered after its last run landed (arrival %v)", arrival)
	}
	if f.vals != nil || f.accs != nil || len(f.parked) != 0 || f.t != nil || f.tick != nil || f.hijacks != nil {
		t.Fatalf("a finished fold holds more than its aggregate: %+v", f)
	}
	for rep, rp := range f.out.Runs {
		if rp.Run != rep {
			t.Fatalf("run summaries out of replicate order after arrival %v: %v", arrival, f.out.Runs)
		}
	}
	return &f
}

func cellJSON(t *testing.T, c *Cell) []byte {
	t.Helper()
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFoldMatchesWholeCellAggregation is the fold's contract: whatever
// order a cell's runs land in, the cell it renders is the one the
// collect-everything-then-aggregate oracle computes (exact mode) and the
// one the in-order fold renders (streaming mode, where the oracle's
// percentiles are not the estimator's) — and once rendered, the fold
// holds nothing but that cell.
func TestFoldMatchesWholeCellAggregation(t *testing.T) {
	plan, err := Grid{}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	info := plan.Cells[0]
	rnd := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		runs := randomCell(rnd)
		inOrder := make([]int, len(runs))
		for i := range inOrder {
			inOrder[i] = i
		}
		arrival := rnd.Perm(len(runs))

		oracle := aggregateCell(info, runs)
		want := cellJSON(t, &oracle)
		got := cellJSON(t, foldInOrder(t, info, false, runs, arrival).out.Agg)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d, arrival %v: exact fold diverged from whole-cell aggregation:\n got %s\nwant %s", trial, arrival, got, want)
		}

		want = cellJSON(t, foldInOrder(t, info, true, runs, inOrder).out.Agg)
		got = cellJSON(t, foldInOrder(t, info, true, runs, arrival).out.Agg)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d, arrival %v: streaming fold depends on arrival order:\n got %s\nwant %s", trial, arrival, got, want)
		}
	}
}
