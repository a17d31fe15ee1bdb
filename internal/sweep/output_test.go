package sweep

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"ripki/internal/sim"
	"ripki/internal/stats"
)

// formatValue is sim.AppendValue as a string.
func formatValue(v float64) string { return string(sim.AppendValue(nil, v)) }

// writeTSVByFprintf is Result.WriteTSV as it was: every row through
// fmt.Fprintf, every number through a formatValue string. Kept as the
// oracle for the append-based writer.
func writeTSVByFprintf(r *Result, w io.Writer) error {
	bw := bufio.NewWriter(w)
	scenarios := axis(r.Plan.Grid.Scenarios, "baseline")
	mode := ""
	if r.Streaming {
		mode = " mode=streaming"
	}
	fmt.Fprintf(bw, "# ripki-sweep master_seed=%d seeds=%s scenarios=%s cells=%d runs=%d%s\n",
		r.Plan.Grid.MasterSeed, formatSeeds(r.Plan.Seeds), strings.Join(scenarios, ","),
		len(r.Cells), len(r.Runs), mode)

	fmt.Fprintln(bw, "# runs")
	fmt.Fprintln(bw, "run\tcell\trep\tscenario\tseed\tdomains\ttick\tduration\tparams\trows\tmean_valid\tmin_valid\tfinal_coverage\tmax_hijacks\thijacked_rps\thijacked_ticks\terror")
	for i := range r.Runs {
		rr := &r.Runs[i]
		cfg := rr.Spec.Config
		hijackedRPs, hijackedTicks := 0, 0
		for _, h := range rr.Hijacks {
			if h.Success {
				hijackedRPs++
			}
			hijackedTicks += h.HijackedTicks
		}
		errCell := "-"
		if rr.Err != "" {
			errCell = strings.ReplaceAll(strings.ReplaceAll(rr.Err, "\t", " "), "\n", " ")
		}
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\t%s\t%s\t%s\t%d\t%s\t%s\t%s\t%s\t%d\t%d\t%s\n",
			rr.Spec.Index, rr.Spec.Cell, rr.Spec.Rep, cfg.Scenario, cfg.Seed, cfg.Domains,
			cfg.Tick, cfg.Duration, FormatParams(cfg.Params), rr.Rows,
			formatValue(float64(rr.MeanValid)), formatValue(float64(rr.MinValid)),
			formatValue(float64(rr.FinalCoverage)), formatValue(float64(rr.MaxHijacks)),
			hijackedRPs, hijackedTicks, errCell)
	}

	fmt.Fprintln(bw, "# cell ticks")
	fmt.Fprintln(bw, "cell\tscenario\ttick\tt\tmetric\tcount\tmin\tmean\tmax\tp50\tp95\tp99")
	for ci := range r.Cells {
		cell := &r.Cells[ci]
		for _, ta := range cell.Ticks {
			for mi, name := range cell.Columns {
				s := ta.Metrics[mi]
				fmt.Fprintf(bw, "%d\t%s\t%s\t%s\t%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
					cell.Index, cell.Scenario, formatValue(ta.Tick), formatValue(ta.T), name,
					s.Count, formatValue(s.Min), formatValue(s.Mean),
					formatValue(s.Max), formatValue(s.P50), formatValue(s.P95),
					formatValue(s.P99))
			}
		}
	}

	fmt.Fprintln(bw, "# cell hijack rates")
	fmt.Fprintln(bw, "cell\tscenario\tlabel\trp\truns\tsuccess_rate\tmean_hijacked_ticks")
	for ci := range r.Cells {
		cell := &r.Cells[ci]
		for _, h := range cell.Hijacks {
			fmt.Fprintf(bw, "%d\t%s\t%s\t%s\t%d\t%s\t%s\n",
				cell.Index, cell.Scenario, cell.Label, h.RP, h.Runs,
				formatValue(h.SuccessRate), formatValue(h.MeanHijackedTicks))
		}
	}
	return bw.Flush()
}

// TestWriteTSVMatchesFprintf: the append-based writer emits the bytes
// the Fprintf one did, on a real sweep (runs, per-tick aggregates, hijack
// rates, params) with the awkward cells planted in it: NaN, negative and
// integer-valued floats, shortest-round-trip fractions, magnitudes that
// switch to exponent form, a negative seed, an error with tabs and
// newlines — in exact and streaming mode.
func TestWriteTSVMatchesFprintf(t *testing.T) {
	g := testGrid()
	g.Scenarios = []string{"route-leak", "hijack-window"}
	g.Params = map[string][]string{"end_frac": {"0.8"}}
	for _, streaming := range []bool{false, true} {
		res, err := run(context.Background(), g, Options{Workers: 2, ShareWorlds: true, Streaming: streaming})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) == 0 || len(res.Cells[0].Ticks) == 0 || len(res.Cells[0].Hijacks) == 0 {
			t.Fatalf("sweep produced no tick aggregates or hijack rates to render: %d cells", len(res.Cells))
		}
		awkward := []float64{math.NaN(), -3, 0, 1e6, -0.1, 1.0 / 3, 2.5e-7, 1e21, 123456789.125, math.Inf(1), math.Copysign(0, -1)}
		k := 0
		next := func() float64 { k++; return awkward[k%len(awkward)] }
		r0 := &res.Runs[0]
		r0.MeanValid, r0.MinValid, r0.FinalCoverage, r0.MaxHijacks = stats.JSONFloat(next()), stats.JSONFloat(next()), stats.JSONFloat(next()), stats.JSONFloat(next())
		res.Runs[1].Err = "boom\tat tick 3\nsecond line"
		res.Runs[1].Spec.Config.Seed = -42
		for ti := range res.Cells[0].Ticks {
			ta := &res.Cells[0].Ticks[ti]
			for mi := range ta.Metrics {
				m := &ta.Metrics[mi]
				m.Min, m.Mean, m.Max, m.P50, m.P95, m.P99 = next(), next(), next(), next(), next(), next()
			}
			ta.T = next()
		}
		res.Cells[0].Hijacks[0].SuccessRate, res.Cells[0].Hijacks[0].MeanHijackedTicks = 1.0/3, math.NaN()

		var got, want bytes.Buffer
		if err := res.WriteTSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := writeTSVByFprintf(res, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
			for i := range wl {
				if i >= len(gl) || gl[i] != wl[i] {
					t.Fatalf("streaming=%v: line %d differs:\n got %q\nwant %q", streaming, i+1, gl[min(i, len(gl)-1)], wl[i])
				}
			}
			t.Fatalf("streaming=%v: WriteTSV wrote %d bytes, the Fprintf oracle %d", streaming, got.Len(), want.Len())
		}
	}
}

// FuzzParseGrid holds the grid reader that ripki-sweep -grid and every
// distributed worker's hello go through: it never panics; a grid it
// accepts, MarshalGrid renders as bytes that parse back and render to
// the same bytes (compared as bytes: a nil and an empty axis are the
// same grid); and a grid followed by anything but white space is
// rejected.
func FuzzParseGrid(f *testing.F) {
	f.Add([]byte(`{"scenarios": ["route-leak"], "replicates": 2, "ticks": ["10s"], "durations": ["8m"]}`))
	f.Add([]byte(`{"replicates": 1} {"bogus": 7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGrid(data)
		if err != nil {
			return
		}
		out, err := MarshalGrid(g)
		if err != nil {
			t.Fatalf("MarshalGrid of an accepted grid: %v", err)
		}
		back, err := ParseGrid(out)
		if err != nil {
			t.Fatalf("ParseGrid rejects MarshalGrid's %s: %v", out, err)
		}
		again, err := MarshalGrid(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, again) {
			t.Fatalf("not a fixed point:\n%s\n%s", out, again)
		}
		for _, tail := range []string{"0", "{}", "x"} {
			if _, err := ParseGrid(append(data[:len(data):len(data)], tail...)); err == nil {
				t.Fatalf("accepted %q after the grid", tail)
			}
		}
	})
}
