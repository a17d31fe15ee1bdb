package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"ripki/internal/sim"
)

// The sweep output contract mirrors PR 1's: the same grid + master seed
// produce byte-identical TSV and JSON at any worker count. Everything
// below iterates plan-ordered slices only — no maps, no wall-clock, no
// worker identity.

// WriteTSV renders the sweep as three tab-separated sections: one row
// per run (scalar summaries), one row per cell × tick × metric (the
// cross-run distribution), and one row per cell × relying party (hijack
// success rates).
func (r *Result) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	scenarios := axis(r.Plan.Grid.Scenarios, "baseline")
	// Streaming aggregates mark themselves (their percentiles are P²
	// estimates); exact-mode output stays byte-for-byte what it always
	// was, at any worker count and world-sharing mode.
	mode := ""
	if r.Streaming {
		mode = " mode=streaming"
	}
	fmt.Fprintf(bw, "# ripki-sweep master_seed=%d seeds=%s scenarios=%s cells=%d runs=%d%s\n",
		r.Plan.Grid.MasterSeed, formatSeeds(r.Plan.Seeds), strings.Join(scenarios, ","),
		len(r.Cells), len(r.Runs), mode)

	fmt.Fprintln(bw, "# runs")
	fmt.Fprintln(bw, "run\tcell\trep\tscenario\tseed\tdomains\ttick\tduration\tparams\trows\tmean_valid\tmin_valid\tfinal_coverage\tmax_hijacks\thijacked_rps\thijacked_ticks\terror")
	var row tsvRow
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
		row.int(rr.Spec.Index).int(rr.Spec.Cell).int(rr.Spec.Rep).str(cfg.Scenario).int64(cfg.Seed).int(cfg.Domains).
			str(cfg.Tick.String()).str(cfg.Duration.String()).str(FormatParams(cfg.Params)).int(rr.Rows).
			val(float64(rr.MeanValid)).val(float64(rr.MinValid)).val(float64(rr.FinalCoverage)).val(float64(rr.MaxHijacks)).
			int(hijackedRPs).int(hijackedTicks).str(errCell).end(bw)
	}

	fmt.Fprintln(bw, "# cell ticks")
	fmt.Fprintln(bw, "cell\tscenario\ttick\tt\tmetric\tcount\tmin\tmean\tmax\tp50\tp95\tp99")
	for ci := range r.Cells {
		cell := &r.Cells[ci]
		for _, ta := range cell.Ticks {
			for mi, name := range cell.Columns {
				s := ta.Metrics[mi]
				row.int(cell.Index).str(cell.Scenario).val(ta.Tick).val(ta.T).str(name).int(s.Count).
					val(s.Min).val(s.Mean).val(s.Max).val(s.P50).val(s.P95).val(s.P99).end(bw)
			}
		}
	}

	fmt.Fprintln(bw, "# cell hijack rates")
	fmt.Fprintln(bw, "cell\tscenario\tlabel\trp\truns\tsuccess_rate\tmean_hijacked_ticks")
	for ci := range r.Cells {
		cell := &r.Cells[ci]
		for _, h := range cell.Hijacks {
			row.int(cell.Index).str(cell.Scenario).str(cell.Label).str(h.RP).int(h.Runs).
				val(h.SuccessRate).val(h.MeanHijackedTicks).end(bw)
		}
	}
	return bw.Flush()
}

// tsvRow renders one tab-separated line at a time into a buffer it keeps:
// the cell-ticks section is tens of thousands of rows of a dozen numbers,
// written after the worker pool has drained, and formatting each through
// fmt was a measurable serial tail of a sweep.
type tsvRow struct{ buf []byte }

func (r *tsvRow) str(s string) *tsvRow {
	r.buf = append(append(r.buf, s...), '\t')
	return r
}

func (r *tsvRow) int(n int) *tsvRow { return r.int64(int64(n)) }

func (r *tsvRow) int64(n int64) *tsvRow {
	r.buf = append(strconv.AppendInt(r.buf, n, 10), '\t')
	return r
}

func (r *tsvRow) val(v float64) *tsvRow {
	r.buf = append(sim.AppendValue(r.buf, v), '\t')
	return r
}

// end turns the last field's tab into the line's end, hands the line to
// w and starts the next. A write error stays with w until Flush reports
// it.
func (r *tsvRow) end(w *bufio.Writer) {
	r.buf[len(r.buf)-1] = '\n'
	w.Write(r.buf)
	r.buf = r.buf[:0]
}

// runJSON is the serialised view of one run: spec identity plus its
// summary, no full series (those fold into the cell aggregates).
type runJSON struct {
	Run      int               `json:"run"`
	Cell     int               `json:"cell"`
	Rep      int               `json:"rep"`
	Scenario string            `json:"scenario"`
	Seed     int64             `json:"seed"`
	Domains  int               `json:"domains"`
	Tick     string            `json:"tick"`
	Duration string            `json:"duration"`
	Params   map[string]string `json:"params,omitempty"`
	RunSummary
}

// WriteJSON emits the sweep as one document: grid identity, per-cell
// aggregates, and per-run summaries.
func (r *Result) WriteJSON(w io.Writer) error {
	runs := make([]runJSON, len(r.Runs))
	for i := range r.Runs {
		rr := &r.Runs[i]
		cfg := rr.Spec.Config
		runs[i] = runJSON{
			Run:        rr.Spec.Index,
			Cell:       rr.Spec.Cell,
			Rep:        rr.Spec.Rep,
			Scenario:   cfg.Scenario,
			Seed:       cfg.Seed,
			Domains:    cfg.Domains,
			Tick:       cfg.Tick.String(),
			Duration:   cfg.Duration.String(),
			Params:     cfg.Params,
			RunSummary: rr.RunSummary,
		}
	}
	mode := ""
	if r.Streaming {
		mode = "streaming"
	}
	doc := struct {
		MasterSeed int64     `json:"master_seed"`
		Seeds      []int64   `json:"seeds"`
		Scenarios  []string  `json:"scenarios"`
		Mode       string    `json:"mode,omitempty"`
		Cells      []Cell    `json:"cells"`
		Runs       []runJSON `json:"runs"`
	}{
		MasterSeed: r.Plan.Grid.MasterSeed,
		Seeds:      r.Plan.Seeds,
		Scenarios:  axis(r.Plan.Grid.Scenarios, "baseline"),
		Mode:       mode,
		Cells:      r.Cells,
		Runs:       runs,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// formatSeeds renders the seed axis compactly for the TSV header.
func formatSeeds(seeds []int64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = strconv.FormatInt(s, 10)
	}
	return strings.Join(parts, ",")
}

// gridJSON is the grid-file schema: Grid with durations as strings
// ("30s", "10m"), the way humans write them.
type gridJSON struct {
	Grid
	Ticks     []string `json:"ticks,omitempty"`
	Durations []string `json:"durations,omitempty"`
}

// ParseGrid reads a JSON grid file. Unknown fields are rejected, so a
// typo'd axis name fails loudly instead of silently sweeping nothing, and
// so is anything but white space after the grid object.
func ParseGrid(data []byte) (Grid, error) {
	var gj gridJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&gj); err != nil {
		return Grid{}, fmt.Errorf("sweep: parsing grid: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Grid{}, errors.New("sweep: parsing grid: data after the grid object")
	}
	g := gj.Grid
	for _, s := range gj.Ticks {
		d, err := time.ParseDuration(s)
		if err != nil {
			return Grid{}, fmt.Errorf("sweep: grid tick %q: %w", s, err)
		}
		g.Ticks = append(g.Ticks, d)
	}
	for _, s := range gj.Durations {
		d, err := time.ParseDuration(s)
		if err != nil {
			return Grid{}, fmt.Errorf("sweep: grid duration %q: %w", s, err)
		}
		g.Durations = append(g.Durations, d)
	}
	return g, nil
}
