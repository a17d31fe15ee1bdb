package sim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"ripki/internal/stats"
)

// TimeSeries is the simulation's output: one row per probe sample plus
// the bus event log. Two runs with the same Config produce byte-for-byte
// identical WriteTSV / WriteJSON output.
type TimeSeries struct {
	// Scenario and Seed identify the run.
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// Meta is the rendered run configuration ("domains=20000 tick=30s
	// duration=30m"), for the TSV header comment.
	Meta string `json:"meta"`
	// Columns names the row values; Rows holds one value per column.
	Columns []string    `json:"columns"`
	Rows    [][]float64 `json:"rows"`
	// Events is the bus log (scenario mutations, cache flushes, RP
	// refreshes, samples).
	Events []Event `json:"events"`
}

// Add appends a row; it must match len(Columns).
func (ts *TimeSeries) Add(row []float64) {
	ts.Rows = append(ts.Rows, row)
}

// Column returns the values of the named column, or nil if unknown.
func (ts *TimeSeries) Column(name string) []float64 {
	idx := -1
	for i, c := range ts.Columns {
		if c == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	out := make([]float64, len(ts.Rows))
	for i, r := range ts.Rows {
		out[i] = r[idx]
	}
	return out
}

// AppendValue appends a cell's rendering to dst: integers without a
// fraction, NaN as "NaN", everything else in shortest round-trip form.
// strconv is deterministic, so the byte-identical-output guarantee
// holds; the sweep aggregator renders its tables with the same function.
func AppendValue(dst []byte, v float64) []byte {
	if math.IsNaN(v) {
		return append(dst, "NaN"...)
	}
	if v == float64(int64(v)) {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// WriteTSV emits a comment header identifying the run, a column header,
// and one tab-separated row per sample.
func (ts *TimeSeries) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# ripki-sim scenario=%s seed=%d %s\n", ts.Scenario, ts.Seed, ts.Meta); err != nil {
		return err
	}
	if _, err := bw.WriteString(strings.Join(ts.Columns, "\t") + "\n"); err != nil {
		return err
	}
	var line []byte // one row, rendered in place and reused
	for _, row := range ts.Rows {
		line = line[:0]
		for i, v := range row {
			if i > 0 {
				line = append(line, '\t')
			}
			line = AppendValue(line, v)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MarshalJSON encodes the series with NaN row values rendered as null —
// a probe column can legitimately be NaN (an empty rank bin), and that
// must not make the whole export fail.
func (ts *TimeSeries) MarshalJSON() ([]byte, error) {
	rows := make([][]stats.JSONFloat, len(ts.Rows))
	for i, r := range ts.Rows {
		rows[i] = make([]stats.JSONFloat, len(r))
		for j, v := range r {
			rows[i][j] = stats.JSONFloat(v)
		}
	}
	return json.Marshal(struct {
		Scenario string              `json:"scenario"`
		Seed     int64               `json:"seed"`
		Meta     string              `json:"meta"`
		Columns  []string            `json:"columns"`
		Rows     [][]stats.JSONFloat `json:"rows"`
		Events   []Event             `json:"events"`
	}{ts.Scenario, ts.Seed, ts.Meta, ts.Columns, rows, ts.Events})
}

// WriteJSON emits the full series (rows and event log) as one JSON
// document.
func (ts *TimeSeries) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ts)
}
