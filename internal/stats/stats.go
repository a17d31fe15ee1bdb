// Package stats provides the binning and presentation machinery the
// paper's figures use: domains grouped into rank bins of 10,000
// ("we apply a binning of 10k domains in all graphs"), relative
// frequencies per bin, and table/series rendering as TSV or aligned
// text.
package stats

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Summary is the five-number-plus-mean description of a sample:
// count/min/max/mean and the 50th/95th/99th percentiles. Sweeps fold
// each simulated tick's cross-run values into one Summary per metric;
// the serving layer and loadgen report request latencies in the same
// shape (p99 is the tail number an SLO watches).
type Summary struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summarize describes a sample. NaN values are skipped — an empty
// Binner bin reports NaN, and one empty bin must not poison a whole
// sweep aggregate. With no finite values every statistic is NaN and
// Count is zero.
func Summarize(vs []float64) Summary {
	finite := make([]float64, 0, len(vs))
	for _, v := range vs {
		if !math.IsNaN(v) {
			finite = append(finite, v)
		}
	}
	s := Summary{Count: len(finite), Min: math.NaN(), Max: math.NaN(), Mean: math.NaN(), P50: math.NaN(), P95: math.NaN(), P99: math.NaN()}
	if len(finite) == 0 {
		return s
	}
	sort.Float64s(finite)
	var sum float64
	for _, v := range finite {
		sum += v
	}
	s.Min = finite[0]
	s.Max = finite[len(finite)-1]
	s.Mean = sum / float64(len(finite))
	s.P50 = Percentile(finite, 50)
	s.P95 = Percentile(finite, 95)
	s.P99 = Percentile(finite, 99)
	return s
}

// Percentile returns the p-th percentile (0–100) of an ascending-sorted
// sample, with linear interpolation between closest ranks. NaN for an
// empty sample.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// JSONFloat is a float64 that encodes non-finite values as null —
// encoding/json rejects NaN outright, and the sim/sweep exports must
// serialise even where a metric has nothing to report. The single
// rendering rule every JSON surface shares.
type JSONFloat float64

// MarshalJSON renders the number, or null when it is not finite.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON inverts MarshalJSON: null decodes to NaN, numbers to
// themselves — so a serialised summary round-trips exactly, which the
// distributed-sweep merge depends on for byte-identical output.
func (f *JSONFloat) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = JSONFloat(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// summaryJSON is Summary with null-safe floats, shared by both
// marshalling directions so NaN round-trips as null and back.
type summaryJSON struct {
	Count int       `json:"count"`
	Min   JSONFloat `json:"min"`
	Max   JSONFloat `json:"max"`
	Mean  JSONFloat `json:"mean"`
	P50   JSONFloat `json:"p50"`
	P95   JSONFloat `json:"p95"`
	P99   JSONFloat `json:"p99"`
}

// MarshalJSON renders non-finite statistics as null, so an empty cell
// cannot fail a whole sweep export.
func (s Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(summaryJSON{s.Count, JSONFloat(s.Min), JSONFloat(s.Max), JSONFloat(s.Mean), JSONFloat(s.P50), JSONFloat(s.P95), JSONFloat(s.P99)})
}

// UnmarshalJSON restores a Summary, decoding null statistics back to
// NaN — the exact inverse of MarshalJSON, float for float.
func (s *Summary) UnmarshalJSON(data []byte) error {
	var sj summaryJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return err
	}
	*s = Summary{sj.Count, float64(sj.Min), float64(sj.Max), float64(sj.Mean), float64(sj.P50), float64(sj.P95), float64(sj.P99)}
	return nil
}

// Binner accumulates per-rank observations into fixed-width rank bins.
// Values are probabilities or indicator weights; each bin reports the
// mean of its observations (a relative frequency when the inputs are
// 0/1 indicators).
type Binner struct {
	width  int
	sums   []float64
	counts []int
}

// NewBinner creates a binner with the given bin width (e.g. 10000).
func NewBinner(width int) *Binner {
	if width <= 0 {
		panic("stats: bin width must be positive")
	}
	return &Binner{width: width}
}

// Add records an observation for the 1-based rank.
func (b *Binner) Add(rank int, value float64) {
	if rank < 1 {
		panic(fmt.Sprintf("stats: rank %d out of range", rank))
	}
	idx := (rank - 1) / b.width
	for len(b.sums) <= idx {
		b.sums = append(b.sums, 0)
		b.counts = append(b.counts, 0)
	}
	b.sums[idx] += value
	b.counts[idx]++
}

// Mean returns the mean observation in bin i (NaN for empty bins).
func (b *Binner) Mean(i int) float64 {
	if i < 0 || i >= len(b.sums) || b.counts[i] == 0 {
		return math.NaN()
	}
	return b.sums[i] / float64(b.counts[i])
}

// Series converts the binner to a named series. X values are the bin
// start ranks (1, width+1, ...).
func (b *Binner) Series(name string) Series {
	s := Series{Name: name}
	for i := range b.sums {
		s.Points = append(s.Points, Point{X: float64(i*b.width + 1), Y: b.Mean(i)})
	}
	return s
}

// Point is one (x, y) sample.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points — one curve in a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a set of series sharing an x axis — one paper figure.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// WriteTSV renders the figure as a tab-separated table: one row per x
// value, one column per series. Series are aligned by point index.
func (f *Figure) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", f.Title)
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	fmt.Fprintln(bw, strings.Join(cols, "\t"))
	n := 0
	for _, s := range f.Series {
		if len(s.Points) > n {
			n = len(s.Points)
		}
	}
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(f.Series)+1)
		x := math.NaN()
		for _, s := range f.Series {
			if i < len(s.Points) {
				x = s.Points[i].X
				break
			}
		}
		row = append(row, trimFloat(x))
		for _, s := range f.Series {
			if i < len(s.Points) {
				row = append(row, fmt.Sprintf("%.6f", s.Points[i].Y))
			} else {
				row = append(row, "")
			}
		}
		fmt.Fprintln(bw, strings.Join(row, "\t"))
	}
	return bw.Flush()
}

func trimFloat(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// ASCIIPlot renders the figure as a crude fixed-size text plot, for
// example programs and quick terminal inspection.
func (f *Figure) ASCIIPlot(width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	minY, maxY := math.Inf(1), math.Inf(-1)
	minX, maxX := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for _, p := range s.Points {
			if math.IsNaN(p.Y) {
				continue
			}
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		}
	}
	if math.IsInf(minY, 1) {
		return f.Title + ": (no data)\n"
	}
	if maxY == minY {
		maxY = minY + 1
	}
	if maxX == minX {
		maxX = minX + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	markers := "*+ox#@"
	for si, s := range f.Series {
		m := markers[si%len(markers)]
		for _, p := range s.Points {
			if math.IsNaN(p.Y) {
				continue
			}
			x := int((p.X - minX) / (maxX - minX) * float64(width-1))
			y := int((p.Y - minY) / (maxY - minY) * float64(height-1))
			grid[height-1-y][x] = m
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", f.Title)
	fmt.Fprintf(&sb, "%-12s top=%.4f\n", f.YLabel, maxY)
	for _, row := range grid {
		sb.WriteString("|")
		sb.Write(row)
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "+%s bottom=%.4f\n", strings.Repeat("-", width), minY)
	for si, s := range f.Series {
		fmt.Fprintf(&sb, "  %c = %s\n", markers[si%len(markers)], s.Name)
	}
	return sb.String()
}

// Table is a simple labelled table — one paper table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// WriteTSV renders the table as TSV.
func (t *Table) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", t.Title)
	fmt.Fprintln(bw, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(bw, strings.Join(row, "\t"))
	}
	return bw.Flush()
}

// WriteAligned renders the table with space-aligned columns for
// terminals.
func (t *Table) WriteAligned(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\n", t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(bw, "  ")
			}
			fmt.Fprintf(bw, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(bw)
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return bw.Flush()
}
