package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestBinnerMeans(t *testing.T) {
	b := NewBinner(10)
	for rank := 1; rank <= 30; rank++ {
		v := 0.0
		if rank <= 10 {
			v = 1.0 // first bin all ones
		} else if rank <= 20 && rank%2 == 0 {
			v = 1.0 // second bin half ones
		}
		b.Add(rank, v)
	}
	if len(b.sums) != 3 {
		t.Fatalf("bins = %d", len(b.sums))
	}
	if got := b.Mean(0); got != 1.0 {
		t.Errorf("Mean(0) = %v", got)
	}
	if got := b.Mean(1); got != 0.5 {
		t.Errorf("Mean(1) = %v", got)
	}
	if got := b.Mean(2); got != 0.0 {
		t.Errorf("Mean(2) = %v", got)
	}
	if !math.IsNaN(b.Mean(9)) {
		t.Error("Mean of absent bin not NaN")
	}
	if b.counts[0] != 10 {
		t.Errorf("bin 0 holds %d observations, want 10", b.counts[0])
	}
}

func TestBinnerBoundaries(t *testing.T) {
	b := NewBinner(10000)
	b.Add(1, 1)
	b.Add(10000, 1)
	b.Add(10001, 1)
	if len(b.sums) != 2 {
		t.Fatalf("bins = %d", len(b.sums))
	}
	if b.counts[0] != 2 || b.counts[1] != 1 {
		t.Errorf("bin counts: %d, %d", b.counts[0], b.counts[1])
	}
}

func TestBinnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(rank 0) did not panic")
		}
	}()
	NewBinner(10).Add(0, 1)
}

func TestSeriesFromBinner(t *testing.T) {
	b := NewBinner(100)
	b.Add(1, 0.5)
	b.Add(150, 1.0)
	s := b.Series("test")
	if len(s.Points) != 2 {
		t.Fatalf("points = %v", s.Points)
	}
	if s.Points[0].X != 1 || s.Points[1].X != 101 {
		t.Errorf("x values: %v", s.Points)
	}
}

func TestFigureTSV(t *testing.T) {
	f := &Figure{
		Title:  "Figure 2",
		XLabel: "rank",
		YLabel: "freq",
		Series: []Series{
			{Name: "valid", Points: []Point{{1, 0.04}, {10001, 0.05}}},
			{Name: "invalid", Points: []Point{{1, 0.001}, {10001, 0.0009}}},
		},
	}
	var buf bytes.Buffer
	if err := f.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("TSV lines = %d:\n%s", len(lines), out)
	}
	if lines[1] != "rank\tvalid\tinvalid" {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "1\t0.040000\t0.001000") {
		t.Errorf("row = %q", lines[2])
	}
}

func TestASCIIPlot(t *testing.T) {
	f := &Figure{
		Title:  "t",
		YLabel: "y",
		Series: []Series{{Name: "a", Points: []Point{{1, 0}, {2, 1}, {3, 0.5}}}},
	}
	out := f.ASCIIPlot(20, 5)
	if !strings.Contains(out, "*") || !strings.Contains(out, "a") {
		t.Errorf("plot missing markers:\n%s", out)
	}
	empty := &Figure{Title: "e"}
	if !strings.Contains(empty.ASCIIPlot(20, 5), "no data") {
		t.Error("empty plot not flagged")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "Table 1",
		Columns: []string{"Rank", "Domain", "www"},
		Rows: [][]string{
			{"2", "facebook.com", "3/3"},
			{"70", "cdncache1-a.akamaihd.net", "n/a"},
		},
	}
	var buf bytes.Buffer
	if err := tbl.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "facebook.com\t3/3") {
		t.Errorf("TSV:\n%s", buf.String())
	}
	buf.Reset()
	if err := tbl.WriteAligned(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cdncache1-a.akamaihd.net") {
		t.Errorf("aligned:\n%s", buf.String())
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	// p95 of [1..5]: pos = 0.95*4 = 3.8 → 4*(0.2) + 5*(0.8) = 4.8.
	if math.Abs(s.P95-4.8) > 1e-9 {
		t.Errorf("P95 = %v, want 4.8", s.P95)
	}
	// p99 of [1..5]: pos = 0.99*4 = 3.96 → 4*(0.04) + 5*(0.96) = 4.96.
	if math.Abs(s.P99-4.96) > 1e-9 {
		t.Errorf("P99 = %v, want 4.96", s.P99)
	}
}

func TestSummarizeSkipsNaN(t *testing.T) {
	s := Summarize([]float64{math.NaN(), 2, math.NaN(), 4})
	if s.Count != 2 || s.Min != 2 || s.Max != 4 || s.Mean != 3 || s.P50 != 3 {
		t.Errorf("Summarize with NaN = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	for _, vs := range [][]float64{nil, {}, {math.NaN(), math.NaN()}} {
		s := Summarize(vs)
		if s.Count != 0 {
			t.Errorf("Count = %d for %v", s.Count, vs)
		}
		for name, v := range map[string]float64{"min": s.Min, "max": s.Max, "mean": s.Mean, "p50": s.P50, "p95": s.P95, "p99": s.P99} {
			if !math.IsNaN(v) {
				t.Errorf("%s = %v for empty sample, want NaN", name, v)
			}
		}
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Count != 1 || s.Min != 7 || s.Max != 7 || s.Mean != 7 || s.P50 != 7 || s.P95 != 7 || s.P99 != 7 {
		t.Errorf("Summarize single = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {-5, 10}, {150, 40},
		{50, 25}, {25, 17.5},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of empty sample not NaN")
	}
}

func TestSummaryMarshalJSONNaN(t *testing.T) {
	b, err := json.Marshal(Summarize(nil))
	if err != nil {
		t.Fatalf("marshal empty summary: %v", err)
	}
	want := `{"count":0,"min":null,"max":null,"mean":null,"p50":null,"p95":null,"p99":null}`
	if string(b) != want {
		t.Errorf("got %s, want %s", b, want)
	}
	b, err = json.Marshal(Summarize([]float64{1, 2, 3}))
	if err != nil {
		t.Fatalf("marshal summary: %v", err)
	}
	if !strings.Contains(string(b), `"mean":2`) || strings.Contains(string(b), "null") {
		t.Errorf("finite summary rendered wrong: %s", b)
	}
}
