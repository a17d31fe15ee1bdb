package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

func nanSeries() *TimeSeries {
	return &TimeSeries{
		Scenario: "test",
		Seed:     7,
		Meta:     "domains=1",
		Columns:  []string{"t", "valid", "head_valid"},
		Rows: [][]float64{
			{0, 0.5, math.NaN()},
			{30, 0.25, 1},
		},
	}
}

func TestColumnUnknown(t *testing.T) {
	ts := nanSeries()
	if got := ts.Column("no-such-column"); got != nil {
		t.Errorf("Column on unknown name = %v, want nil", got)
	}
	if got := ts.Column(""); got != nil {
		t.Errorf("Column(\"\") = %v, want nil", got)
	}
	if got := ts.Column("valid"); len(got) != 2 || got[0] != 0.5 || got[1] != 0.25 {
		t.Errorf("Column(valid) = %v", got)
	}
}

func TestWriteTSVNaN(t *testing.T) {
	ts := nanSeries()
	var a, b bytes.Buffer
	if err := ts.WriteTSV(&a); err != nil {
		t.Fatalf("WriteTSV with NaN: %v", err)
	}
	if err := ts.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("NaN rendering not deterministic")
	}
	lines := strings.Split(a.String(), "\n")
	if want := "0\t0.5\tNaN"; lines[2] != want {
		t.Errorf("NaN row = %q, want %q", lines[2], want)
	}
}

func TestWriteJSONNaN(t *testing.T) {
	ts := nanSeries()
	var a, b bytes.Buffer
	if err := ts.WriteJSON(&a); err != nil {
		t.Fatalf("WriteJSON with NaN: %v", err)
	}
	if err := ts.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("NaN JSON rendering not deterministic")
	}
	var decoded struct {
		Columns []string     `json:"columns"`
		Rows    [][]*float64 `json:"rows"`
	}
	if err := json.Unmarshal(a.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, a.String())
	}
	if decoded.Rows[0][2] != nil {
		t.Errorf("NaN cell decoded to %v, want null", *decoded.Rows[0][2])
	}
	if decoded.Rows[0][1] == nil || *decoded.Rows[0][1] != 0.5 {
		t.Error("finite cell did not round-trip")
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"}, {42, "42"}, {-3, "-3"}, {0.25, "0.25"}, {math.NaN(), "NaN"},
	}
	for _, c := range cases {
		if got := string(AppendValue(nil, c.v)); got != c.want {
			t.Errorf("AppendValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// formatValueByString is how a value was formatted before AppendValue: a
// string per cell.
func formatValueByString(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeTSVByCell is TimeSeries.WriteTSV as it was: a write per cell and
// separator. Kept as the oracle for the row-buffer writer.
func writeTSVByCell(ts *TimeSeries, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# ripki-sim scenario=%s seed=%d %s\n", ts.Scenario, ts.Seed, ts.Meta)
	for i, c := range ts.Columns {
		if i > 0 {
			bw.WriteByte('\t')
		}
		bw.WriteString(c)
	}
	bw.WriteByte('\n')
	for _, row := range ts.Rows {
		for i, v := range row {
			if i > 0 {
				bw.WriteByte('\t')
			}
			bw.WriteString(formatValueByString(v))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// TestAppendValueAndWriteTSVMatchOracles: rendering into a reused buffer
// writes the bytes the per-cell strings did — NaN, integer-valued,
// negative, shortest-round-trip and exponent-form floats, infinities and
// negative zero, an empty series, a row with no cells — into an empty
// buffer as into one that holds bytes already.
func TestAppendValueAndWriteTSVMatchOracles(t *testing.T) {
	values := []float64{
		0, 1, -1, 42, -3, 1e6, 1 << 53, 0.5, -0.25, 1.0 / 3, -2.0 / 3, 0.1 + 0.2, 2.5e-7, 1e21, -1e-300,
		123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	}
	buf := []byte("kept:")
	for _, v := range values {
		want := formatValueByString(v)
		if got := string(AppendValue(nil, v)); got != want {
			t.Errorf("AppendValue(nil, %v) = %q, want %q", v, got, want)
		}
		if got := string(AppendValue(buf, v)); got != "kept:"+want {
			t.Errorf("AppendValue(%q, %v) = %q, want %q", buf, v, got, "kept:"+want)
		}
	}
	for _, ts := range []*TimeSeries{
		nanSeries(),
		{Scenario: "empty", Seed: -9, Meta: "domains=0"},
		{Scenario: "wide", Seed: 1, Meta: "m", Columns: []string{"a"}, Rows: [][]float64{values, {}, values[:1]}},
	} {
		var got, want bytes.Buffer
		if err := ts.WriteTSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := writeTSVByCell(ts, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteTSV wrote\n%q\nthe per-cell oracle\n%q", ts.Scenario, got.Bytes(), want.Bytes())
		}
	}
}
