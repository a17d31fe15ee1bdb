package stats

import (
	"encoding/json"
	"math"
	"testing"
)

// sameSummary compares two summaries bit-for-bit, NaN-aware.
func sameSummary(a, b Summary) bool {
	eq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	return a.Count == b.Count && eq(a.Min, b.Min) && eq(a.Max, b.Max) &&
		eq(a.Mean, b.Mean) && eq(a.P50, b.P50) && eq(a.P95, b.P95) && eq(a.P99, b.P99)
}

// TestSummaryJSONRoundTrip: the Summary wire rendering (null for
// non-finite values) decodes back to the same Summary, NaN for NaN and
// float for float — what lets cell aggregates cross the
// distributed-sweep wire without changing a single output byte.
func TestSummaryJSONRoundTrip(t *testing.T) {
	cases := []Summary{
		Summarize([]float64{1, 2, 3, 4, 5}),
		Summarize([]float64{0.1234567890123456789, -7e300, 3e-300}),
		{Count: 0, Min: math.NaN(), Max: math.NaN(), Mean: math.NaN(),
			P50: math.NaN(), P95: math.NaN(), P99: math.NaN()},
	}
	for i, want := range cases {
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		var got Summary
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !sameSummary(got, want) {
			t.Fatalf("case %d: round trip changed the summary:\n%+v\n%+v", i, want, got)
		}
	}
}
