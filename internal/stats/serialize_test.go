package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// foldN returns an accumulator with the first n values of vs folded.
func foldN(vs []float64, n int) *StreamingSummary {
	acc := NewStreamingSummary()
	for _, v := range vs[:n] {
		acc.Add(v)
	}
	return acc
}

// roundTrip serialises and restores an accumulator.
func roundTrip(t *testing.T, acc *StreamingSummary) *StreamingSummary {
	t.Helper()
	data, err := json.Marshal(acc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	restored := NewStreamingSummary()
	if err := json.Unmarshal(data, restored); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return restored
}

// sameSummary compares two summaries bit-for-bit, NaN-aware.
func sameSummary(a, b Summary) bool {
	eq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	return a.Count == b.Count && eq(a.Min, b.Min) && eq(a.Max, b.Max) &&
		eq(a.Mean, b.Mean) && eq(a.P50, b.P50) && eq(a.P95, b.P95) && eq(a.P99, b.P99)
}

// TestStreamingRoundTripContinuesExactly is the distributed-sweep
// serialisation contract: an accumulator serialised at ANY point of its
// stream — empty, mid-exact-phase, exactly at the buffer boundary
// (where the lazy P² transition is still pending), or deep in the P²
// phase — restores to a state that reports the same Summary and keeps
// folding bit-identically to the original on every subsequent
// observation. The boundary cases matter: p50/p95 switch phase at 25
// observations, p99 at 100, so the split points bracket both.
func TestStreamingRoundTripContinuesExactly(t *testing.T) {
	rnd := rand.New(rand.NewSource(1509))
	vs := make([]float64, 400)
	for i := range vs {
		switch i % 7 {
		case 3:
			vs[i] = math.NaN() // serialisation must survive skipped values
		default:
			vs[i] = rnd.NormFloat64() * 40
		}
	}
	for _, split := range []int{0, 1, 7, 24, 25, 26, 60, 99, 100, 101, 250, 400} {
		orig := foldN(vs, split)
		restored := roundTrip(t, orig)
		if !sameSummary(orig.Summary(), restored.Summary()) {
			t.Fatalf("split %d: summary diverged after round trip:\n%+v\n%+v",
				split, orig.Summary(), restored.Summary())
		}
		for i := split; i < len(vs); i++ {
			orig.Add(vs[i])
			restored.Add(vs[i])
			if !sameSummary(orig.Summary(), restored.Summary()) {
				t.Fatalf("split %d: fold diverged at observation %d:\n%+v\n%+v",
					split, i, orig.Summary(), restored.Summary())
			}
		}
	}
}

// TestStreamingRoundTripPreservesPhase pins the state representation
// itself: an exact-phase accumulator serialises its buffer (and no
// markers), a P²-phase one serialises its markers (and no buffer) — so
// the wire format distinguishes the two and a decoded accumulator
// re-enters the same phase.
func TestStreamingRoundTripPreservesPhase(t *testing.T) {
	exact := foldN([]float64{3, 1, 2}, 3)
	data, err := json.Marshal(exact)
	if err != nil {
		t.Fatal(err)
	}
	var state struct {
		P50 struct {
			N   int       `json:"n"`
			Buf []float64 `json:"buf"`
			Q   []float64 `json:"q"`
		} `json:"p50"`
	}
	if err := json.Unmarshal(data, &state); err != nil {
		t.Fatal(err)
	}
	if len(state.P50.Buf) != 3 || state.P50.Q != nil {
		t.Fatalf("exact phase should serialise buffer only: %s", data)
	}
	// Insertion order (not sorted) must be preserved: the exact phase is
	// order-sensitive at the P² seeding boundary.
	if state.P50.Buf[0] != 3 || state.P50.Buf[1] != 1 || state.P50.Buf[2] != 2 {
		t.Fatalf("buffer order not preserved: %v", state.P50.Buf)
	}

	deep := NewStreamingSummary()
	for i := 0; i < 300; i++ {
		deep.Add(float64(i % 97))
	}
	data, err = json.Marshal(deep)
	if err != nil {
		t.Fatal(err)
	}
	state.P50.Buf, state.P50.Q = nil, nil
	if err := json.Unmarshal(data, &state); err != nil {
		t.Fatal(err)
	}
	if state.P50.Buf != nil || len(state.P50.Q) != 5 {
		t.Fatalf("P² phase should serialise markers only: %s", data)
	}
}

// TestStreamingRoundTripRejectsTornState: a P²-phase record missing its
// markers (or carrying markers without positions) is corrupt and must
// fail to decode rather than silently resetting the estimator.
func TestStreamingRoundTripRejectsTornState(t *testing.T) {
	if err := json.Unmarshal([]byte(`{"p":0.5,"n":60}`), &p2Quantile{}); err == nil {
		t.Fatal("P²-phase state without markers decoded")
	}
	if err := json.Unmarshal([]byte(`{"p":0.5,"n":60,"q":[1,2,3,4,5]}`), &p2Quantile{}); err == nil {
		t.Fatal("markers without positions decoded")
	}
}

// TestSummaryJSONRoundTrip: the Summary wire rendering (null for
// non-finite values) decodes back to the same Summary, NaN for NaN and
// float for float — what lets exact-mode cell aggregates cross the
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
