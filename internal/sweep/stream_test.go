package sweep

import (
	"bytes"
	"context"
	"math"
	"testing"
)

// render dumps both output formats for byte-level comparison.
func render(t *testing.T, res *Result) (tsv, js []byte) {
	t.Helper()
	var tb, jb bytes.Buffer
	if err := res.WriteTSV(&tb); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes()
}

// TestSharedWorldsByteIdentical is shared-world execution's contract:
// generating each (seed, domains) world once and cloning it per run
// must produce byte-identical output to regenerating per run —
// cdn-migration is in the grid precisely because it mutates the (cloned)
// DNS registry.
func TestSharedWorldsByteIdentical(t *testing.T) {
	g := testGrid()
	g.Scenarios = []string{"baseline", "roa-churn", "cdn-migration"}
	regen, err := run(context.Background(), g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := run(context.Background(), g, Options{Workers: 4, ShareWorlds: true})
	if err != nil {
		t.Fatal(err)
	}
	rt, rj := render(t, regen)
	st, sj := render(t, shared)
	if !bytes.Equal(rt, st) {
		t.Error("TSV differs between per-run regeneration and shared worlds")
	}
	if !bytes.Equal(rj, sj) {
		t.Error("JSON differs between per-run regeneration and shared worlds")
	}
}

// TestSharedWorldCloneIsolation: a scenario that rewrites the DNS
// registry (cdn-migration) must not leak its mutations into sibling
// runs sharing the world — every replicate of the same cell sees the
// same world, so their migrated series must match the unshared run's.
func TestSharedWorldCloneIsolation(t *testing.T) {
	g := testGrid()
	g.Scenarios = []string{"cdn-migration", "baseline"}
	g.Replicates = 3
	res, err := run(context.Background(), g, Options{Workers: 3, ShareWorlds: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range res.Runs {
		if rr.Err != "" {
			t.Fatalf("run %d: %s", rr.Spec.Index, rr.Err)
		}
	}
	// The baseline cell shares seeds with the cdn-migration cell; had
	// migration mutations leaked into the shared snapshot, the baseline
	// replicate of the same seed would see a different world than an
	// isolated run.
	solo, err := run(context.Background(), Grid{
		Scenarios:     []string{"baseline"},
		Seeds:         []int64{res.Plan.Seeds[0]},
		Domains:       g.Domains,
		Ticks:         g.Ticks,
		Durations:     g.Durations,
		SampleEvery:   g.SampleEvery,
		SampleDomains: g.SampleDomains,
	}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sharedBaseline *RunResult
	for i := range res.Runs {
		rr := &res.Runs[i]
		if rr.Spec.Config.Scenario == "baseline" && rr.Spec.Rep == 0 {
			sharedBaseline = rr
		}
	}
	if sharedBaseline == nil {
		t.Fatal("no baseline rep-0 run")
	}
	if sharedBaseline.MeanValid != solo.Runs[0].MeanValid || sharedBaseline.Rows != solo.Runs[0].Rows {
		t.Errorf("shared-world baseline diverged from isolated run: %+v vs %+v",
			sharedBaseline, &solo.Runs[0])
	}
}

// TestStreamingDeterministicAcrossWorkers is streaming mode's hard
// requirement: replicate-order folding makes the output byte-identical
// at any worker count, with or without world sharing.
func TestStreamingDeterministicAcrossWorkers(t *testing.T) {
	g := testGrid()
	g.Replicates = 3
	var first [2][]byte
	for i, opt := range []Options{
		{Workers: 1, Streaming: true},
		{Workers: 4, Streaming: true},
		{Workers: 4, Streaming: true, ShareWorlds: true},
	} {
		res, err := run(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		tsv, js := render(t, res)
		if i == 0 {
			first = [2][]byte{tsv, js}
			continue
		}
		if !bytes.Equal(first[0], tsv) {
			t.Errorf("streaming TSV differs under %+v", opt)
		}
		if !bytes.Equal(first[1], js) {
			t.Errorf("streaming JSON differs under %+v", opt)
		}
	}
}

// TestStreamingMatchesExactAggregates: below the exact-phase buffer
// size the streamed percentiles are exact, so the whole cell table must
// match the collect-then-Summarize path (mean up to fp association;
// everything else bit-equal).
func TestStreamingMatchesExactAggregates(t *testing.T) {
	g := testGrid()
	g.Replicates = 4
	exact, err := run(context.Background(), g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := run(context.Background(), g, Options{Workers: 4, Streaming: true, ShareWorlds: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Cells) != len(stream.Cells) {
		t.Fatalf("cell count: %d vs %d", len(exact.Cells), len(stream.Cells))
	}
	for ci := range exact.Cells {
		e, s := &exact.Cells[ci], &stream.Cells[ci]
		if e.Runs != s.Runs || e.Errors != s.Errors || len(e.Ticks) != len(s.Ticks) {
			t.Fatalf("cell %d shape: %d/%d/%d vs %d/%d/%d",
				ci, e.Runs, e.Errors, len(e.Ticks), s.Runs, s.Errors, len(s.Ticks))
		}
		for ti := range e.Ticks {
			for mi := range e.Ticks[ti].Metrics {
				em, sm := e.Ticks[ti].Metrics[mi], s.Ticks[ti].Metrics[mi]
				if em.Count != sm.Count || em.Min != sm.Min || em.Max != sm.Max {
					t.Fatalf("cell %d tick %d %s: count/min/max %v vs %v",
						ci, ti, e.Columns[mi], em, sm)
				}
				if !almostEq(em.Mean, sm.Mean) || !almostEq(em.P50, sm.P50) || !almostEq(em.P95, sm.P95) || !almostEq(em.P99, sm.P99) {
					t.Fatalf("cell %d tick %d %s: mean/p50/p95/p99 %v vs %v",
						ci, ti, e.Columns[mi], em, sm)
				}
			}
		}
		if len(e.Hijacks) != len(s.Hijacks) {
			t.Fatalf("cell %d hijack rows: %d vs %d", ci, len(e.Hijacks), len(s.Hijacks))
		}
		for hi := range e.Hijacks {
			if e.Hijacks[hi] != s.Hijacks[hi] {
				t.Fatalf("cell %d hijack %d: %+v vs %+v", ci, hi, e.Hijacks[hi], s.Hijacks[hi])
			}
		}
	}
}

// TestStreamingReleasesSeries: a streaming sweep keeps every run's
// scalar summaries (the time series themselves are gone in both modes:
// a RunResult has no field for one) and marks its result.
func TestStreamingReleasesSeries(t *testing.T) {
	res, err := run(context.Background(), testGrid(), Options{Workers: 2, Streaming: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Runs {
		if res.Runs[i].Rows == 0 {
			t.Fatalf("run %d lost its scalar summaries", i)
		}
	}
	if !res.Streaming {
		t.Error("result not marked streaming")
	}
}

// TestStreamingRecordsErrors: failed runs are counted per cell in
// streaming mode too, and never stall the replicate-order fold.
func TestStreamingRecordsErrors(t *testing.T) {
	g := testGrid()
	g.Scenarios = []string{"cdn-migration"}
	g.Replicates = 2
	g.Params = map[string][]string{"from": {"no-such-cdn"}}
	res, err := run(context.Background(), g, Options{Workers: 2, Streaming: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells[0].Errors != 2 || res.Cells[0].Runs != 0 {
		t.Errorf("cell: runs=%d errors=%d, want 0/2", res.Cells[0].Runs, res.Cells[0].Errors)
	}
	if len(res.Cells[0].Ticks) != 0 {
		t.Errorf("all-failed cell has tick aggregates")
	}
}

func almostEq(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
