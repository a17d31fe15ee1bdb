package sweep

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// composedGrid is one composed cell with a routed param axis: the
// compound workload the composition refactor exists for.
func composedGrid() Grid {
	return Grid{
		Scenarios:     []string{"roa-churn+rp-lag"},
		MasterSeed:    1,
		Replicates:    2,
		Domains:       []int{1500},
		Ticks:         []time.Duration{10 * time.Second},
		Durations:     []time.Duration{4 * time.Minute},
		SampleEvery:   []int{4},
		SampleDomains: []int{150},
		Params:        map[string][]string{"roa-churn.issue": {"2", "4"}},
	}
}

// TestComposedCellDeterminism lifts the worker-count and world-sharing
// contracts to composed cells: byte-identical TSV at 2 vs 8 workers,
// streaming or exact, and shared worlds vs per-run regeneration.
func TestComposedCellDeterminism(t *testing.T) {
	render := func(opt Options) []byte {
		t.Helper()
		res, err := run(context.Background(), composedGrid(), opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, rr := range res.Runs {
			if rr.Err != "" {
				t.Fatalf("composed run failed: %s", rr.Err)
			}
		}
		var buf bytes.Buffer
		if err := res.WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := render(Options{Workers: 2, ShareWorlds: true})
	for name, opt := range map[string]Options{
		"8 workers":      {Workers: 8, ShareWorlds: true},
		"regenerated":    {Workers: 2, ShareWorlds: false},
		"streaming base": {Workers: 2, ShareWorlds: true, Streaming: true},
	} {
		got := render(opt)
		if name == "streaming base" {
			// Streaming output marks its mode; compare against its own
			// 8-worker rerun instead of the exact-mode bytes.
			again := render(Options{Workers: 8, ShareWorlds: true, Streaming: true})
			if !bytes.Equal(got, again) {
				t.Errorf("streaming composed sweep differs between 2 and 8 workers")
			}
			continue
		}
		if !bytes.Equal(base, got) {
			t.Errorf("composed sweep differs for %s", name)
		}
	}
}

// TestComposedPlanValidation: bad composition specs and mis-routed
// param axes fail at plan time, not as per-run errors.
func TestComposedPlanValidation(t *testing.T) {
	g := composedGrid()
	g.Scenarios = []string{"roa-churn+no-such-thing"}
	if _, err := g.Plan(); err == nil {
		t.Error("unknown composition component accepted")
	}
	g = composedGrid()
	g.Params = map[string][]string{"hijack-window.cdn": {"akamai"}}
	if _, err := g.Plan(); err == nil {
		t.Error("param axis addressing a non-member component accepted")
	}
}

// TestComposedCellLabels: the composition spec is the scenario label,
// and routed param axes appear verbatim.
func TestComposedCellLabels(t *testing.T) {
	plan, err := composedGrid().Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 2 {
		t.Fatalf("cells = %d, want 2 (one per routed param value)", len(plan.Cells))
	}
	for _, cell := range plan.Cells {
		if cell.Scenario != "roa-churn+rp-lag" {
			t.Errorf("cell scenario = %q", cell.Scenario)
		}
		if !bytes.Contains([]byte(cell.Label), []byte("roa-churn.issue=")) {
			t.Errorf("label missing routed param axis: %q", cell.Label)
		}
	}
}
