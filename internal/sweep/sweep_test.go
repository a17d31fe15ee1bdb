package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"ripki/internal/sim"
)

// testGrid is a small, fast grid: 2 scenarios × 2 replicates over tiny
// worlds (~24 ticks each).
func testGrid() Grid {
	return Grid{
		Scenarios:     []string{"baseline", "roa-churn"},
		MasterSeed:    1,
		Replicates:    2,
		Domains:       []int{1500},
		Ticks:         []time.Duration{10 * time.Second},
		Durations:     []time.Duration{4 * time.Minute},
		SampleEvery:   []int{4},
		SampleDomains: []int{150},
	}
}

// run expands g and runs the plan, as ripki-sweep does.
func run(ctx context.Context, g Grid, opt Options) (*Result, error) {
	plan, err := g.Plan()
	if err != nil {
		return nil, err
	}
	return RunPlan(ctx, plan, opt)
}

func TestPlanExpansion(t *testing.T) {
	g := testGrid()
	g.Scenarios = []string{"roa-churn", "rp-lag"} // both declare issue
	g.Domains = []int{1500, 3000}
	g.Params = map[string][]string{"issue": {"2", "4"}}
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// 2 scenarios × 2 domains × 2 param values = 8 cells, × 2 reps = 16 runs.
	if len(plan.Cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(plan.Cells))
	}
	if len(plan.Specs) != 16 {
		t.Fatalf("specs = %d, want 16", len(plan.Specs))
	}
	for i, spec := range plan.Specs {
		if spec.Index != i {
			t.Errorf("spec %d has index %d", i, spec.Index)
		}
		if spec.Cell != i/2 || spec.Rep != i%2 {
			t.Errorf("spec %d: cell=%d rep=%d, want cell-major order", i, spec.Cell, spec.Rep)
		}
		// Paired replication: replicate r shares its seed across cells.
		if spec.Config.Seed != plan.Seeds[spec.Rep] {
			t.Errorf("spec %d: seed %d, want %d", i, spec.Config.Seed, plan.Seeds[spec.Rep])
		}
	}
	if plan.Seeds[0] == plan.Seeds[1] {
		t.Error("derived seeds collide")
	}
	// Labels carry the varied axes.
	label := plan.Cells[0].Label
	if !strings.Contains(label, "scenario=roa-churn") || !strings.Contains(label, "domains=1500") || !strings.Contains(label, "issue=2") {
		t.Errorf("label missing varied axes: %q", label)
	}
	if strings.Contains(label, "tick=") {
		t.Errorf("label includes unvaried axis: %q", label)
	}
}

func TestPlanDefaultsAndExplicitSeeds(t *testing.T) {
	plan, err := Grid{Seeds: []int64{7, 8, 9}}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 1 || len(plan.Specs) != 3 {
		t.Fatalf("cells=%d specs=%d, want 1/3", len(plan.Cells), len(plan.Specs))
	}
	if plan.Cells[0].Scenario != "baseline" {
		t.Errorf("default scenario = %q", plan.Cells[0].Scenario)
	}
	if plan.Specs[1].Config.Seed != 8 {
		t.Errorf("explicit seed not used: %d", plan.Specs[1].Config.Seed)
	}
	// WithDefaults applied: the cell shows effective values.
	if plan.Cells[0].Config.Domains != 20000 || plan.Cells[0].Config.Tick != 30*time.Second {
		t.Errorf("cell config not defaulted: %+v", plan.Cells[0].Config)
	}
}

func TestPlanRejectsBadGrids(t *testing.T) {
	if _, err := (Grid{Scenarios: []string{"no-such-scenario"}}).Plan(); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := (Grid{Params: map[string][]string{"x": {}}}).Plan(); err == nil {
		t.Error("empty param axis accepted")
	}
	if _, err := (Grid{Ticks: []time.Duration{10 * time.Second, -10 * time.Second}}).Plan(); err == nil || !strings.Contains(err.Error(), "Tick") {
		t.Errorf("negative tick: %v, want a refusal naming Tick", err)
	}
	if _, err := (Grid{Durations: []time.Duration{-time.Minute}}).Plan(); err == nil || !strings.Contains(err.Error(), "Duration") {
		t.Errorf("negative duration: %v, want a refusal naming Duration", err)
	}
}

func TestDeriveSeedStable(t *testing.T) {
	// Locked values: changing the derivation silently changes every
	// sweep; make that loud.
	if got := deriveSeed(1, 0); got != deriveSeed(1, 0) {
		t.Fatalf("deriveSeed not pure: %d", got)
	}
	seen := map[int64]bool{}
	for r := 0; r < 100; r++ {
		s := deriveSeed(1, r)
		if seen[s] {
			t.Fatalf("seed collision at rep %d", r)
		}
		seen[s] = true
	}
}

// TestDeterminismAcrossWorkers is the subsystem's hard requirement:
// byte-identical TSV and JSON at any worker count.
func TestDeterminismAcrossWorkers(t *testing.T) {
	outputs := make([][2][]byte, 0, 2)
	for _, workers := range []int{1, 4} {
		res, err := run(context.Background(), testGrid(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var tsv, js bytes.Buffer
		if err := res.WriteTSV(&tsv); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, [2][]byte{tsv.Bytes(), js.Bytes()})
	}
	if !bytes.Equal(outputs[0][0], outputs[1][0]) {
		t.Error("TSV differs between 1 and 4 workers")
	}
	if !bytes.Equal(outputs[0][1], outputs[1][1]) {
		t.Error("JSON differs between 1 and 4 workers")
	}
	if !json.Valid(outputs[0][1]) {
		t.Error("sweep JSON is not valid JSON")
	}
}

// TestAggregates sanity-checks the folded output on a real small sweep.
func TestAggregates(t *testing.T) {
	res, err := run(context.Background(), testGrid(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 || len(res.Runs) != 4 {
		t.Fatalf("cells=%d runs=%d", len(res.Cells), len(res.Runs))
	}
	for _, cell := range res.Cells {
		if cell.Runs != 2 || cell.Errors != 0 {
			t.Fatalf("cell %d: runs=%d errors=%d", cell.Index, cell.Runs, cell.Errors)
		}
		if len(cell.Ticks) == 0 {
			t.Fatal("no tick aggregates")
		}
		for _, ta := range cell.Ticks {
			for mi, s := range ta.Metrics {
				if s.Count != 2 {
					t.Fatalf("cell %d metric %s: count=%d, want 2", cell.Index, cell.Columns[mi], s.Count)
				}
				if s.Min > s.P50 || s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
					t.Fatalf("metric %s: unordered summary %+v", cell.Columns[mi], s)
				}
			}
		}
		if len(cell.Hijacks) == 0 {
			t.Error("no per-RP hijack rates")
		}
	}
	// roa-churn ramps coverage: its final mean vrps must exceed baseline's.
	last := func(c Cell, name string) float64 {
		for i, col := range c.Columns {
			if col == name {
				return c.Ticks[len(c.Ticks)-1].Metrics[i].Mean
			}
		}
		t.Fatalf("column %s missing from %v", name, c.Columns)
		return 0
	}
	if last(res.Cells[1], "vrps") <= last(res.Cells[0], "vrps") {
		t.Error("churn cell did not ramp VRPs over baseline")
	}
}

// TestRunErrorsRecorded: a failing cell is reported per run and
// excluded from aggregates without failing the sweep.
func TestRunErrorsRecorded(t *testing.T) {
	g := testGrid()
	g.Scenarios = []string{"cdn-migration"}
	g.Replicates = 1
	g.Params = map[string][]string{"from": {"no-such-cdn"}}
	res, err := run(context.Background(), g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs[0].Err == "" {
		t.Fatal("scenario setup failure not recorded")
	}
	if res.Cells[0].Errors != 1 || res.Cells[0].Runs != 0 {
		t.Errorf("cell: runs=%d errors=%d, want 0/1", res.Cells[0].Runs, res.Cells[0].Errors)
	}
	var tsv, js bytes.Buffer
	if err := res.WriteTSV(&tsv); err != nil {
		t.Fatalf("TSV with errors: %v", err)
	}
	if !strings.Contains(tsv.String(), "no-such-cdn") {
		t.Error("error missing from runs table")
	}
	if err := res.WriteJSON(&js); err != nil {
		t.Fatalf("JSON with errors: %v", err)
	}
}

// TestAggregateSkipsNaN feeds the fold a synthetic series with NaN
// cells, its second replicate landing first — one empty-bin column must
// not poison the summary.
func TestAggregateSkipsNaN(t *testing.T) {
	plan, err := Grid{Replicates: 2}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(headValid float64, rows int) *sim.TimeSeries {
		ts := &sim.TimeSeries{Columns: []string{"t", "tick", "head_valid"}}
		for i := 0; i < rows; i++ {
			ts.Rows = append(ts.Rows, []float64{float64(i * 30), float64(i), headValid})
		}
		return ts
	}
	f := newCellFold(plan.Cells[0], false)
	f.reps = 2
	f.land(1, landed{run: RunPartial{Run: 1, RunSummary: RunSummary{Rows: 2}}, series: mk(0.5, 2)})
	f.land(0, landed{run: RunPartial{Run: 0, RunSummary: RunSummary{Rows: 3}}, series: mk(math.NaN(), 3)})
	cell := f.out.Agg
	if cell.Runs != 2 {
		t.Fatalf("runs = %d", cell.Runs)
	}
	// Row count clamps to the shortest run.
	if len(cell.Ticks) != 2 {
		t.Fatalf("ticks = %d, want 2 (clamped)", len(cell.Ticks))
	}
	s := cell.Ticks[0].Metrics[0]
	if s.Count != 1 || s.Mean != 0.5 {
		t.Errorf("NaN not skipped: %+v", s)
	}
}

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid([]byte(`{
		"scenarios": ["route-leak"],
		"master_seed": 7,
		"replicates": 2,
		"domains": [4000],
		"ticks": ["10s"],
		"durations": ["8m"],
		"params": {"leak_frac": ["0.2", "0.4"]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.MasterSeed != 7 || g.Ticks[0] != 10*time.Second || g.Durations[0] != 8*time.Minute {
		t.Errorf("grid parsed wrong: %+v", g)
	}
	if len(g.Params["leak_frac"]) != 2 {
		t.Errorf("params parsed wrong: %v", g.Params)
	}
	if _, err := ParseGrid([]byte(`{"ticks": ["ten seconds"]}`)); err == nil {
		t.Error("bad duration accepted")
	}
	if _, err := ParseGrid([]byte(`{"scenario": ["baseline"]}`)); err == nil {
		t.Error("unknown field (typo'd axis) accepted")
	}
	if _, err := ParseGrid([]byte(`{"replicates": 1} {"bogus": 7}`)); err == nil {
		t.Error("a second object after the grid accepted")
	}
	if _, err := ParseGrid([]byte("{\"replicates\": 1}\n\t ")); err != nil {
		t.Errorf("trailing white space rejected: %v", err)
	}
}

func TestFormatParams(t *testing.T) {
	if got := FormatParams(nil); got != "-" {
		t.Errorf("empty params = %q", got)
	}
	if got := FormatParams(sim.Params{"b": "2", "a": "1"}); got != "a=1,b=2" {
		t.Errorf("params = %q, want sorted", got)
	}
}
