package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// wireTrip pushes partials through their JSON serialisation — exactly
// what the distributed protocol does — and returns the decoded copies.
func wireTrip(t *testing.T, partials []CellPartial) []CellPartial {
	t.Helper()
	out := make([]CellPartial, len(partials))
	for i := range partials {
		data, err := json.Marshal(&partials[i])
		if err != nil {
			t.Fatalf("marshal partial %d: %v", i, err)
		}
		if err := json.Unmarshal(data, &out[i]); err != nil {
			t.Fatalf("unmarshal partial %d: %v", i, err)
		}
	}
	return out
}

// runSharded runs the plan as a set of RunCells leases (each range run
// independently, like separate workers), wire-trips every partial, and
// assembles.
func runSharded(t *testing.T, plan *Plan, opt Options, ranges [][2]int) *Result {
	t.Helper()
	var all []CellPartial
	for _, r := range ranges {
		ps, err := RunCells(context.Background(), plan, opt, r[0], r[1])
		if err != nil {
			t.Fatalf("RunCells(%d, %d): %v", r[0], r[1], err)
		}
		all = append(all, ps...)
	}
	res, err := AssembleResult(plan, opt.Streaming, wireTrip(t, all))
	if err != nil {
		t.Fatalf("AssembleResult: %v", err)
	}
	return res
}

// TestShardedRunsAreByteIdentical is the distributed sweep's core
// contract at the data-plane level, with no sockets in the way: a plan
// split into per-cell and uneven multi-cell leases, run independently,
// serialised, and assembled renders the same TSV and JSON bytes as one
// in-process sweep (itself one lease over every cell, never serialised)
// — in exact mode and in streaming mode. The cell range may be
// partitioned any way, and a partial may cross a wire, without moving a
// byte.
func TestShardedRunsAreByteIdentical(t *testing.T) {
	g := testGrid()
	g.Scenarios = []string{"baseline", "roa-churn", "hijack-window"}
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	shardings := [][][2]int{
		{{0, 1}, {1, 1}, {2, 1}}, // one cell per lease
		{{0, 2}, {2, 1}},         // uneven contiguous ranges
		{{2, 1}, {0, 2}},         // delivered out of order
		{{0, 3}},                 // one lease, still through the wire
	}
	for _, streaming := range []bool{false, true} {
		opt := Options{Workers: 2, ShareWorlds: true, Streaming: streaming}
		// The reference plan must be re-expanded: Run mutates nothing, but
		// keep the comparison honest by sharing the identical plan value.
		want, err := RunPlan(context.Background(), plan, opt)
		if err != nil {
			t.Fatal(err)
		}
		wantTSV, wantJSON := render(t, want)
		for si, ranges := range shardings {
			got := runSharded(t, plan, opt, ranges)
			gotTSV, gotJSON := render(t, got)
			if !bytes.Equal(wantTSV, gotTSV) {
				t.Fatalf("streaming=%v sharding %d: TSV diverged from single-process run:\n%s", streaming, si, firstDiff(wantTSV, gotTSV))
			}
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Fatalf("streaming=%v sharding %d: JSON diverged from single-process run:\n%s", streaming, si, firstDiff(wantJSON, gotJSON))
			}
		}
	}
}

// firstDiff renders the first differing line pair for a readable
// failure.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return "want: " + w[i] + "\ngot:  " + g[i]
		}
	}
	return "outputs differ in length"
}

// TestRunCellsValidatesRange: a lease outside the plan is a caller bug.
func TestRunCellsValidatesRange(t *testing.T) {
	plan, err := testGrid().Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{-1, 1}, {0, 0}, {0, 3}, {2, 1}} {
		if _, err := RunCells(context.Background(), plan, Options{}, r[0], r[1]); err == nil {
			t.Errorf("RunCells(%d, %d) accepted an invalid range", r[0], r[1])
		}
	}
}

// TestAssembleResultRejectsBadPartials: gaps, overlaps, foreign runs
// and mode mismatches must error, never assemble silently-wrong output.
func TestAssembleResultRejectsBadPartials(t *testing.T) {
	plan, err := testGrid().Plan()
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Workers: 2, ShareWorlds: true}
	partials, err := RunCells(context.Background(), plan, opt, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssembleResult(plan, false, partials[:1]); err == nil {
		t.Error("missing cell assembled")
	}
	if _, err := AssembleResult(plan, false, append(append([]CellPartial{}, partials...), partials[0])); err == nil {
		t.Error("duplicate cell assembled")
	}
	if _, err := AssembleResult(plan, true, partials); err == nil {
		t.Error("exact partials assembled as streaming")
	}
	chimera := append([]CellPartial{}, partials...)
	chimera[1].Streaming = true
	if _, err := AssembleResult(plan, false, chimera); err == nil || !strings.Contains(err.Error(), "cell 1") {
		t.Errorf("one streaming-stamped cell among exact ones: %v, want a refusal naming cell 1", err)
	}
	hollow := append([]CellPartial{}, partials...)
	hollow[1].Agg = nil
	if _, err := AssembleResult(plan, false, hollow); err == nil || !strings.Contains(err.Error(), plan.Cells[1].Label) {
		t.Errorf("a partial without an aggregate: %v, want a refusal naming %q", err, plan.Cells[1].Label)
	}
	mixed := append([]CellPartial{}, partials...)
	mixed[0].Runs = append([]RunPartial{}, mixed[0].Runs...)
	mixed[0].Runs[0].Run = len(plan.Specs) - 1 // belongs to cell 1
	if _, err := AssembleResult(plan, false, mixed); err == nil {
		t.Error("run attributed to the wrong cell assembled")
	}
}

// TestRunCellsCancellation: a cancelled context abandons the lease with
// the context's error, the signal a worker uses to stop computing for a
// vanished coordinator.
func TestRunCellsCancellation(t *testing.T) {
	plan, err := testGrid().Plan()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCells(ctx, plan, Options{}, 0, 1); err != context.Canceled {
		t.Fatalf("RunCells on a cancelled ctx: %v, want context.Canceled", err)
	}
}

// TestMarshalGridRoundTrip: the wire form the coordinator ships
// re-parses (through ParseGrid's strict decoder) into a grid whose plan
// hash matches — the exact check workers perform at hello time.
func TestMarshalGridRoundTrip(t *testing.T) {
	g := testGrid()
	g.Scenarios = []string{"roa-churn", "rp-lag"} // both declare issue
	g.Params = map[string][]string{"issue": {"2", "4"}}
	g.Ticks = []time.Duration{10 * time.Second, 30 * time.Second}
	data, err := MarshalGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseGrid(data)
	if err != nil {
		t.Fatalf("ParseGrid rejected MarshalGrid output: %v\n%s", err, data)
	}
	p1, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := back.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p1.Hash() != p2.Hash() {
		t.Fatalf("plan hash changed across the grid wire:\n%s\nvs\n%s", p1.Hash(), p2.Hash())
	}
	if len(p2.Cells) != len(p1.Cells) || len(p2.Specs) != len(p1.Specs) {
		t.Fatalf("expansion changed: %d/%d cells, %d/%d specs", len(p2.Cells), len(p1.Cells), len(p2.Specs), len(p1.Specs))
	}
}

// TestPlanHashDiscriminates: the hash must move when anything that
// changes the output moves — scenario set, seeds, params, axes.
func TestPlanHashDiscriminates(t *testing.T) {
	base := testGrid()
	base.Scenarios = []string{"roa-churn", "rp-lag"} // both declare issue
	hash := func(g Grid) string {
		t.Helper()
		p, err := g.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return p.Hash()
	}
	h0 := hash(base)
	vary := map[string]func(*Grid){
		"master seed": func(g *Grid) { g.MasterSeed = 2 },
		"replicates":  func(g *Grid) { g.Replicates = 3 },
		"scenarios":   func(g *Grid) { g.Scenarios = []string{"roa-churn"} },
		"domains":     func(g *Grid) { g.Domains = []int{1600} },
		"duration":    func(g *Grid) { g.Durations = []time.Duration{5 * time.Minute} },
		"params":      func(g *Grid) { g.Params = map[string][]string{"issue": {"3"}} },
	}
	for name, mutate := range vary {
		g := base
		mutate(&g)
		if hash(g) == h0 {
			t.Errorf("changing %s did not change the plan hash", name)
		}
	}
	if hash(base) != h0 {
		t.Error("hash is not deterministic")
	}
}
