package sweep

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"ripki/internal/sim"
	"ripki/internal/stats"
)

// Options controls sweep execution. Workers and ShareWorlds are pure
// scheduling: they can never influence the output bytes. Streaming
// replaces exact percentiles by online accumulators — its output is
// still byte-identical at any worker count and world-sharing mode, but
// p50/p95 become P² estimates once a cell folds more than 25 runs (see
// stats.StreamingSummary for the exact-phase buffer and error bounds).
//
// Memory is bounded the same way in both modes: a finished cell holds
// its aggregate and nothing else, a run's time series is dropped as it
// is folded, and only the cells in flight hold more — every completed
// run's values per (tick, metric) in exact mode, one accumulator per
// (tick, metric) in streaming mode. Streaming is therefore for many
// replicates per cell, where the accumulator is the smaller of the two.
type Options struct {
	// Workers is the number of concurrent simulations (default
	// GOMAXPROCS). Output is byte-identical at any value.
	Workers int
	// ShareWorlds generates each distinct (seed, domains) world once and
	// hands every run sharing it an immutable-layers clone, instead of
	// regenerating the world per run. Output is byte-identical to the
	// per-run-regeneration path.
	ShareWorlds bool
	// Streaming folds each cell's runs into per-(tick, metric) online
	// accumulators instead of keeping their values until the cell is
	// complete; the output marks the mode.
	Streaming bool
	// Progress, when set, is called after each completed run with the
	// completion count. Runs finish in scheduling order, not grid order;
	// progress is presentation only.
	Progress func(done, total int, r *RunResult)
}

// RPHijack is one relying party's hijack outcome in one run.
type RPHijack struct {
	// RP names the relying party.
	RP string `json:"rp"`
	// HijackedTicks counts sampled ticks with at least one active
	// hijack forwarded by this RP.
	HijackedTicks int `json:"hijacked_ticks"`
	// Success is whether the RP ever forwarded to a hijacked prefix.
	Success bool `json:"success"`
}

// RunSummary is what one run measured, in the one shape it has in
// memory, on the distributed wire, in a checkpoint journal and in
// WriteJSON's run list (whose field order this is).
type RunSummary struct {
	// Rows is the number of recorded samples.
	Rows int `json:"rows"`
	// Err is the run's failure, empty on success.
	Err string `json:"error,omitempty"`
	// MeanValid / MinValid / FinalCoverage / MaxHijacks summarise the
	// run's exposure columns.
	MeanValid     stats.JSONFloat `json:"mean_valid"`
	MinValid      stats.JSONFloat `json:"min_valid"`
	FinalCoverage stats.JSONFloat `json:"final_coverage"`
	MaxHijacks    stats.JSONFloat `json:"max_hijacks"`
	// Hijacks is the per-RP attack outcome.
	Hijacks []RPHijack `json:"hijacks,omitempty"`
}

// RunResult is one completed simulation: its spec and its summary. The
// run's time series is folded into its cell's aggregate and not kept.
type RunResult struct {
	Spec RunSpec
	RunSummary
}

// Result is a completed sweep: the plan, every run in grid order, and
// the per-cell aggregates.
type Result struct {
	Plan  *Plan
	Runs  []RunResult
	Cells []Cell
	// Streaming records that the cell aggregates came from the online
	// accumulators; the output marks it.
	Streaming bool
}

// RunPlan executes an expanded plan (Grid.Plan), sharding the runs
// across a worker pool, and aggregates. Individual run failures are
// recorded in their RunResult (and excluded from aggregates), not fatal.
// Cancelling ctx stops dispatching, cancels in-flight simulations within
// one tick, and returns ctx's error. A local sweep is the distributed
// one with a single lease over every cell.
func RunPlan(ctx context.Context, plan *Plan, opt Options) (*Result, error) {
	partials, err := RunCells(ctx, plan, opt, 0, len(plan.Cells))
	if err != nil {
		return nil, err
	}
	return AssembleResult(plan, opt.Streaming, partials)
}

// RunCells executes every run of the contiguous cell range
// [first, first+count) — the distributed sweep's lease unit, or the
// whole plan — across the pool and returns one CellPartial per cell, in
// cell order. Each finished run goes straight to its cell's fold, so
// nothing downstream can observe completion order. Cancelling ctx
// abandons the range and returns ctx's error.
func RunCells(ctx context.Context, plan *Plan, opt Options, first, count int) ([]CellPartial, error) {
	if first < 0 || count <= 0 || first+count > len(plan.Cells) {
		return nil, fmt.Errorf("sweep: cell range [%d,%d) outside plan's %d cells", first, first+count, len(plan.Cells))
	}
	folds := make([]cellFold, count)
	for i := range folds {
		folds[i] = newCellFold(plan.Cells[first+i], opt.Streaming)
	}
	var specs []int
	for i := range plan.Specs {
		if c := plan.Specs[i].Cell; c >= first && c < first+count {
			specs = append(specs, i)
			folds[c-first].reps++
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	var worlds *worldCache
	if opt.ShareWorlds {
		worlds = newWorldCache(plan, specs)
	}

	jobs := make(chan int)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // folds, done and the Progress callback
		done int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				spec := &plan.Specs[idx]
				sum, series := runOne(ctx, spec, worlds)
				mu.Lock()
				folds[spec.Cell-first].land(spec.Rep, landed{run: RunPartial{Run: idx, RunSummary: sum}, series: series})
				done++
				if opt.Progress != nil {
					opt.Progress(done, len(specs), &RunResult{Spec: *spec, RunSummary: sum})
				}
				mu.Unlock()
			}
		}()
	}
dispatch:
	for _, idx := range specs {
		select {
		case jobs <- idx:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	partials := make([]CellPartial, count)
	for i := range folds {
		partials[i] = folds[i].out
	}
	return partials, nil
}

// runOne executes one spec and summarises its time series (nil when the
// run failed). With a world cache it claims a clone of the spec's shared
// world (releasing its reference either way); without one, sim.New
// generates the world.
func runOne(ctx context.Context, spec *RunSpec, worlds *worldCache) (RunSummary, *sim.TimeSeries) {
	var sum RunSummary
	cfg := spec.Config
	if worlds != nil {
		defer worlds.release(spec)
		world, err := worlds.clone(spec)
		if err != nil {
			sum.Err = err.Error()
			return sum, nil
		}
		cfg.World = world
	}
	series, err := sim.RunScenarioContext(ctx, cfg)
	if err != nil {
		sum.Err = err.Error()
		return sum, nil
	}
	sum.Rows = len(series.Rows)
	if valid := series.Column("valid"); valid != nil {
		s := stats.Summarize(valid)
		sum.MeanValid, sum.MinValid = stats.JSONFloat(s.Mean), stats.JSONFloat(s.Min)
	}
	if cov := series.Column("coverage"); len(cov) > 0 {
		sum.FinalCoverage = stats.JSONFloat(cov[len(cov)-1])
	}
	if hj := series.Column("hijacks"); hj != nil {
		sum.MaxHijacks = stats.JSONFloat(stats.Summarize(hj).Max)
	}
	for _, col := range series.Columns {
		rp, ok := strings.CutPrefix(col, "hijacked_")
		if !ok {
			continue
		}
		h := RPHijack{RP: rp}
		for _, v := range series.Column(col) {
			if v > 0 {
				h.HijackedTicks++
			}
		}
		h.Success = h.HijackedTicks > 0
		sum.Hijacks = append(sum.Hijacks, h)
	}
	return sum, series
}

// String renders a run for progress lines.
func (rr *RunResult) String() string {
	status := "ok"
	if rr.Err != "" {
		status = "ERROR " + rr.Err
	}
	return fmt.Sprintf("run %d cell %d seed %d %s: %s",
		rr.Spec.Index, rr.Spec.Cell, rr.Spec.Config.Seed, rr.Spec.Config.Scenario, status)
}
