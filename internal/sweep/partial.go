package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// This file is the sweep's data plane: the per-cell partial RunCells
// produces — for a local sweep, and as what a distributed worker ships
// to its coordinator and a checkpoint journal records — and the assembly
// that turns a complete set of partials into a Result.
//
// The byte-identity argument rests on leases being whole cells: every
// replicate of a cell runs in ONE process, which folds them in replicate
// order and renders the cell where they landed (cellFold). A partial
// therefore carries a finished aggregate in both modes — stats.Summary
// values, which round-trip JSON exactly (see stats.Summary's
// marshalling) — and nothing is ever merged across workers: the
// coordinator only *places* cells and runs at their grid positions.

// RunPartial is one run's summary keyed by its plan index. The worker
// re-expands the plan from the grid, so the spec itself (config, seed,
// cell, rep) never crosses the wire — only the index and what the run
// measured.
type RunPartial struct {
	Run int `json:"run"`
	RunSummary
}

// CellPartial is one completed cell: its run summaries in replicate
// order, its rendered aggregate, and the mode that aggregate was folded
// in.
type CellPartial struct {
	Cell      int          `json:"cell"`
	Streaming bool         `json:"streaming,omitempty"`
	Runs      []RunPartial `json:"runs"`
	Agg       *Cell        `json:"agg,omitempty"`
}

// AssembleResult places a complete set of cell partials into a Result;
// it is the only constructor of one. Every plan cell must be covered
// exactly once, in the mode asked for, and every run index must belong
// to its partial's cell; gaps, overlaps and a mode chimera are caller
// bugs and error loudly rather than producing silently-wrong output.
func AssembleResult(plan *Plan, streaming bool, partials []CellPartial) (*Result, error) {
	seen := make([]bool, len(plan.Cells))
	res := &Result{
		Plan:      plan,
		Runs:      make([]RunResult, len(plan.Specs)),
		Cells:     make([]Cell, len(plan.Cells)),
		Streaming: streaming,
	}
	for pi := range partials {
		p := &partials[pi]
		if p.Cell < 0 || p.Cell >= len(plan.Cells) {
			return nil, fmt.Errorf("sweep: partial for cell %d outside plan's %d cells", p.Cell, len(plan.Cells))
		}
		if seen[p.Cell] {
			return nil, fmt.Errorf("sweep: cell %d assembled twice", p.Cell)
		}
		seen[p.Cell] = true
		if p.Streaming != streaming {
			return nil, fmt.Errorf("sweep: cell %d was folded in %s mode, this sweep is %s", p.Cell, modeWord(p.Streaming), modeWord(streaming))
		}
		if p.Agg == nil {
			return nil, fmt.Errorf("sweep: cell %d (%s) partial carries no aggregate", p.Cell, plan.Cells[p.Cell].Label)
		}
		for _, rp := range p.Runs {
			if rp.Run < 0 || rp.Run >= len(plan.Specs) {
				return nil, fmt.Errorf("sweep: cell %d partial names run %d outside plan's %d runs", p.Cell, rp.Run, len(plan.Specs))
			}
			spec := &plan.Specs[rp.Run]
			if spec.Cell != p.Cell {
				return nil, fmt.Errorf("sweep: run %d belongs to cell %d, not cell %d", rp.Run, spec.Cell, p.Cell)
			}
			res.Runs[rp.Run] = RunResult{Spec: *spec, RunSummary: rp.RunSummary}
		}
		res.Cells[p.Cell] = *p.Agg
		// Config never crosses the wire (CellInfo marshals without it);
		// the caller's own expansion supplies the identity.
		res.Cells[p.Cell].CellInfo = plan.Cells[p.Cell]
	}
	for ci, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("sweep: no partial for cell %d", ci)
		}
	}
	return res, nil
}

func modeWord(streaming bool) string {
	if streaming {
		return "streaming"
	}
	return "exact"
}

// Hash fingerprints the expanded plan: master seed, the derived seed
// axis, and every cell's identity (scenario, label, config axes,
// params). Workers refuse leases against a coordinator whose plan hash
// differs from their own expansion, and checkpoint records are stamped
// with it so a resume can never mix grids.
func (p *Plan) Hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "master_seed=%d\nseeds=%s\nruns=%d\n",
		p.Grid.MasterSeed, formatSeeds(p.Seeds), len(p.Specs))
	for i := range p.Cells {
		c := &p.Cells[i]
		cfg := &c.Config
		fmt.Fprintf(h, "cell %d scenario=%s label=%q domains=%d tick=%s duration=%s sample_every=%d sample_domains=%d params=%s\n",
			c.Index, c.Scenario, c.Label, cfg.Domains, cfg.Tick, cfg.Duration,
			cfg.SampleEvery, cfg.SampleDomains, FormatParams(cfg.Params))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// MarshalGrid renders a Grid in the grid-file schema ParseGrid accepts
// (durations as human strings) — the coordinator ships its grid to
// workers this way, and both sides re-expand the identical Plan.
func MarshalGrid(g Grid) ([]byte, error) {
	gj := gridJSON{Grid: g}
	gj.Grid.Ticks, gj.Grid.Durations = nil, nil
	for _, d := range g.Ticks {
		gj.Ticks = append(gj.Ticks, d.String())
	}
	for _, d := range g.Durations {
		gj.Durations = append(gj.Durations, d.String())
	}
	return json.Marshal(gj)
}
