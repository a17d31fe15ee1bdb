// Package sweep runs grids of scenario simulations across worker
// goroutines and folds the per-run time series into deterministic
// cross-run aggregates.
//
// The paper's claim — popular, CDN-hosted sites are systematically less
// RPKI-protected and therefore exposed during hijack windows — is a
// statement about a *distribution* of possible worlds, not one run.
// internal/sim evaluates a single (scenario, seed, config) point; this
// package expands a parameter grid (scenario × seed × domains × tick ×
// duration × any scenario parameter), shards the independent worlds
// across a worker pool, and aggregates each cell's runs (the replicates
// differing only in seed) into per-tick min/mean/max/p50/p95 summaries
// and per-relying-party hijack-success rates.
//
// The scenario axis accepts compositions: a grid point like
// "roa-churn+rp-lag" runs both components' event streams in one world
// (see sim.Composite), and a param axis keyed "roa-churn.issue" is
// routed to that component only — so compound incidents sweep exactly
// like single scenarios, in every execution mode.
//
// Determinism is the contract PR 1 established, lifted to fleets: the
// same Grid and master seed produce byte-identical WriteTSV/WriteJSON
// output at ANY worker count. Three ingredients make that true — every
// run's seed derives from its grid position (never from scheduling),
// each sim.Simulation is already a pure function of its Config, and
// results are merged in grid order, not completion order.
package sweep

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ripki/internal/sim"
)

// Grid is a parameter grid: the cross product of every axis. Empty axes
// collapse to a single default entry (the sim.Config zero value, which
// sim fills with its own defaults), so the zero Grid is one baseline
// run.
type Grid struct {
	// Scenarios is the scenario axis (default: baseline). Each entry is
	// a registered scenario or a "+"-joined composition spec
	// ("roa-churn+rp-lag").
	Scenarios []string `json:"scenarios,omitempty"`
	// MasterSeed drives per-replicate seed derivation.
	MasterSeed int64 `json:"master_seed,omitempty"`
	// Replicates is how many seeds to derive per cell (default 1).
	// Replicate r uses the same derived seed in every cell, so cells
	// are compared across identical worlds (paired replication).
	Replicates int `json:"replicates,omitempty"`
	// Seeds overrides derivation with an explicit seed axis.
	Seeds []int64 `json:"seeds,omitempty"`
	// Domains, Ticks, Durations, SampleEvery and SampleDomains are the
	// sim.Config axes.
	Domains       []int           `json:"domains,omitempty"`
	Ticks         []time.Duration `json:"-"`
	Durations     []time.Duration `json:"-"`
	SampleEvery   []int           `json:"sample_every,omitempty"`
	SampleDomains []int           `json:"sample_domains,omitempty"`
	// Params crosses free-form scenario parameters: each key is an axis,
	// its values the points ("hijack_frac": ["0.1", "0.3"]). Keys are
	// iterated in sorted order, so expansion is deterministic. A dotted
	// key ("roa-churn.issue") targets one component of a composed
	// scenario. Plan refuses a key a cell's scenario does not declare and
	// a value that does not parse as its default's kind.
	Params map[string][]string `json:"params,omitempty"`
}

// CellInfo describes one grid cell: a unique combination of every axis
// except the seed.
type CellInfo struct {
	// Index is the cell's position in grid order.
	Index int `json:"cell"`
	// Scenario names the cell's scenario.
	Scenario string `json:"scenario"`
	// Label renders the cell's varied axes ("scenario=route-leak
	// domains=4000 leak_frac=0.2"), for tables and progress lines.
	Label string `json:"label"`
	// Config is the cell's simulation configuration with a zero Seed;
	// each run stamps its own.
	Config sim.Config `json:"-"`
}

// RunSpec is one planned simulation: a cell plus a seed.
type RunSpec struct {
	// Index is the run's position in grid order (cell-major).
	Index int `json:"run"`
	// Cell indexes into Plan.Cells.
	Cell int `json:"cell"`
	// Rep is the seed-axis position within the cell.
	Rep int `json:"rep"`
	// Config is the full simulation configuration, seed included.
	Config sim.Config `json:"-"`
}

// Plan is an expanded grid: every cell and every run, in grid order.
type Plan struct {
	Grid  Grid
	Seeds []int64
	Cells []CellInfo
	Specs []RunSpec
}

// deriveSeed maps (master seed, replicate) to a run seed via one
// splitmix64 round — well-spread, and a pure function of grid position
// so worker scheduling can never influence it.
func deriveSeed(master int64, rep int) int64 {
	z := uint64(master) + uint64(rep+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// axis returns vs, or the single fallback when the axis is empty.
func axis[T any](vs []T, fallback T) []T {
	if len(vs) == 0 {
		return []T{fallback}
	}
	return vs
}

// Plan expands the grid into cells and run specs, validating every
// scenario name against the sim registry.
func (g Grid) Plan() (*Plan, error) {
	scenarios := axis(g.Scenarios, "baseline")
	seeds := g.Seeds
	if len(seeds) == 0 {
		reps := g.Replicates
		if reps <= 0 {
			reps = 1
		}
		seeds = make([]int64, reps)
		for r := range seeds {
			seeds[r] = deriveSeed(g.MasterSeed, r)
		}
	}
	domains := axis(g.Domains, 0)
	for _, d := range domains {
		if d < 0 {
			return nil, fmt.Errorf("sweep: domains must not be negative, got %d", d)
		}
	}
	ticks := axis(g.Ticks, 0)
	durations := axis(g.Durations, 0)
	sampleEvery := axis(g.SampleEvery, 0)
	sampleDomains := axis(g.SampleDomains, 0)

	keys := make([]string, 0, len(g.Params))
	for k := range g.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if len(g.Params[k]) == 0 {
			return nil, fmt.Errorf("sweep: param axis %q has no values", k)
		}
	}

	p := &Plan{Grid: g, Seeds: seeds}
	for _, scenario := range scenarios {
		for _, dom := range domains {
			for _, tick := range ticks {
				for _, dur := range durations {
					for _, se := range sampleEvery {
						for _, sd := range sampleDomains {
							p.expandParams(scenario, sim.Config{
								Scenario:      scenario,
								Domains:       dom,
								Tick:          tick,
								Duration:      dur,
								SampleEvery:   se,
								SampleDomains: sd,
							}, keys, 0, nil)
						}
					}
				}
			}
		}
	}
	// Validate every cell's configuration and (scenario, params) pair —
	// a negative tick or duration, unknown scenario names, malformed
	// composition specs, undeclared or mis-routed param keys and values
	// that do not parse all fail at plan time, not as per-run errors in
	// the pool.
	for i := range p.Cells {
		err := p.Cells[i].Config.Validate()
		if err == nil {
			_, err = sim.NewScenario(p.Cells[i].Scenario, p.Cells[i].Config.Params)
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: cell %d (%s): %w", i, p.Cells[i].Label, err)
		}
	}
	return p, nil
}

// expandParams walks the param-axis odometer (keys in sorted order) and
// emits one cell per combination.
func (p *Plan) expandParams(scenario string, base sim.Config, keys []string, ki int, chosen []string) {
	if ki < len(keys) {
		for _, v := range p.Grid.Params[keys[ki]] {
			p.expandParams(scenario, base, keys, ki+1, append(chosen, v))
		}
		return
	}
	params := sim.Params{}
	for i, k := range keys {
		params[k] = chosen[i]
	}
	base.Params = params
	base = base.WithDefaults()
	cell := CellInfo{
		Index:    len(p.Cells),
		Scenario: scenario,
		Label:    p.label(base, keys, chosen),
		Config:   base,
	}
	p.Cells = append(p.Cells, cell)
	for rep, seed := range p.Seeds {
		cfg := base
		cfg.Seed = seed
		// Each run gets its own Params map so scenarios can never share
		// state across concurrent worlds.
		cfg.Params = sim.Params{}
		for k, v := range params {
			cfg.Params[k] = v
		}
		p.Specs = append(p.Specs, RunSpec{
			Index:  len(p.Specs),
			Cell:   cell.Index,
			Rep:    rep,
			Config: cfg,
		})
	}
}

// label renders a cell: the scenario, every config axis with more than
// one grid value, and every param axis.
func (p *Plan) label(cfg sim.Config, keys, chosen []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario=%s", cfg.Scenario)
	if len(axis(p.Grid.Domains, 0)) > 1 {
		fmt.Fprintf(&sb, " domains=%d", cfg.Domains)
	}
	if len(axis(p.Grid.Ticks, 0)) > 1 {
		fmt.Fprintf(&sb, " tick=%s", cfg.Tick)
	}
	if len(axis(p.Grid.Durations, 0)) > 1 {
		fmt.Fprintf(&sb, " duration=%s", cfg.Duration)
	}
	if len(axis(p.Grid.SampleEvery, 0)) > 1 {
		fmt.Fprintf(&sb, " sample_every=%d", cfg.SampleEvery)
	}
	if len(axis(p.Grid.SampleDomains, 0)) > 1 {
		fmt.Fprintf(&sb, " sample_domains=%d", cfg.SampleDomains)
	}
	for i, k := range keys {
		fmt.Fprintf(&sb, " %s=%s", k, chosen[i])
	}
	return sb.String()
}

// FormatParams renders a Params map deterministically (sorted keys,
// comma-joined), "-" when empty — the TSV cell for a run's parameters.
func FormatParams(p sim.Params) string {
	if len(p) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + p[k]
	}
	return strings.Join(parts, ",")
}
