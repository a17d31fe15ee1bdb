// Package ripki reproduces "RiPKI: The Tragic Story of RPKI Deployment
// in the Web Ecosystem" (Wählisch et al., ACM HotNets 2015).
//
// The paper measures how much of the web's hosting infrastructure is
// protected by RPKI prefix origin validation, and finds that popular,
// CDN-hosted websites are *less* protected than obscure ones. This
// module rebuilds the full measurement stack — DNS, BGP as a collector's
// routing table (written out as an MRT TABLE_DUMP_V2 dump that no
// command reads back; internal/bgp says where in git history the session
// layer, message framing and dump reader are), RPKI (certificates, ROAs,
// relying-party validation), the RPKI-to-Router protocol, and a
// synthetic web ecosystem standing in for the live Internet — and
// re-runs the paper's methodology end to end.
//
// The simplest entry point is Study:
//
//	study, err := ripki.NewStudy(ripki.StudyConfig{Domains: 100000, Seed: 1})
//	...
//	fig := study.Figure2(ripki.VariantWWW)
//	fig.WriteTSV(os.Stdout)
//
// Beyond the snapshot methodology, the module simulates time-evolving
// RPKI worlds: a deterministic discrete-event engine (internal/sim)
// replays ROA churn, hijack campaigns, cache restarts, and CDN
// migrations over virtual time, pushing VRP deltas through the RTR wire
// protocol to lag-bound relying parties and recording per-tick exposure
// time series:
//
//	series, err := ripki.RunSimScenario(ripki.SimConfig{Scenario: "hijack-window", Seed: 1})
//	...
//	series.WriteTSV(os.Stdout)
//
// Lower-level building blocks live in the internal packages and are
// surfaced here only as far as downstream users need them: the world
// generator, the measurement dataset, origin validation, RTR serving,
// and the scenario engine.
package ripki

import (
	"context"
	"fmt"
	"net"
	"net/netip"

	"ripki/internal/distsweep"
	"ripki/internal/dns"
	"ripki/internal/httparchive"
	"ripki/internal/measure"
	"ripki/internal/obs"
	"ripki/internal/rpki/repo"
	"ripki/internal/rpki/vrp"
	"ripki/internal/rtr"
	"ripki/internal/serve"
	"ripki/internal/sim"
	"ripki/internal/stats"
	"ripki/internal/sweep"
	"ripki/internal/webworld"
)

// Re-exported result types, so callers need only this package.
type (
	// Figure is a named set of data series (one paper figure).
	Figure = stats.Figure
	// Table is a labelled text table (one paper table).
	Table = stats.Table
	// Dataset is the full measurement output.
	Dataset = measure.Dataset
	// WorldConfig parameterises the synthetic ecosystem.
	WorldConfig = webworld.Config
	// World is the generated ecosystem.
	World = webworld.World
	// VRP is one validated ROA payload.
	VRP = vrp.VRP
	// State is an RFC 6811 validation outcome.
	State = vrp.State
	// Variant selects the www or w/o-www name.
	Variant = measure.Variant
	// CDNStudyRow is one CDN's RPKI engagement summary.
	CDNStudyRow = measure.CDNStudyRow
)

// Validation states.
const (
	StateNotFound = vrp.NotFound
	StateValid    = vrp.Valid
	StateInvalid  = vrp.Invalid
)

// Name variants.
const (
	VariantWWW  = measure.VariantWWW
	VariantApex = measure.VariantApex
)

// StudyConfig configures an end-to-end reproduction run.
type StudyConfig struct {
	// Domains is the ranked-list size (default 1,000,000 — the paper's
	// scale; use less for quick runs).
	Domains int
	// Seed drives the deterministic world generation.
	Seed int64
	// BinWidth groups ranks in figures (default 10,000, as the paper).
	BinWidth int
	// CDNThreshold is the CNAME-indirection cutoff (default 2).
	CDNThreshold int
	// HTTPArchiveLimit bounds the pattern classifier's corpus; the
	// default scales the paper's 300k/1M proportionally to Domains.
	HTTPArchiveLimit int
	// DNSSEC additionally measures DNSSEC zone signing per domain (the
	// paper's stated future-work comparison).
	DNSSEC bool
	// World overrides the full world configuration; Domains/Seed above
	// are ignored when set.
	World *WorldConfig
}

// Study is a completed end-to-end run: the generated world, the
// validated RPKI payloads, and the measured dataset.
type Study struct {
	World      *World
	VRPs       *vrp.Set
	Validation *repo.ValidationResult
	Dataset    *Dataset
}

// NewStudy generates a world, validates its RPKI repository, and runs
// the paper's four-step methodology over the ranked domain list.
func NewStudy(cfg StudyConfig) (*Study, error) {
	wcfg := webworld.Config{Seed: cfg.Seed, Domains: cfg.Domains}
	if cfg.World != nil {
		wcfg = *cfg.World
	}
	world, err := webworld.Generate(wcfg)
	if err != nil {
		return nil, fmt.Errorf("ripki: generating world: %w", err)
	}
	validation := world.Validation()
	ha := httparchive.New(world.CDNSuffixes)
	if cfg.HTTPArchiveLimit > 0 {
		ha.Limit = cfg.HTTPArchiveLimit
	} else {
		// Scale the paper's 300k-of-1M corpus to this world.
		ha.Limit = world.Cfg.Domains * 3 / 10
	}
	binWidth := cfg.BinWidth
	if binWidth == 0 {
		// Scale the paper's 10k-of-1M binning to this world.
		binWidth = world.Cfg.Domains / 100
		if binWidth == 0 {
			binWidth = 1
		}
	}
	ds, err := measure.Run(world.List, measure.Config{
		Resolver:     dns.RegistryResolver{Registry: world.Registry},
		RIB:          world.RIB,
		VRPs:         validation.VRPs,
		HTTPArchive:  ha,
		BinWidth:     binWidth,
		CDNThreshold: cfg.CDNThreshold,
		DNSSEC:       cfg.DNSSEC,
	})
	if err != nil {
		return nil, fmt.Errorf("ripki: measuring: %w", err)
	}
	return &Study{
		World:      world,
		VRPs:       validation.VRPs,
		Validation: validation,
		Dataset:    ds,
	}, nil
}

// Figure1 is the www vs w/o-www prefix-equality comparison.
func (s *Study) Figure1() *Figure { return s.Dataset.Figure1() }

// Figure2 is the RPKI validation outcome by rank.
func (s *Study) Figure2(v Variant) *Figure { return s.Dataset.Figure2(v) }

// Figure3 compares the two CDN detection heuristics.
func (s *Study) Figure3() *Figure { return s.Dataset.Figure3() }

// Figure4 compares RPKI deployment overall vs CDN-hosted.
func (s *Study) Figure4(v Variant) *Figure { return s.Dataset.Figure4(v) }

// FigureDNSSEC compares DNSSEC and RPKI adoption by rank (requires
// StudyConfig.DNSSEC).
func (s *Study) FigureDNSSEC(v Variant) *Figure { return s.Dataset.FigureDNSSEC(v) }

// Table1 lists the top-ranked domains with any RPKI coverage.
func (s *Study) Table1(n int) *Table { return s.Dataset.Table1(n) }

// Summary prints the dataset headline counts.
func (s *Study) Summary() *Table { return s.Dataset.Summary() }

// CDNStudy runs the §4.2 keyword-spotting analysis.
func (s *Study) CDNStudy() []CDNStudyRow {
	names := make([]string, 0, len(s.World.Cfg.CDNs))
	for _, spec := range s.World.Cfg.CDNs {
		names = append(names, spec.Name)
	}
	reg := make([]measure.ASRegistryEntry, 0, len(s.World.ASRegistry))
	for _, e := range s.World.ASRegistry {
		reg = append(reg, measure.ASRegistryEntry{ASN: e.ASN, Name: e.Name})
	}
	return measure.CDNStudy(names, reg, s.VRPs)
}

// CDNStudyTable renders the study rows.
func CDNStudyTable(rows []CDNStudyRow) *Table { return measure.CDNStudyTable(rows) }

// ExposedRelation is one business relationship readable from the RPKI.
type ExposedRelation = measure.ExposedRelation

// ExposedRelations runs the §5.2 analysis: which business relations
// does the public RPKI disclose? (One of the paper's explanations for
// why operators hesitate to deploy.)
func (s *Study) ExposedRelations() []ExposedRelation {
	reg := make([]measure.ASRegistryEntry, 0, len(s.World.ASRegistry))
	byASN := make(map[uint32]string, len(s.World.ASRegistry))
	for _, e := range s.World.ASRegistry {
		reg = append(reg, measure.ASRegistryEntry{ASN: e.ASN, Name: e.Name})
		byASN[e.ASN] = e.Org
	}
	return measure.ExposedRelations(s.VRPs, reg, func(asn uint32) (string, bool) {
		org, ok := byASN[asn]
		return org, ok
	})
}

// ExposureTable renders exposed relations.
func ExposureTable(rels []ExposedRelation) *Table { return measure.ExposureTable(rels) }

// Validate classifies one route against the study's VRPs (RFC 6811).
func (s *Study) Validate(prefix netip.Prefix, originAS uint32) State {
	return s.VRPs.Validate(prefix, originAS)
}

// ServeRTR serves the study's validated payloads over the RPKI-to-
// Router protocol on the given listener until the returned server is
// closed.
func (s *Study) ServeRTR(ln net.Listener) *rtr.Server {
	srv := rtr.NewServer(s.VRPs, uint16(s.World.Cfg.Seed))
	go srv.Serve(ln)
	return srv
}

// --- simulation --------------------------------------------------------

// Re-exported scenario-engine types, so callers need only this package.
type (
	// Simulation is one configured discrete-event run.
	Simulation = sim.Simulation
	// SimConfig parameterises a simulation (scenario, seed, tick,
	// duration, relying-party roster).
	SimConfig = sim.Config
	// SimParams carries scenario parameters ("-param key=value").
	SimParams = sim.Params
	// SimEvent is one bus message (ROA issued, hijack started, cache
	// flushed, ...).
	SimEvent = sim.Event
	// Scenario is one registered story: its name, the parameters it
	// declares with their defaults, an optional relying-party roster
	// and the Setup that schedules its events; declare one and
	// RegisterScenario it to add one.
	Scenario = sim.Scenario
	// SimComposite runs several registered scenarios' event streams in
	// one world — built from a "+"-joined spec like "roa-churn+rp-lag",
	// with per-component params ("roa-churn.issue=5"), per-component
	// splitmix64 RNG streams, and a by-name relying-party roster merge.
	SimComposite = sim.Composite
	// TimeSeries is the per-tick simulation output.
	TimeSeries = sim.TimeSeries
	// IncidentLog accumulates typed incident records (hijack announce,
	// ROA move, trust-anchor outage, RP lag episode) derived from the
	// bus — attach its Add with Simulation.AttachIncidents — and exports
	// canonical JSONL (byte-identical per seed).
	IncidentLog = sim.IncidentLog
	// Trace is a deterministic structured trace recorder (attach to a
	// Simulation with AttachTrace; export with WriteJSONL/WriteChrome).
	Trace = obs.Trace
)

// NewTrace creates an empty trace recorder.
func NewTrace() *Trace { return obs.NewTrace() }

// NewSimulation builds a simulation: world, RTR cache, relying parties,
// scenario. Run it, then Close it.
func NewSimulation(cfg SimConfig) (*Simulation, error) { return sim.New(cfg) }

// RunSimScenario builds, runs, and closes a simulation in one call.
func RunSimScenario(cfg SimConfig) (*TimeSeries, error) { return sim.RunScenario(cfg) }

// Scenarios lists the registered scenario names.
func Scenarios() []string { return sim.Names() }

// LookupScenario returns the registered scenario of that name.
func LookupScenario(name string) (Scenario, bool) { return sim.Lookup(name) }

// RegisterScenario adds a scenario to the registry under its name.
func RegisterScenario(sc Scenario) { sim.Register(sc) }

// NewScenario instantiates the scenario named by a spec — a registered
// name or a "+"-joined composition ("roa-churn+rp-lag") — and checks its
// params: a key no component declares, or a value that does not parse
// as the kind of its default, is an error. A single scenario is a
// one-component composition.
func NewScenario(spec string, p SimParams) (*SimComposite, error) { return sim.NewScenario(spec, p) }

// --- sweeps ------------------------------------------------------------

// Re-exported sweep types: parameter grids of simulations sharded
// across a worker pool with deterministic cross-run aggregation.
type (
	// SweepGrid is a parameter grid (scenario × seed × any SimConfig
	// knob); its cross product is the run list.
	SweepGrid = sweep.Grid
	// SweepOptions controls execution. Workers and ShareWorlds are pure
	// scheduling (they can never change the output bytes); Streaming
	// folds a cell's runs into online accumulators — smaller than their
	// values for many replicates per cell — at the price of estimated
	// percentiles past 25 replicates, still byte-identical at any worker
	// count.
	SweepOptions = sweep.Options
	// SweepPlan is an expanded grid: every cell and run in grid order.
	SweepPlan = sweep.Plan
	// SweepResult is a completed sweep: runs in grid order plus
	// per-cell aggregates, exported via WriteTSV / WriteJSON.
	SweepResult = sweep.Result
	// SweepRunResult is one run's scalar summary.
	SweepRunResult = sweep.RunResult
)

// RunSweep expands the grid, runs every simulation across the worker
// pool, and aggregates. Same grid + master seed ⇒ byte-identical output
// at any worker count. Cancelling ctx stops dispatching and cancels
// in-flight simulations within one tick.
func RunSweep(ctx context.Context, g SweepGrid, opt SweepOptions) (*SweepResult, error) {
	return sweep.Run(ctx, g, opt)
}

// RunSweepPlan executes an already-expanded plan (SweepGrid.Plan), so
// callers needing the plan up front don't pay grid expansion twice.
func RunSweepPlan(ctx context.Context, p *SweepPlan, opt SweepOptions) (*SweepResult, error) {
	return sweep.RunPlan(ctx, p, opt)
}

// ParseSweepGrid reads a JSON grid file (durations as strings, unknown
// fields rejected).
func ParseSweepGrid(data []byte) (SweepGrid, error) { return sweep.ParseGrid(data) }

// --- distributed sweeps ------------------------------------------------

// Re-exported distributed-sweep types: one plan sharded across
// processes with the single-process byte-identical output contract
// intact (docs/sweep.md, "Distributed sweeps").
type (
	// DistCoordinator leases contiguous cell ranges to workers,
	// journals completed cells, and assembles the byte-identical Result.
	DistCoordinator = distsweep.Coordinator
	// DistCoordinatorConfig is the coordinator's grid, mode, lease and
	// checkpoint configuration.
	DistCoordinatorConfig = distsweep.CoordinatorConfig
	// DistWorkerConfig is the worker's local execution tuning.
	DistWorkerConfig = distsweep.WorkerConfig
	// DistProgress is a running distributed sweep's standing (the
	// coordinator's GET /progress body and the -status renderer's
	// input).
	DistProgress = distsweep.Progress
)

// NewDistCoordinator expands the grid, binds addr, and loads any
// matching checkpoint records so finished cells are never re-leased.
func NewDistCoordinator(addr string, cfg DistCoordinatorConfig) (*DistCoordinator, error) {
	return distsweep.NewCoordinator(addr, cfg)
}

// DistWork connects to a coordinator and runs leases until the sweep
// finishes (nil), the connection drops (in-flight runs are cancelled
// within a tick), or ctx is cancelled.
func DistWork(ctx context.Context, addr string, cfg DistWorkerConfig) error {
	return distsweep.Work(ctx, addr, cfg)
}

// --- serving -----------------------------------------------------------

// ServeService is the always-on origin-validation and web-exposure
// query service (cmd/ripki-served, docs/serve.md): it publishes
// immutable snapshots behind an atomic pointer and answers validation
// and exposure queries lock-free.
type ServeService = serve.Service

// ServeStudy exposes a completed study as a query service: the study's
// world backs the domain exposure table and its validated VRPs (the
// world's own memoised validation) the first snapshot. Wire it to HTTP
// via its Handler method, and to live update sources via RunRTR /
// RunSim.
func (s *Study) ServeStudy() (*ServeService, error) {
	return serve.NewFromWorld(s.World)
}
