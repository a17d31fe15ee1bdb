// Package sim is a deterministic discrete-event simulation engine for
// time-evolving RPKI worlds.
//
// The measurement pipeline reproduces the paper's *snapshot*
// methodology: one static world, one pass. The paper's tragedy is
// temporal, though — ROAs are issued and revoked over time, hijack
// campaigns come and go, and every relying party sees the RPKI through
// a cache that refreshes on a delay. This package drives the existing
// layers over virtual time:
//
//   - a Scenario mutates the webworld ecosystem and the ground-truth
//     VRP state via events on a virtual clock,
//   - VRP deltas flow through rtr.Server.Update to relying parties
//     (rtr.Client instances) that refresh at configurable lag,
//   - each relying party feeds an origin-validating router.Router whose
//     local RIB holds both the world's routes and any active hijacks,
//   - a sampling probe runs the measure pipeline over a rank-stratified
//     domain sample and records a per-tick time series: validation
//     state fractions, RPKI coverage, head-vs-tail protection, and per
//     router hijack success.
//
// Everything is deterministic: the same Config (seed, duration, tick,
// scenario parameters) produces byte-identical TimeSeries output. Three
// ingredients make that true — the virtual clock only ever advances by
// whole ticks, simultaneous events are ordered by (time, class,
// scheduling sequence), and all randomness comes from the seeded
// Simulation.Rand.
//
// Scenarios self-register in a registry (see scenarios.go for the
// built-in library); adding one means implementing Scenario and calling
// Register from an init function.
package sim

import (
	"sort"
	"strconv"
	"time"

	"ripki/internal/router"
	"ripki/internal/webworld"
)

// Params carries free-form scenario parameters ("-param key=value" on
// the CLI). Typed getters fall back to a default when the key is absent
// or malformed, so scenarios stay total.
type Params map[string]string

// Float returns the parameter as a float64.
func (p Params) Float(key string, def float64) float64 {
	if s, ok := p[key]; ok {
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v
		}
	}
	return def
}

// Int returns the parameter as an int.
func (p Params) Int(key string, def int) int {
	if s, ok := p[key]; ok {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

// Duration returns the parameter as a time.Duration ("90s", "10m").
func (p Params) Duration(key string, def time.Duration) time.Duration {
	if s, ok := p[key]; ok {
		if v, err := time.ParseDuration(s); err == nil {
			return v
		}
	}
	return def
}

// String returns the parameter as a string.
func (p Params) String(key, def string) string {
	if s, ok := p[key]; ok {
		return s
	}
	return def
}

// Bool returns the parameter as a bool, accepting every spelling
// strconv.ParseBool does (1/t/true/True, 0/f/false/False).
func (p Params) Bool(key string, def bool) bool {
	if s, ok := p[key]; ok {
		if v, err := strconv.ParseBool(s); err == nil {
			return v
		}
	}
	return def
}

// Scenario seeds a simulation with events. Setup runs once after the
// world, cache, and relying parties exist but before the clock starts;
// it schedules the scenario's events (which may schedule further
// events).
//
// During Setup, s.Rand is the scenario's own splitmix64-derived stream
// (see ComponentSeed) — the same stream whether the scenario runs alone
// or as a component of a Composite. A Setup whose scheduled events draw
// randomness later must capture s.Rand in a local while it runs, since
// a composite repoints s.Rand at each component's stream in turn.
type Scenario interface {
	// Name is the registry key.
	Name() string
	// Description is a one-line summary for listings.
	Description() string
	// Setup schedules the scenario's initial events.
	Setup(s *Simulation) error
}

// RPDefaulter is an optional Scenario extension: scenarios that need a
// particular relying-party roster (e.g. extreme refresh lag) provide it
// here; an explicit Config.RPs still wins.
type RPDefaulter interface {
	DefaultRPs(p Params) []RPSpec
}

// RPSpec describes one relying party: a named RTR client + validating
// router pair.
type RPSpec struct {
	// Name labels the RP's time-series columns.
	Name string
	// RefreshTicks is the polling cadence in ticks; zero means the RP
	// never connects to the cache (a legacy router validating nothing).
	RefreshTicks int
	// Policy is the router's validation stance.
	Policy router.Policy
}

// Config parameterises a simulation run.
type Config struct {
	// Scenario names a registered scenario, or a "+"-joined composition
	// of registered scenarios ("roa-churn+rp-lag") whose event streams
	// all run in this one world (see Composite).
	Scenario string
	// Params are free-form scenario parameters.
	Params Params
	// Seed drives world generation and all scenario randomness.
	Seed int64
	// Domains sizes the generated world (default 20,000). With an
	// adopted World it is the world's size: leave it zero or match.
	Domains int
	// Tick is the virtual clock granularity (default 30s).
	Tick time.Duration
	// Duration is the simulated horizon (default 30m).
	Duration time.Duration
	// SampleEvery is the probe cadence in ticks (default 2).
	SampleEvery int
	// SampleDomains bounds the probe's stratified domain sample
	// (default 1,500).
	SampleDomains int
	// RPs overrides the relying-party roster. Default: rp-fast
	// (refresh every tick, drop-invalid), rp-slow (every 10 ticks,
	// drop-invalid), legacy (no RTR session, accept-all).
	RPs []RPSpec
	// World reuses a prebuilt ecosystem; Seed still drives the scenario
	// randomness.
	World *webworld.World
}

// WithDefaults returns the config with unset fields filled in — the
// values New will actually run with. Sweep planning normalises grid
// cells through this so labels and tables show effective values.
func (c Config) WithDefaults() Config {
	if c.Domains == 0 {
		c.Domains = 20000
	}
	if c.Tick == 0 {
		c.Tick = 30 * time.Second
	}
	if c.Duration == 0 {
		c.Duration = 30 * time.Minute
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 2
	}
	if c.SampleDomains <= 0 {
		c.SampleDomains = 1500
	}
	if c.Params == nil {
		c.Params = Params{}
	}
	return c
}

// DefaultRPs is the builtin relying-party roster: a fast and a slow
// drop-invalid RP bracketing realistic refresh lag, plus an accept-all
// legacy router as the unprotected 2015 baseline.
func DefaultRPs() []RPSpec {
	return []RPSpec{
		{Name: "rp-fast", RefreshTicks: 1, Policy: router.PolicyDropInvalid},
		{Name: "rp-slow", RefreshTicks: 10, Policy: router.PolicyDropInvalid},
		{Name: "legacy", RefreshTicks: 0, Policy: router.PolicyAcceptAll},
	}
}

// --- registry ----------------------------------------------------------

var scenarios = map[string]func(Params) Scenario{}

// Register adds a scenario constructor under its name. Later
// registrations of the same name win, so applications can shadow the
// builtins.
func Register(name string, f func(Params) Scenario) {
	scenarios[name] = f
}

// Names lists the registered scenarios, sorted.
func Names() []string {
	out := make([]string, 0, len(scenarios))
	for n := range scenarios {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NewScenario instantiates the scenario named by a spec: a registered
// name, or a "+"-joined composition like "roa-churn+rp-lag" running
// every component's event stream in one world. Every spec — single or
// composed — comes back as a *Composite, because a single scenario IS a
// one-component composition: the same param routing ("roa-churn.issue=5"
// reaches a bare roa-churn run; a dotted key addressing any other name
// errors rather than being silently dropped), the same RNG stream
// derivation, the same roster handling. See Composite for the contract.
func NewScenario(name string, p Params) (Scenario, error) {
	if p == nil {
		p = Params{}
	}
	return newComposite(name, p)
}

// Describe returns the one-line description of a registered scenario or
// of a composition spec, "" when unknown.
func Describe(name string) string {
	if IsComposition(name) {
		sc, err := NewScenario(name, nil)
		if err != nil {
			return ""
		}
		return sc.Description()
	}
	f, ok := scenarios[name]
	if !ok {
		return ""
	}
	return f(Params{}).Description()
}
