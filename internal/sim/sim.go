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
//   - VRP deltas flow through rtr.Server.UpdateDelta (the full set
//     through rtr.Server.Update, after a cold cache restart) to relying
//     parties (rtr.Client instances) that refresh at configurable lag,
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
// built-in library); adding one means declaring a Scenario value and
// passing it to Register from an init function.
package sim

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"ripki/internal/router"
	"ripki/internal/webworld"
)

// Params carries scenario parameters, as the "-param key=value"
// strings the CLIs take. A Config's Params are what the caller gave;
// NewScenario checks them against what each component declares and
// hands each component its own copy with every declared key present, so
// a Setup or Roster reads a key by name alone (p.Int("issue")) and each
// default is written once, in its Scenario's Params.
type Params map[string]string

// Int returns a declared int parameter.
func (p Params) Int(key string) int { return read[int](p, key) }

// Float returns a declared float64 parameter.
func (p Params) Float(key string) float64 { return read[float64](p, key) }

// String returns a declared string parameter.
func (p Params) String(key string) string { return read[string](p, key) }

// Bool returns a declared bool parameter, given in any spelling
// strconv.ParseBool accepts (1/t/true/True, 0/f/false/False).
func (p Params) Bool(key string) bool { return read[bool](p, key) }

// read parses a component's parameter as the kind its reader asks for.
// NewScenario has parsed every value against its declared default, so
// a failure here is a scenario reading a key it does not declare, or as
// another kind: a mistake in the scenario, not in its input.
func read[T int | float64 | bool | string](p Params, key string) T {
	var zero T
	if s, ok := p[key]; ok {
		if v, err := parseAs(zero, s); err == nil {
			return v.(T)
		}
	}
	panic(fmt.Sprintf("sim: scenario reads param %q as %T, which it does not declare", key, zero))
}

// parseAs parses s as the kind of def, one of the four a Scenario may
// declare a parameter as.
func parseAs(def any, s string) (any, error) {
	switch def.(type) {
	case int:
		return strconv.Atoi(s)
	case float64:
		return strconv.ParseFloat(s, 64)
	case bool:
		return strconv.ParseBool(s)
	case string:
		return s, nil
	}
	return nil, fmt.Errorf("a param default is an int, float64, bool or string, not %T", def)
}

// Scenario is one registered story: what it is called, the parameters
// it reads with their defaults, and the events it schedules.
type Scenario struct {
	// Name is the registry key; Description a one-line summary for
	// listings.
	Name, Description string
	// Params declares every parameter the scenario reads, with its
	// default: an int, float64, bool or string. A value given for a key
	// must parse as the kind of its default, and a key no component of a
	// run declares is refused.
	Params map[string]any
	// Roster, if set, is the relying-party roster the scenario needs
	// (e.g. extreme refresh lag).
	Roster func(Params) []RPSpec
	// Setup runs once after the world, cache, and relying parties exist
	// but before the clock starts; it schedules the scenario's events
	// (which may schedule further events). Nil schedules nothing.
	//
	// During Setup, s.Rand is the scenario's own splitmix64-derived
	// stream (see ComponentSeed) — the same stream whether the scenario
	// runs alone or as a component of a Composite. A Setup whose
	// scheduled events draw randomness later must capture s.Rand in a
	// local while it runs, since a composite repoints s.Rand at each
	// component's stream in turn.
	Setup func(*Simulation, Params) error
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
	// Params are the scenario parameters as given; NewScenario checks
	// them against what the scenario declares.
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

// Validate refuses what New would refuse before building anything: a
// negative Tick, whose recurring events reschedule into the past inside
// one tick so the run never returns, or a negative Duration, which
// records nothing.
func (c Config) Validate() error {
	if c.Tick < 0 {
		return fmt.Errorf("sim: Tick must not be negative, got %v", c.Tick)
	}
	if c.Duration < 0 {
		return fmt.Errorf("sim: Duration must not be negative, got %v", c.Duration)
	}
	return nil
}

// DefaultRPs is the builtin relying-party roster, for a run whose
// scenario brings none: a fast (refresh every tick) and a slow (every 10
// ticks) drop-invalid RP bracketing realistic refresh lag, plus an
// accept-all legacy router with no RTR session as the unprotected 2015
// baseline.
func DefaultRPs() []RPSpec {
	return []RPSpec{
		{Name: "rp-fast", RefreshTicks: 1, Policy: router.PolicyDropInvalid},
		{Name: "rp-slow", RefreshTicks: 10, Policy: router.PolicyDropInvalid},
		{Name: "legacy", RefreshTicks: 0, Policy: router.PolicyAcceptAll},
	}
}

// --- registry ----------------------------------------------------------

var scenarios = map[string]Scenario{}

// Register adds a scenario under its name. Later registrations of the
// same name win, so applications can shadow the builtins. A default of
// any other kind than int, float64, bool or string panics: it is a
// mistake in the scenario, found when its package initialises.
func Register(sc Scenario) {
	for k, def := range sc.Params {
		if _, err := parseAs(def, fmt.Sprint(def)); err != nil {
			panic(fmt.Sprintf("sim: scenario %s param %s: %v", sc.Name, k, err))
		}
	}
	scenarios[sc.Name] = sc
}

// Lookup returns the registered scenario of that name.
func Lookup(name string) (Scenario, bool) {
	sc, ok := scenarios[name]
	return sc, ok
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
