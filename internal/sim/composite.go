package sim

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
)

// Scenario composition. A spec like "roa-churn+rp-lag" runs every named
// scenario's event stream in ONE world, against one clock, one RTR
// cache, and one relying-party roster — the compound incidents the
// paper's tragedy is actually made of (a hijack window opening while
// relying parties are lagging behind churn, a trust-anchor outage
// during a CDN migration, ...).
//
// The composition contract, in full:
//
//   - Canonical order. Components run in sorted-name order regardless
//     of how the spec spells them: "rp-lag+roa-churn" and
//     "roa-churn+rp-lag" are the same composition, byte for byte. A
//     composite's Name() is the canonical spec. Duplicate components
//     ("roa-churn+roa-churn") keep their relative order and are told
//     apart by occurrence index.
//
//   - Independent randomness. Each component draws from its own
//     splitmix64-derived RNG sub-stream keyed by (master seed,
//     component name, occurrence) — see ComponentSeed. Single-scenario
//     runs use the identical derivation, so a component behaves byte-
//     identically whether it runs alone or composed: composing with
//     "baseline" is a proven no-op, and adding a component never
//     perturbs another's randomness.
//
//   - Per-component parameters. A Params key "name.key" is routed to
//     the named component as "key" ("roa-churn.issue=5"); an undotted
//     key is shared — every component that declares it sees it. Each
//     component starts from the defaults it declares, so what it reads
//     is always present and parsed. Refused, so typos fail loudly: a
//     dotted key whose prefix names no component or whose key that
//     component does not declare, an undotted key no component
//     declares, and a value that does not parse as the kind of its
//     default. The rule is uniform: NewScenario routes a single
//     scenario's params as a one-component composition, so a routed key
//     means the same thing whether its target runs alone or composed.
//     Duplicate components share their routed parameters.
//
//   - Relying-party roster merge. Components with a Roster are asked
//     for it in canonical order and the rosters are merged by RP name:
//     the first component to name an RP fixes its spec (refresh cadence
//     and policy), later components append only RPs with new names.

// specSeparator joins component names in a composition spec.
const specSeparator = "+"

// component is one member of a composition: a registered scenario, its
// identity within the composite (canonical position is the slice index;
// occ tells duplicates of the same name apart) and the params routed to
// it, every key it declares present.
type component struct {
	name   string
	occ    int
	params Params
	scn    Scenario
}

// Composite runs several registered scenarios' event streams in one
// world. Build one with NewScenario and a "+"-joined spec.
type Composite struct {
	spec  string // canonical: sorted component names, "+"-joined
	comps []component
}

// ParseSpec splits a scenario spec into its component names, in
// canonical (sorted) order. Single names come back as a one-element
// slice; empty components ("a++b", "a+") are rejected. The names are
// not checked against the registry — NewScenario does that.
func ParseSpec(spec string) ([]string, error) {
	parts := strings.Split(spec, specSeparator)
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("sim: empty component in scenario spec %q", spec)
		}
		parts[i] = p
	}
	sort.Stable(sort.StringSlice(parts))
	return parts, nil
}

// NewScenario instantiates the scenario named by a spec: a registered
// name, or a "+"-joined composition like "roa-churn+rp-lag" running
// every component's event stream in one world. Every spec — single or
// composed — comes back as a *Composite, because a single scenario IS a
// one-component composition: the same param routing and checks, the
// same RNG stream derivation, the same roster handling.
func NewScenario(spec string, p Params) (*Composite, error) {
	names, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	c := &Composite{spec: strings.Join(names, specSeparator)}
	occ := map[string]int{}
	for _, name := range names {
		sc, ok := scenarios[name]
		if !ok {
			if len(names) == 1 {
				return nil, fmt.Errorf("sim: unknown scenario %q (have %v)", name, Names())
			}
			return nil, fmt.Errorf("sim: unknown scenario %q in composition %q (have %v)", name, spec, Names())
		}
		c.comps = append(c.comps, component{name: name, occ: occ[name], scn: sc})
		occ[name]++
	}
	if err := c.routeParams(p); err != nil {
		return nil, err
	}
	return c, nil
}

// routeParams hands each component its params: the defaults it
// declares, then every undotted key it declares, then every "name.key"
// addressed to it — so when both spellings set a key ("issue=3
// roa-churn.issue=5") the routed one deterministically wins for its
// component. Keys are visited in sorted order, so the error a run with
// several bad keys reports is always the same one.
func (c *Composite) routeParams(p Params) error {
	for i := range c.comps {
		comp := &c.comps[i]
		comp.params = make(Params, len(comp.scn.Params))
		for k, def := range comp.scn.Params {
			comp.params[k] = fmt.Sprint(def)
		}
	}
	keys := slices.Sorted(maps.Keys(p))
	for _, routed := range []bool{false, true} {
		for _, k := range keys {
			target, key, dotted := strings.Cut(k, ".")
			if dotted != routed {
				continue
			}
			if !dotted {
				target, key = c.spec, k
			}
			addressed, declared := false, false
			for i := range c.comps {
				comp := &c.comps[i]
				if dotted && comp.name != target {
					continue
				}
				addressed = true
				def, ok := comp.scn.Params[key]
				if !ok {
					continue
				}
				if _, err := parseAs(def, p[k]); err != nil {
					return fmt.Errorf("sim: scenario %s: param %s=%q: want %T (default %v)", comp.name, k, p[k], def, def)
				}
				comp.params[key] = p[k]
				declared = true
			}
			if !addressed {
				return fmt.Errorf("sim: param %q addresses component %q, not among the run's scenarios %v", k, target, c.Components())
			}
			if !declared {
				return fmt.Errorf("sim: scenario %s declares no param %q", target, key)
			}
		}
	}
	return nil
}

// Name returns the canonical spec.
func (c *Composite) Name() string { return c.spec }

// Components lists the component names in canonical order.
func (c *Composite) Components() []string {
	out := make([]string, len(c.comps))
	for i, comp := range c.comps {
		out[i] = comp.name
	}
	return out
}

// Setup runs every component's Setup in canonical order, repointing
// s.Rand at the component's own derived stream first. Components that
// draw randomness at event time capture s.Rand during Setup (see
// Scenario.Setup), so each component's events keep drawing from its own
// stream for the whole run.
func (c *Composite) Setup(s *Simulation) error {
	for _, comp := range c.comps {
		s.Rand = rand.New(rand.NewSource(ComponentSeed(s.Cfg.Seed, comp.name, comp.occ)))
		if comp.scn.Setup == nil {
			continue
		}
		if err := comp.scn.Setup(s, comp.params); err != nil {
			return fmt.Errorf("component %s: %w", comp.name, err)
		}
	}
	return nil
}

// DefaultRPs merges the component rosters: components are consulted in
// canonical order, each with the params routed to it, the first to name
// an RP fixes its spec, and later components append only new names. Nil
// when no component has a roster (the engine then falls back to the
// builtin DefaultRPs).
func (c *Composite) DefaultRPs() []RPSpec {
	var merged []RPSpec
	seen := map[string]bool{}
	for _, comp := range c.comps {
		if comp.scn.Roster == nil {
			continue
		}
		for _, spec := range comp.scn.Roster(comp.params) {
			if seen[spec.Name] {
				continue
			}
			seen[spec.Name] = true
			merged = append(merged, spec)
		}
	}
	return merged
}

// ComponentSeed derives a scenario component's RNG stream seed: the
// master seed mixed with an FNV-1a hash of the component name and the
// occurrence index through a splitmix64 finaliser. Keyed by name, not
// by position in the spec, so a component's stream is identical whether
// it runs alone or inside any composition — and two occurrences of the
// same component get distinct streams.
func ComponentSeed(master int64, name string, occ int) int64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
		golden    = 0x9e3779b97f4a7c15
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	z := uint64(master) ^ h
	z += uint64(occ+1) * golden
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
