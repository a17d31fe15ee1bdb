// Composed walks through scenario composition — the compound incident
// the paper's tragedy is actually made of. Single scenarios isolate one
// failure mode; real outages stack them. This walkthrough runs
//
//	hijack-window + rp-lag
//
// in ONE world: while relying parties at 1-, 5-, and 20-tick refresh
// lag chase a steady stream of ROA churn (rp-lag's event stream), an
// attacker sub-prefix hijacks an unprotected CDN prefix and the
// operator answers with an emergency ROA (hijack-window's stream). The
// composition's relying-party roster comes from rp-lag (the component
// that declares one), so the hijack window is measured at every lag
// tier — the interaction neither scenario can show alone.
//
// Composition syntax, usable anywhere a scenario is named (ripki-sim,
// ripki-sweep grids, ripki-served -scenario):
//
//   - "a+b" runs both components' event streams in one world, in
//     canonical (sorted-name) order — "b+a" is the same run, byte for
//     byte;
//   - "-param a.key=value" routes a parameter to one component;
//     undotted keys are shared;
//   - each component draws from its own splitmix64-derived RNG stream
//     keyed by (seed, name, occurrence), so composing with "baseline"
//     is a proven no-op and adding a component never perturbs
//     another's randomness.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"ripki/internal/sim"
)

func main() {
	log.SetFlags(0)

	cfg := sim.Config{
		// rp-lag brings the 1/5/20-tick validator staircase plus
		// background churn; hijack-window brings the attack. The spec
		// order is free — the engine canonicalises it.
		Scenario: "hijack-window+rp-lag",
		Seed:     1,
		Domains:  20000,
		Tick:     30 * time.Second,
		Duration: 30 * time.Minute,
		Params: sim.Params{
			// Routed: only the churn driven by rp-lag's component sees
			// these (hijack-window has no "issue" knob to collide with,
			// but routing documents intent and scales to overlaps).
			"rp-lag.issue":  "4",
			"rp-lag.revoke": "1",
			// Routed to the attack: hijack at 15%, emergency ROA at
			// 45%, attacker gives up at 85% of the horizon.
			"hijack-window.hijack_frac": "0.15",
			"hijack-window.roa_frac":    "0.45",
			"hijack-window.end_frac":    "0.85",
		},
	}

	sc, err := sim.NewScenario(cfg.Scenario, cfg.Params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== composition ==\n%s\ncomposition: %s event streams in one world\n\n", sc.Name(), strings.Join(sc.Components(), " + "))

	run, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer run.Close()

	// Narrate the merged event stream: churn (roa events tagged
	// "churn") and the hijack lifecycle interleave on one clock.
	fmt.Println("== event log (bgp + rtr events) ==")
	run.Bus.SubscribeAll(func(e sim.Event) {
		if e.Topic == "bgp" || e.Topic == "rtr" {
			fmt.Println(e)
		}
	})

	series, err := run.Run()
	if err != nil {
		log.Fatal(err)
	}

	// The payoff: the same attack, measured at three refresh-lag tiers
	// simultaneously — plus the accept-all baseline.
	fmt.Println("\n== attack window per relying party ==")
	times := series.Column("t")
	sample := times[1] - times[0]
	for _, name := range []string{"rp-1t", "rp-5t", "rp-20t", "legacy"} {
		col := series.Column("hijacked_" + name)
		if col == nil {
			log.Fatalf("roster column hijacked_%s missing — RP merge broken", name)
		}
		var window time.Duration
		for _, v := range col {
			if v > 0 {
				window += time.Duration(sample) * time.Second
			}
		}
		fmt.Printf("%-8s hijacked for ~%s of the run\n", name, window)
	}

	// And the churn kept ramping coverage underneath the incident.
	vrps := series.Column("vrps")
	fmt.Printf("\nground-truth VRPs %v -> %v while the incident ran:\n", vrps[0], vrps[len(vrps)-1])
	fmt.Println("the emergency ROA is one issuance inside a moving deployment —")
	fmt.Println("the compound exposure no single-scenario run can produce.")
}
