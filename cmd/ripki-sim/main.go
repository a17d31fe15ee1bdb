// Command ripki-sim runs a discrete-event scenario over a synthetic web
// ecosystem and emits the recorded time series: the world's RPKI
// exposure, per relying-party cache state, and hijack success, tick by
// tick. Same seed + flags ⇒ byte-identical output.
//
// Scenarios compose: "a+b" runs both event streams in one world, with
// "-param a.key=value" routed to that component only.
//
//	ripki-sim -scenario hijack-window -seed 1
//	ripki-sim -scenario rp-lag -param slow_ticks=30 -format json
//	ripki-sim -scenario cdn-migration -param from=akamai -param to=internap
//	ripki-sim -scenario hijack-window+rp-lag -param rp-lag.issue=5
//	ripki-sim -list
package main

import (
	"flag"
	"fmt"
	"log"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"ripki/internal/obs"
	"ripki/internal/sim"
)

// paramFlag collects repeatable -param key=value pairs.
type paramFlag map[string]string

func (p paramFlag) String() string { return fmt.Sprint(map[string]string(p)) }

func (p paramFlag) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	p[k] = v
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ripki-sim: ")
	params := paramFlag{}
	var (
		// The usage text enumerates the live registry, so it can never
		// drift from the actual scenario library (ripki-sweep shares it).
		scenario = flag.String("scenario", "hijack-window",
			`scenario to run, or a "+"-joined composition ("roa-churn+rp-lag") running every component's events in one world; registered: `+
				strings.Join(sim.Names(), ", "))
		list          = flag.Bool("list", false, "list registered scenarios, their params with defaults, and the composition syntax, then exit")
		seed          = flag.Int64("seed", 1, "world + scenario seed")
		domains       = flag.Int("domains", 20000, "size of the generated world")
		tick          = flag.Duration("tick", 30*time.Second, "virtual clock granularity")
		duration      = flag.Duration("duration", 30*time.Minute, "simulated horizon")
		sampleEvery   = flag.Int("sample-every", 2, "probe cadence in ticks")
		sampleDomains = flag.Int("sample-domains", 1500, "probe's stratified domain sample size")
		format        = flag.String("format", "tsv", `output format: "tsv" or "json"`)
		narrate       = flag.Bool("narrate", false, "narrate bus events to stderr while running")
		eventsPath    = flag.String("events", "", "write the typed incident stream (hijacks, ROA moves, outages, RP lag episodes) to this file as JSONL (virtual-clock timestamps; byte-identical for the same seed and flags)")
		tracePath     = flag.String("trace", "", "write a structured trace of the run to this file (virtual-clock timestamps; byte-identical for the same seed and flags)")
		traceFormat   = flag.String("trace-format", "jsonl", `trace export format: "jsonl" (one event per line) or "chrome" (chrome://tracing / Perfetto)`)
	)
	flag.Var(params, "param", `scenario parameter key=value (repeatable); in a composition, "component.key=value" targets one component`)
	flag.Parse()

	if *list {
		for _, name := range sim.Names() {
			sc, _ := sim.Lookup(name)
			fmt.Printf("%-24s %s\n", name, sc.Description)
			if len(sc.Params) > 0 {
				var defaults []string
				for _, k := range slices.Sorted(maps.Keys(sc.Params)) {
					defaults = append(defaults, fmt.Sprintf("%s=%v", k, sc.Params[k]))
				}
				fmt.Printf("%-24s params: %s\n", "", strings.Join(defaults, " "))
			}
		}
		fmt.Println("\ncompose with \"+\": any a+b[+c...] runs every component's event stream in one world")
		fmt.Println("(per-component params: -param component.key=value; see docs/sim.md)")
		return
	}

	run, err := sim.New(sim.Config{
		Scenario:      *scenario,
		Params:        sim.Params(params),
		Seed:          *seed,
		Domains:       *domains,
		Tick:          *tick,
		Duration:      *duration,
		SampleEvery:   *sampleEvery,
		SampleDomains: *sampleDomains,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer run.Close()
	if *narrate {
		run.Bus.SubscribeAll(func(e sim.Event) { fmt.Fprintln(os.Stderr, e) })
	}
	var incidents *sim.IncidentLog
	if *eventsPath != "" {
		incidents = &sim.IncidentLog{}
		run.AttachIncidents(incidents.Add)
	}
	var trace *obs.Trace
	if *tracePath != "" {
		trace = obs.NewTrace()
		run.AttachTrace(trace)
	}
	series, err := run.Run()
	if err != nil {
		log.Fatal(err)
	}
	if incidents != nil {
		f, err := os.Create(*eventsPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := incidents.WriteJSONL(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if trace != nil {
		// Close first: it spans out any hijacks still active at the
		// horizon, completing the trace.
		run.Close()
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteFormat(f, *traceFormat); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

	switch *format {
	case "tsv":
		err = series.WriteTSV(os.Stdout)
	case "json":
		err = series.WriteJSON(os.Stdout)
	default:
		log.Fatalf("unknown format %q", *format)
	}
	if err != nil {
		log.Fatal(err)
	}
}
