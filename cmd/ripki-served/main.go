// Command ripki-served is the always-on origin-validation and
// web-exposure query service: a generated web ecosystem's domain table
// plus a live VRP snapshot, served over HTTP with lock-free reads.
//
//	ripki-served -domains 20000 -seed 1                 # serve the world's own RPKI state
//	ripki-served -vrps world/vrps.csv                   # serve a CSV export
//	ripki-served -rtr 127.0.0.1:8282                    # follow a live RTR cache
//	ripki-served -scenario roa-churn -sim-interval 1s   # drive updates from a scenario
//	ripki-served -scenario hijack-window+rp-lag         # replay a compound incident live
//
// Endpoints: POST/GET /v1/validate, GET /v1/domain/{name},
// GET /v1/domains, GET /v1/snapshot, GET /v1/events, GET /healthz,
// GET /metrics. See docs/serve.md.
//
// Exit codes: 0 on clean shutdown (SIGINT/SIGTERM) and for -h; 2 on
// usage errors; 1 on runtime failures.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ripki/internal/obs"
	"ripki/internal/rpki/vrp"
	"ripki/internal/serve"
	"ripki/internal/sim"
	"ripki/internal/webworld"
)

// errFlagParse marks a flag-parsing failure the FlagSet has already
// reported to stderr, so main exits 2 without printing it twice.
var errFlagParse = errors.New("flag parsing failed")

// simParams collects repeatable -param key=value scenario parameters.
type simParams map[string]string

func (p simParams) String() string { return fmt.Sprint(map[string]string(p)) }

func (p simParams) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	p[k] = v
	return nil
}

// daemon is a fully configured service: everything run needs except
// the listener, so tests can drive the handler in-process.
type daemon struct {
	svc     *serve.Service
	handler http.Handler
	listen  string
	banner  string
	// sources are the update loops to run alongside the HTTP server.
	sources []func(context.Context) error
}

// configure parses flags and builds the service: generate the world,
// build the domain exposure table, publish the initial snapshot, and
// wire the requested update sources.
func configure(args []string, stderr io.Writer) (*daemon, error) {
	// Time to ready is what an operator waits for after a restart; the
	// daemon reports it, and what it went to, in its banner and on
	// /metrics. lap returns the time since the previous lap, so the
	// phases add up to the whole.
	began := time.Now()
	mark := began
	lap := func() time.Duration {
		prev := mark
		mark = time.Now()
		return mark.Sub(prev)
	}
	var startup serve.Startup
	params := simParams{}
	fs := flag.NewFlagSet("ripki-served", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen      = fs.String("listen", "127.0.0.1:8480", "HTTP listen address")
		domains     = fs.Int("domains", 20000, "world size (domain exposure table)")
		seed        = fs.Int64("seed", 1, "world generation seed")
		vrpFile     = fs.String("vrps", "", "serve VRPs from a CSV export instead of the world's own RPKI state")
		rtrAddr     = fs.String("rtr", "", "follow a live RTR cache at host:port (replaces the snapshot on every notify)")
		scenario    = fs.String("scenario", "", `drive updates from a sim scenario or a "+"-joined composition ("hijack-window+rp-lag"); registered: `+strings.Join(sim.Names(), ", "))
		simInterval = fs.Duration("sim-interval", time.Second, "wall-clock time per virtual scenario tick")
		simTick     = fs.Duration("sim-tick", 30*time.Second, "virtual tick granularity of the scenario")
		simDuration = fs.Duration("sim-duration", 30*time.Minute, "virtual horizon of the scenario")
		pprofFlag   = fs.Bool("pprof", false, "also serve the runtime profiles under /debug/pprof/ on the main listener")
		maxStale    = fs.Duration("health-max-staleness", 0, "answer 503 (degraded) on /healthz when a live update source has not published for this long; 0 disables")
	)
	fs.Var(params, "param", "scenario parameter key=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, flag.ErrHelp
		}
		return nil, errFlagParse
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fs.Args())
		return nil, errFlagParse
	}
	if *rtrAddr != "" && *scenario != "" {
		fmt.Fprintln(stderr, "-rtr and -scenario are mutually exclusive update sources")
		return nil, errFlagParse
	}
	if *scenario != "" {
		// Fail on an unknown scenario or a negative -sim-tick now, not when
		// the source starts.
		if err := (sim.Config{Tick: *simTick, Duration: *simDuration}).Validate(); err != nil {
			return nil, err
		}
		if _, err := sim.NewScenario(*scenario, sim.Params(params)); err != nil {
			return nil, err
		}
	}

	world, err := webworld.Generate(webworld.Config{Seed: *seed, Domains: *domains})
	if err != nil {
		return nil, err
	}
	startup.Generate, startup.GeneratePhases = lap(), world.Phases
	table, err := serve.BuildDomainTable(world)
	if err != nil {
		return nil, err
	}
	startup.DomainTable = lap()
	svc := serve.New(table)
	svc.SetHealthMaxStaleness(*maxStale)

	// The initial snapshot: a CSV export if given, the world's own
	// validated payloads otherwise. An RTR-fed service may skip both
	// and start "unhealthy" until its first sync — but seeding it keeps
	// /healthz green from the first request.
	source := "world"
	var initial *vrp.Set
	if *vrpFile == "" {
		initial = world.Validation().VRPs
	}
	if *scenario == "" {
		// Only a scenario reads the world again; the table holds what is
		// served. Let go of it and collect: the world is most of the heap,
		// and what the collector frees here the CSV and the index reuse,
		// wherever the last cycle during Generate happened to set the goal.
		world = nil
		runtime.GC()
	}
	if *vrpFile != "" {
		f, err := os.Open(*vrpFile)
		if err != nil {
			return nil, err
		}
		initial, err = vrp.ReadCSV(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		source = "csv"
	}
	startup.VRPs = lap()
	if _, err := svc.PublishSet(initial, source, 0); err != nil {
		return nil, err
	}
	startup.Publish = lap()
	startup.Ready = mark.Sub(began)
	svc.SetStartup(startup)

	handler := svc.Handler()
	if *pprofFlag {
		// Opt-in only: the profile endpoints expose internals a fleet
		// deployment would not want on its query port by default.
		mux := http.NewServeMux()
		obs.RegisterPprof(mux)
		mux.Handle("/", handler)
		handler = mux
	}
	d := &daemon{
		svc:     svc,
		handler: handler,
		listen:  *listen,
		banner: fmt.Sprintf("serving %d domains (%.1f MB table), %d VRPs (source=%s), %v",
			table.Len(), float64(table.MemoryFootprint())/1e6, initial.Len(), source, startup),
	}
	if *pprofFlag {
		d.banner += ", pprof on /debug/pprof/"
	}
	if *rtrAddr != "" {
		addr := *rtrAddr
		d.banner += ", following RTR cache " + addr
		d.sources = append(d.sources, func(ctx context.Context) error {
			return d.svc.RunRTR(ctx, addr)
		})
	}
	if *scenario != "" {
		cfg := sim.Config{
			Scenario: *scenario,
			Params:   sim.Params(params),
			Seed:     *seed,
			Domains:  *domains,
			Tick:     *simTick,
			Duration: *simDuration,
			World:    world,
		}
		interval := *simInterval
		d.banner += ", scenario " + *scenario
		d.sources = append(d.sources, func(ctx context.Context) error {
			return d.svc.RunSim(ctx, cfg, interval)
		})
	}
	return d, nil
}

// run is the whole command, testable.
func run(args []string, stdout, stderr io.Writer) error {
	d, err := configure(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return nil // -h is a successful exit
	}
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", d.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ripki-served: %s on http://%s\n", d.banner, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for _, src := range d.sources {
		src := src
		go func() {
			if err := src(ctx); err != nil {
				// A failed source is not fatal: the service keeps
				// answering from its last published snapshot.
				fmt.Fprintf(stderr, "ripki-served: update source: %v\n", err)
			}
		}()
	}

	srv := obs.NewServer(d.handler)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shutdownCtx)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errFlagParse) {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "ripki-served: %v\n", err)
		os.Exit(1)
	}
}
