// Command ripki-sweep runs a parameter grid of scenario simulations
// across a worker pool and emits deterministic cross-run aggregates:
// per-tick min/mean/max/p50/p95/p99 of every exposure metric and per
// relying-party hijack-success rates, per grid cell. Same grid + master
// seed ⇒ byte-identical output at ANY -workers value and either
// -share-worlds setting.
//
// The scenario axis accepts compositions ("roa-churn+rp-lag" runs both
// event streams in one world) and "-param component.key=..." routes a
// param axis to one component; a routed axis must address a scenario
// present in every cell (the plan fails loudly otherwise).
//
//	ripki-sweep -scenarios hijack-window,route-leak -replicates 4 -workers 8
//	ripki-sweep -scenarios rp-lag -param slow_ticks=10,20,40 -format json
//	ripki-sweep -grid grid.json -workers 4
//	ripki-sweep -scenarios trust-anchor-outage -seeds 1,2,3 -domains 4000,8000
//	ripki-sweep -scenarios roa-churn -replicates 400 -streaming
//	ripki-sweep -scenarios hijack-window+rp-lag -param rp-lag.issue=2,4
//
// -share-worlds (on by default) generates each distinct (seed, domains)
// world once and clones it per run instead of regenerating; it never
// changes the output. Both modes fold a cell's runs as they complete and
// keep a finished cell's aggregate only; -streaming folds them into
// online accumulators instead of keeping every replicate's value until
// the cell is complete, which is smaller for many replicates per cell
// (hundreds; docs/sweep.md has the measurement). Its percentiles become
// estimates once a cell exceeds the exact buffer (25 replicates for
// p50/p95, 100 for p99) and its output is marked mode=streaming — still
// byte-identical at any worker count.
//
// Distributed mode shards one grid across processes or machines while
// keeping the output byte-identical to a single-process run
// (docs/sweep.md, "Distributed sweeps"):
//
//	ripki-sweep -coordinate :9200 -scenarios roa-churn -replicates 8 -checkpoint ckpt/
//	ripki-sweep -worker host:9200 -workers 8          # on each machine
//	ripki-sweep -coordinate :9200 -http :9201 ...     # + GET /progress and /metrics
//	ripki-sweep -status host:9201                     # render live progress and exit
//
// The coordinator expands the grid, leases contiguous cell ranges to
// workers, journals each completed cell durably (-checkpoint), and
// writes the assembled output exactly like a local run. Workers take
// their grid and mode from the coordinator, so a worker accepts only
// -workers, -share-worlds and -quiet. A coordinator restarted with the
// same -checkpoint re-leases only cells the journal doesn't already
// hold. Ctrl-C cancels in-flight simulations in every mode.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ripki/internal/distsweep"
	"ripki/internal/obs"
	"ripki/internal/sim"
	"ripki/internal/sweep"
)

// errFlagParse marks a flag-parsing failure the FlagSet has already
// reported to stderr, so main exits without printing it twice.
var errFlagParse = errors.New("flag parsing failed")

// listFlag parses a comma-separated axis into typed values.
func listFlag[T any](s string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// paramAxes collects repeatable -param key=v1,v2 axes.
type paramAxes map[string][]string

func (p paramAxes) String() string { return fmt.Sprint(map[string][]string(p)) }

func (p paramAxes) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" || v == "" {
		return fmt.Errorf("want key=value[,value...], got %q", s)
	}
	if _, dup := p[k]; dup {
		return fmt.Errorf("param axis %q given twice; list its values comma-separated in one flag", k)
	}
	p[k] = strings.Split(v, ",")
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errFlagParse) {
			os.Exit(2) // usage error, the flag package's convention
		}
		fmt.Fprintf(os.Stderr, "ripki-sweep: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command, testable: every byte it emits goes to the
// writers it is handed. The -quiet contract is enforced here — with
// -quiet set, NOTHING is written to stderr on a successful sweep, in
// every path (flag axes, grid file, both formats, all three modes).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	params := paramAxes{}
	fs := flag.NewFlagSet("ripki-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarios = fs.String("scenarios", "baseline",
			`comma-separated scenario axis; "+"-joined compositions allowed ("roa-churn+rp-lag"); registered: `+
				strings.Join(sim.Names(), ", "))
		gridPath      = fs.String("grid", "", "JSON grid file (overrides the axis flags)")
		masterSeed    = fs.Int64("master-seed", 1, "master seed for per-replicate seed derivation")
		replicates    = fs.Int("replicates", 3, "seeds derived per grid cell")
		seeds         = fs.String("seeds", "", "explicit comma-separated seed axis (overrides -replicates)")
		domains       = fs.String("domains", "", "comma-separated world-size axis (default: sim default)")
		ticks         = fs.String("tick", "", "comma-separated tick axis (e.g. 10s,30s)")
		durations     = fs.String("duration", "", "comma-separated horizon axis (e.g. 10m,30m)")
		sampleEvery   = fs.String("sample-every", "", "comma-separated probe-cadence axis (ticks)")
		sampleDomains = fs.String("sample-domains", "", "comma-separated probe-sample-size axis")
		workers       = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS); output is identical at any value")
		shareWorlds   = fs.Bool("share-worlds", true, "generate each (seed, domains) world once and clone per run (never changes output)")
		streaming     = fs.Bool("streaming", false, "fold runs into online accumulators (for many replicates per cell; p50/p95 estimated past 25 replicates, p99 past 100)")
		format        = fs.String("format", "tsv", `output format: "tsv" or "json"`)
		quiet         = fs.Bool("quiet", false, "suppress all progress output on stderr")
		coordinate    = fs.String("coordinate", "", `run as distributed-sweep coordinator listening on this address (e.g. ":9200")`)
		workerAddr    = fs.String("worker", "", "run as distributed-sweep worker for the coordinator at this address")
		checkpoint    = fs.String("checkpoint", "", "coordinator: journal each completed cell to this directory (one fsynced record per cell), resuming from the records already there")
		leaseTimeout  = fs.Duration("lease-timeout", 0, "coordinator: re-lease a silent cell range after this long (default 2m)")
		leaseCells    = fs.Int("lease-cells", 0, "coordinator: max cells per lease (default cells/16, min 1)")
		httpAddr      = fs.String("http", "", `coordinator: serve GET /progress (live sweep standing as JSON) and GET /metrics (Prometheus text) on this address (e.g. ":9201")`)
		pprofFlag     = fs.Bool("pprof", false, "coordinator: also mount /debug/pprof/ on the -http listener")
		status        = fs.String("status", "", "fetch a running coordinator's /progress from this address (its -http address), render it, and exit")
	)
	fs.Var(params, "param", `scenario parameter axis key=value[,value...] (repeatable, crossed); "component.key=..." targets one component of a composition`)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h is a successful exit, not an error
		}
		return errFlagParse // already reported by the FlagSet
	}

	if *status != "" {
		if *coordinate != "" || *workerAddr != "" {
			return errors.New("-status is its own mode; drop -coordinate/-worker")
		}
		return printStatus(*status, stdout)
	}
	if *coordinate != "" && *workerAddr != "" {
		return errors.New("-coordinate and -worker are mutually exclusive")
	}
	if *workerAddr != "" {
		// A worker's grid, mode and output all come from the coordinator:
		// any flag that shapes them locally is a misunderstanding worth
		// stopping on, not silently ignoring.
		allowed := map[string]bool{"worker": true, "workers": true, "share-worlds": true, "quiet": true}
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			return fmt.Errorf("%s: worker mode takes its grid and mode from the coordinator; only -workers, -share-worlds and -quiet apply", strings.Join(bad, ", "))
		}
		cfg := distsweep.WorkerConfig{
			Options: sweep.Options{Workers: *workers, ShareWorlds: *shareWorlds},
		}
		if !*quiet {
			cfg.Logf = func(f string, a ...any) { fmt.Fprintf(stderr, "ripki-sweep worker: "+f+"\n", a...) }
		}
		return distsweep.Work(ctx, *workerAddr, cfg)
	}
	if *coordinate == "" {
		if *checkpoint != "" {
			return errors.New("-checkpoint requires -coordinate")
		}
		if *leaseTimeout != 0 || *leaseCells != 0 {
			return errors.New("-lease-timeout and -lease-cells require -coordinate")
		}
		if *httpAddr != "" || *pprofFlag {
			return errors.New("-http and -pprof require -coordinate")
		}
	}

	var grid sweep.Grid
	if *gridPath != "" {
		data, err := os.ReadFile(*gridPath)
		if err != nil {
			return err
		}
		grid, err = sweep.ParseGrid(data)
		if err != nil {
			return err
		}
	} else {
		var err error
		grid.Scenarios, err = listFlag(*scenarios, func(s string) (string, error) { return s, nil })
		if err != nil {
			return err
		}
		grid.MasterSeed = *masterSeed
		grid.Replicates = *replicates
		if grid.Seeds, err = listFlag(*seeds, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }); err != nil {
			return err
		}
		if grid.Domains, err = listFlag(*domains, strconv.Atoi); err != nil {
			return err
		}
		if grid.Ticks, err = listFlag(*ticks, time.ParseDuration); err != nil {
			return err
		}
		if grid.Durations, err = listFlag(*durations, time.ParseDuration); err != nil {
			return err
		}
		if grid.SampleEvery, err = listFlag(*sampleEvery, strconv.Atoi); err != nil {
			return err
		}
		if grid.SampleDomains, err = listFlag(*sampleDomains, strconv.Atoi); err != nil {
			return err
		}
		if len(params) > 0 {
			grid.Params = params
		}
	}

	mode := "exact"
	if *streaming {
		mode = "streaming"
	}

	var res *sweep.Result
	if *coordinate != "" {
		cfg := distsweep.CoordinatorConfig{
			Grid:          grid,
			Streaming:     *streaming,
			LeaseTimeout:  *leaseTimeout,
			LeaseCells:    *leaseCells,
			CheckpointDir: *checkpoint,
		}
		if !*quiet {
			cfg.Logf = func(f string, a ...any) { fmt.Fprintf(stderr, "ripki-sweep coordinator: "+f+"\n", a...) }
		}
		coord, err := distsweep.NewCoordinator(*coordinate, cfg)
		if err != nil {
			return err
		}
		if *httpAddr != "" {
			ln, err := net.Listen("tcp", *httpAddr)
			if err != nil {
				return err
			}
			srv := obs.NewServer(coord.Handler(*pprofFlag))
			go srv.Serve(ln)
			defer srv.Close()
			if !*quiet {
				fmt.Fprintf(stderr, "ripki-sweep coordinator: progress on http://%s/progress\n", ln.Addr())
			}
		}
		if !*quiet {
			plan := coord.Plan()
			fmt.Fprintf(stderr, "ripki-sweep coordinator: listening on %s: %d cells × %d seeds = %d runs (mode=%s)\n",
				coord.Addr(), len(plan.Cells), len(plan.Seeds), len(plan.Specs), mode)
		}
		if res, err = coord.Run(ctx); err != nil {
			return err
		}
	} else {
		// Expand once; the header and the pool share the same plan.
		plan, err := grid.Plan()
		if err != nil {
			return err
		}
		opt := sweep.Options{Workers: *workers, ShareWorlds: *shareWorlds, Streaming: *streaming}
		if !*quiet {
			// The header and per-run progress share the -quiet gate: -quiet
			// means a successful sweep writes stderr nothing at all.
			fmt.Fprintf(stderr, "ripki-sweep: %d cells × %d seeds = %d runs (workers=%d share-worlds=%v mode=%s)\n",
				len(plan.Cells), len(plan.Seeds), len(plan.Specs), *workers, *shareWorlds, mode)
			start := time.Now()
			opt.Progress = func(done, total int, rr *sweep.RunResult) {
				fmt.Fprintf(stderr, "ripki-sweep: [%3d/%d] %s (%.1fs%s)\n",
					done, total, rr, time.Since(start).Seconds(), etaSuffix(start, done, total))
			}
		}
		if res, err = sweep.RunPlan(ctx, plan, opt); err != nil {
			return err
		}
	}

	switch *format {
	case "tsv":
		return res.WriteTSV(stdout)
	case "json":
		return res.WriteJSON(stdout)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

// etaSuffix extrapolates elapsed/done over the remaining runs. Empty
// until the first run lands (no rate yet); ", done" on the last.
func etaSuffix(start time.Time, done, total int) string {
	switch {
	case done >= total:
		return ", done"
	case done <= 0:
		return ""
	}
	eta := time.Since(start) / time.Duration(done) * time.Duration(total-done)
	return fmt.Sprintf(", eta %.1fs", eta.Seconds())
}

// printStatus fetches a coordinator's /progress and renders it for a
// terminal.
func printStatus(addr string, stdout io.Writer) error {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/progress"
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var p distsweep.Progress
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return fmt.Errorf("decoding %s: %w", url, err)
	}

	mode := "exact"
	if p.Streaming {
		mode = "streaming"
	}
	state := "running"
	if p.Done {
		state = "done"
	}
	fmt.Fprintf(stdout, "plan %s (mode=%s) %s, up %.1fs\n", p.PlanHash, mode, state, p.UptimeSeconds)
	fmt.Fprintf(stdout, "cells: %d/%d completed (%d resumed), %d leased, %d pending\n",
		p.Cells.Completed, p.Cells.Total, p.Cells.Resumed, p.Cells.Leased, p.Cells.Pending)
	eta := "unknown"
	if p.ETASeconds >= 0 {
		eta = fmt.Sprintf("%.1fs", p.ETASeconds)
	}
	fmt.Fprintf(stdout, "rate: %.2f cells/s, eta %s\n", p.RateCellsPerSecond, eta)
	if cp := p.Checkpoint; cp != nil {
		last := "never"
		if cp.LastWriteAgeSeconds >= 0 {
			last = fmt.Sprintf("%.1fs ago", cp.LastWriteAgeSeconds)
		}
		fmt.Fprintf(stdout, "checkpoint: %d journaled, lag %d, last write %s\n", cp.Journaled, cp.Lag, last)
	}
	fmt.Fprintf(stdout, "workers: %d\n", len(p.Workers))
	for _, w := range p.Workers {
		conn := "connected"
		if !w.Connected {
			conn = "gone"
		}
		fmt.Fprintf(stdout, "  %-21s %-9s leased=%d completed=%d (%.2f cells/s over %.1fs)\n",
			w.Name, conn, w.Leased, w.Completed, w.CellsPerSecond, w.ConnectedSeconds)
	}
	return nil
}
