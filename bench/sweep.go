//go:build linux

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"ripki/internal/sim"
	"ripki/internal/sweep"
	"ripki/internal/webworld"
)

// sweepOp is one whole sweep as its user runs it: exec ripki-sweep on a
// grid file, wait for exit 0 with the TSV fully written.
type sweepOp struct {
	rusage
	maxRSS float64 // MB, the child's VmHWM
	sum    [sha256.Size]byte
	tsv    []byte
}

func runSweepOp(ctx context.Context, e *env, gridPath, tsvPath string) (sweepOp, error) {
	out, err := os.Create(tsvPath)
	if err != nil {
		return sweepOp{}, err
	}
	defer out.Close()
	var stderr bytes.Buffer
	cmd := command(ctx, e.sweepBin, "-grid", gridPath, "-workers", "0", "-quiet")
	cmd.Stdout = out
	cmd.Stderr = &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return sweepOp{}, fmt.Errorf("ripki-sweep: %w", err)
	}
	// The child's high-water RSS is read from /proc while it runs; the
	// last reading before it exits stands. The ru_maxrss wait4 returns
	// will not do: Linux starts a child's at the high-water RSS of the
	// process that spawned it (exec folds the old address space's into
	// it), and the bench, having run the oracle in-process, is as large
	// as the child: /bin/true run from a 500-MB parent "used" 502 MB.
	hwm := make(chan float64, 1)
	go func() {
		last := 0.0
		for {
			v, err := procPeakRSS(cmd.Process.Pid)
			if err != nil { // exited: a zombie has no VmHWM, a reaped child no /proc entry
				hwm <- last
				return
			}
			last = v
			time.Sleep(rssPollEvery)
		}
	}()
	err = cmd.Wait()
	wall := time.Since(t0)
	peak := <-hwm
	if err != nil {
		return sweepOp{}, fmt.Errorf("ripki-sweep: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	op := sweepOp{rusage: childRusage(cmd, wall), maxRSS: peak}
	if op.tsv, err = os.ReadFile(tsvPath); err != nil {
		return sweepOp{}, err
	}
	op.sum = sha256.Sum256(op.tsv)
	return op, nil
}

// planOf expands a generated grid exactly as ripki-sweep -grid would.
func planOf(grid []byte) (*sweep.Plan, error) {
	g, err := sweep.ParseGrid(grid)
	if err != nil {
		return nil, err
	}
	return g.Plan()
}

// checkTSV applies the shape oracle to a sweep's output: one row per
// run, every run recorded the expected number of samples without error,
// and every tick aggregate folded every replicate.
func checkTSV(rep *report, tsv []byte, size sweepSize) {
	section, runs, ticks := "", 0, 0
	for _, line := range strings.Split(strings.TrimSpace(string(tsv)), "\n") {
		if strings.HasPrefix(line, "# ") {
			section = line
			continue
		}
		f := strings.Split(line, "\t")
		switch {
		case f[0] == "run" || f[0] == "cell":
			// column headers
		case section == "# runs":
			runs++
			// rows is column 9, error the last.
			if len(f) != 17 || f[9] != fmt.Sprint(size.rowsPerRun()) || f[16] != "-" {
				rep.fail("sweep run row %q: want %d rows and no error", line, size.rowsPerRun())
				return
			}
		case section == "# cell ticks":
			ticks++
			if len(f) != 12 || f[5] != fmt.Sprint(size.replicates) {
				rep.fail("sweep tick row %q: want count %d", line, size.replicates)
				return
			}
		}
	}
	rep.check(runs == size.runs(), "sweep TSV has %d run rows, want %d", runs, size.runs())
	// Every cell aggregates at least one metric per sample.
	minTicks := len(size.scenarios) * size.rowsPerRun()
	rep.check(ticks >= minTicks, "sweep TSV has %d tick rows, want at least %d", ticks, minTicks)
}

const (
	minSweepOps      = 3
	maxSweepFailures = 3
	rssPollEvery     = 10 * time.Millisecond
)

// repeatOps runs op back to back for d and returns the ops that
// succeeded. It makes at least minSweepOps of them, so that their median
// is one. A failed op counts into rep; maxSweepFailures in a row (a child
// killed for memory, a full disk) end the run with what it has instead
// of spinning on a child that will not come back.
func repeatOps(ctx context.Context, d time.Duration, rep *report, op func() (sweepOp, error)) ([]sweepOp, error) {
	var ops []sweepOp
	inARow := 0
	start := time.Now()
	for (time.Since(start) < d || len(ops) < minSweepOps) && inARow < maxSweepFailures {
		o, err := op()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil {
			rep.fail("%v", err)
			inARow++
			continue
		}
		inARow = 0
		ops = append(ops, o)
	}
	return ops, nil
}

// runSweep measures a sweep workload end to end.
func runSweep(ctx context.Context, e *env, name string, size sweepSize, setups int, seed int64, seconds int) (*report, error) {
	rep := newReport()
	gridPath := filepath.Join(e.workDir, name+".grid.json")
	tsvPath := filepath.Join(e.workDir, name+".tsv")

	// Oracle first: the same grid through the library. It has to run
	// before the clock in any case, and it keeps both vCPUs busy for two
	// or three seconds, which matters to what follows: a VM whose vCPUs
	// have been idle gives a process that saturates both one core's worth
	// for its first seconds, and those would land in the first set-up.
	plan, err := planOf(gridJSON(size, seed))
	if err != nil {
		return nil, err
	}
	res, err := sweep.RunPlan(ctx, plan, sweep.Options{ShareWorlds: true})
	if err != nil {
		return nil, err
	}
	var want bytes.Buffer
	if err := res.WriteTSV(&want); err != nil {
		return nil, err
	}
	wantSum := sha256.Sum256(want.Bytes())

	// Set-up, several times: generate the grid, run one untimed sweep.
	var warm sweepOp
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if err := os.WriteFile(gridPath, gridJSON(size, seed), 0o644); err != nil {
			return nil, err
		}
		if warm, err = runSweepOp(ctx, e, gridPath, tsvPath); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	rep.check(warm.sum == wantSum, "ripki-sweep output differs from in-process sweep.RunPlan + WriteTSV")
	checkTSV(rep, warm.tsv, size)

	ops, err := repeatOps(ctx, time.Duration(seconds)*time.Second, rep, func() (sweepOp, error) {
		op, err := runSweepOp(ctx, e, gridPath, tsvPath)
		if err == nil {
			rep.check(op.sum == wantSum, "a timed op's TSV sha256 differs from the warm-up op's")
			op.tsv = nil
		}
		return op, err
	})
	if err != nil {
		return nil, err
	}

	rss := make([]float64, len(ops))
	for i, op := range ops {
		rss[i] = op.maxRSS
	}
	rep.metrics["setup_s"] = median(setupS)
	rep.metrics["peak_rss_mb"] = median(rss)
	opTimings(rep, name, size, ops)
	rep.note("child max RSS %.1f … %.1f MB over the ops", slices.Min(rss), slices.Max(rss))
	return rep, nil
}

// opTimings fills the timings of whole sweeps — op_p50_s, cpu_s_per_op
// and the workload's rate — from ops that ran back to back.
func opTimings(rep *report, name string, size sweepSize, ops []sweepOp) {
	wall := make([]float64, len(ops))
	cpu := make([]float64, len(ops))
	for i, op := range ops {
		wall[i], cpu[i] = op.wall.Seconds(), op.cpu.Seconds()
	}
	p50 := median(wall)
	rep.metrics["op_p50_s"] = p50
	rep.metrics["cpu_s_per_op"] = median(cpu)
	if name == "sweep-ticks" {
		rep.metrics["ticks_per_s"] = float64(size.runs()*size.ticksPerRun()) / p50
	} else {
		rep.metrics["runs_per_s"] = float64(size.runs()) / p50
	}
	rep.note("op_p50_s over %d ops (quartiles %.4f / %.4f / %.4f); cpu/wall %.2f cores",
		len(ops), quantile(wall, 0.25), p50, quantile(wall, 0.75), median(cpu)/p50)
}

// traceSweep is the traced run of a sweep workload: the plan's runs are
// replayed one after another on this goroutine, each layer call timed as
// a span, so self-times add up. Stand-alone timings of the layers below
// sim.New and sim.Step follow, on the first world.
func traceSweep(ctx context.Context, e *env, name string, size sweepSize, seed int64) (*report, error) {
	rep := newReport()
	grid := gridJSON(size, seed)
	plan, err := planOf(grid)
	if err != nil {
		return nil, err
	}

	// A few real ops: their CPU is what the breakdown must cover, and
	// their bytes are what the library path must reproduce.
	gridPath := filepath.Join(e.workDir, name+".grid.json")
	if err := os.WriteFile(gridPath, grid, 0o644); err != nil {
		return nil, err
	}
	tsvPath := filepath.Join(e.workDir, name+".tsv")
	if _, err := runSweepOp(ctx, e, gridPath, tsvPath); err != nil { // warm-up
		return nil, err
	}
	ops, err := repeatOps(ctx, 0, rep, func() (sweepOp, error) { return runSweepOp(ctx, e, gridPath, tsvPath) })
	if err != nil {
		return nil, err
	}
	if len(ops) < minSweepOps {
		return rep, nil // with its failures
	}
	child := ops[0]
	checkTSV(rep, child.tsv, size)
	opTimings(rep, name, size, ops)
	cpuPerOp := rep.metrics["cpu_s_per_op"]

	// The cell partials the assemble span needs; not part of the trace.
	partials, err := sweep.RunCells(ctx, plan, sweep.Options{ShareWorlds: true}, 0, len(plan.Cells))
	if err != nil {
		return nil, err
	}

	type worldKey struct {
		seed    int64
		domains int
	}
	worlds := map[worldKey]*webworld.Snapshot{}
	var first *webworld.World
	var ms0, ms1 runtime.MemStats
	var newAllocs, newBytes, stepAllocs, steps float64
	runDur := make([]time.Duration, len(plan.Specs))

	tr := newTracer()
	root := tr.begin("sweep.op", 0, -1)
	for i := range plan.Specs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cfg := plan.Specs[i].Config
		key := worldKey{cfg.Seed, cfg.Domains}
		snap := worlds[key]
		if snap == nil {
			var w *webworld.World
			var genErr error
			tr.timed("webworld.generate", root, i, func() {
				w, genErr = webworld.Generate(webworld.Config{Seed: cfg.Seed, Domains: cfg.Domains})
			})
			if genErr != nil {
				return nil, genErr
			}
			tr.timed("rpki.validate", root, i, func() { w.Validation() })
			if first == nil {
				first = w
			}
			snap = w.Snapshot()
			worlds[key] = snap
		}
		run := tr.begin("sweep.run", root, i)
		tr.timed("webworld.clone", run, i, func() { cfg.World = snap.Clone() })
		var s *sim.Simulation
		var simErr error
		runtime.ReadMemStats(&ms0)
		tr.timed("sim.new", run, i, func() { s, simErr = sim.New(cfg) })
		runtime.ReadMemStats(&ms1)
		if simErr != nil {
			return nil, simErr
		}
		newAllocs += float64(ms1.Mallocs - ms0.Mallocs)
		newBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		tr.timed("sim.steps", run, i, func() {
			for s.Step() {
				steps++
			}
		})
		runtime.ReadMemStats(&ms0)
		stepAllocs += float64(ms0.Mallocs - ms1.Mallocs)
		tr.timed("sim.close", run, i, func() { s.Close() })
		runDur[i] = tr.end(run)
		rep.check(s.Err() == nil && len(s.Series.Rows) == size.rowsPerRun(),
			"replayed run %d: err %v, %d rows, want %d", i, s.Err(), len(s.Series.Rows), size.rowsPerRun())
	}
	var res *sweep.Result
	tr.timed("sweep.assemble", root, -1, func() { res, err = sweep.AssembleResult(plan, false, partials) })
	if err != nil {
		return nil, err
	}
	var tsv bytes.Buffer
	tr.timed("sweep.write_tsv", root, -1, func() { err = res.WriteTSV(&tsv) })
	if err != nil {
		return nil, err
	}
	total := tr.end(root)
	rep.check(sha256.Sum256(tsv.Bytes()) == child.sum,
		"ripki-sweep output differs from in-process RunCells + AssembleResult + WriteTSV")

	// A second seed must change the bytes, or the seed never reached the
	// program.
	other := gridJSON(size, seed+1)
	rep.check(!bytes.Equal(other, grid), "grid does not depend on the seed")
	if otherPlan, err := planOf(other); err != nil {
		return nil, err
	} else {
		rep.check(otherPlan.Specs[0].Config.Seed != plan.Specs[0].Config.Seed, "run seeds do not depend on the seed")
	}

	path, err := tr.write(e, name)
	if err != nil {
		return nil, err
	}
	self, selfCPU, count := tr.selfTimes()
	totalCPU := time.Duration(tr.spans[root-1].CPU)
	perRun := func(span string) float64 { return ms(self[span]) / float64(max(1, count[span])) }
	m := rep.metrics
	m["webworld.generate_s"] = perRun("webworld.generate") / 1000
	m["rpki.validate_ms"] = perRun("rpki.validate")
	m["webworld.clone_ms"] = perRun("webworld.clone")
	m["sim.new_ms"] = perRun("sim.new")
	m["sim.new_allocs"] = newAllocs / float64(len(plan.Specs))
	m["sim.new_kb"] = newBytes / 1024 / float64(len(plan.Specs))
	m["sim.close_ms"] = perRun("sim.close")
	m["sim.step_us"] = us(self["sim.steps"]) / steps
	m["sim.step_allocs"] = stepAllocs / steps
	m["sweep.assemble_ms"] = ms(self["sweep.assemble"])
	m["sweep.write_tsv_ms"] = ms(self["sweep.write_tsv"])
	// Shares are of traced CPU, which is what a sweep at workers = nproc
	// is short of: a layer's saving is at most its share.
	setupCPU := selfCPU["webworld.clone"] + selfCPU["sim.new"] + selfCPU["sim.close"]
	m["sweep.setup_share"] = float64(setupCPU) / float64(totalCPU)
	m["sweep.ticks_share"] = float64(selfCPU["sim.steps"]) / float64(totalCPU)
	m["sweep.worker_imbalance"] = imbalance(runDur, runtime.NumCPU())
	m["sweep.trace_coverage"] = totalCPU.Seconds() / cpuPerOp
	if err := layerTimings(first, m); err != nil {
		return nil, err
	}
	rep.note("trace written to %s (%d spans)", path, len(tr.spans))
	rep.note("traced total %.3f s of wall on one goroutine, %.3f s of process CPU; a real op cost %.3f s CPU, %.3f s wall",
		total.Seconds(), totalCPU.Seconds(), cpuPerOp, m["op_p50_s"])
	rep.note("breakdown coverage %.2f of cpu_s_per_op; tracing overhead (traced − untraced CPU) %+.3f s",
		m["sweep.trace_coverage"], totalCPU.Seconds()-cpuPerOp)
	for _, n := range []string{"webworld.generate", "rpki.validate", "sweep.run", "webworld.clone", "sim.new", "sim.steps", "sim.close", "sweep.assemble", "sweep.write_tsv"} {
		rep.note("  self %-18s wall %8.1f ms  cpu %8.1f ms  %5.1f %% of traced CPU  (%d spans)",
			n, ms(self[n]), ms(selfCPU[n]), 100*float64(selfCPU[n])/float64(totalCPU), count[n])
	}
	return rep, nil
}

// imbalance replays the pool's dispatch rule — runs handed out in grid
// order to whichever worker is free first — over the traced per-run
// times and returns max over mean of the workers' busy time. A sweep
// waits for its slowest worker, so 1.0 is a perfect split.
func imbalance(runs []time.Duration, workers int) float64 {
	workers = max(1, min(workers, len(runs)))
	busy := make([]time.Duration, workers)
	for _, d := range runs {
		next := 0
		for w := range busy {
			if busy[w] < busy[next] {
				next = w
			}
		}
		busy[next] += d
	}
	var sum, most time.Duration
	for _, b := range busy {
		sum += b
		most = max(most, b)
	}
	if sum == 0 {
		return 1
	}
	return float64(most) * float64(workers) / float64(sum)
}
