package distsweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ripki/internal/sweep"
)

// distGrid is the test grid: 3 cells × 2 replicates of fast, tiny
// worlds — big enough to shard, small enough to run several full
// sweeps per test.
func distGrid() sweep.Grid {
	return sweep.Grid{
		Scenarios:     []string{"baseline", "roa-churn", "hijack-window"},
		MasterSeed:    1,
		Replicates:    2,
		Domains:       []int{800},
		Ticks:         []time.Duration{30 * time.Second},
		Durations:     []time.Duration{2 * time.Minute},
		SampleEvery:   []int{4},
		SampleDomains: []int{50},
	}
}

// render dumps both output formats for byte comparison.
func render(t *testing.T, res *sweep.Result) (tsv, js []byte) {
	t.Helper()
	var tb, jb bytes.Buffer
	if err := res.WriteTSV(&tb); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes()
}

// reference runs the grid in-process, the bytes every distributed
// topology must reproduce.
func reference(t *testing.T, g sweep.Grid, streaming bool) (tsv, js []byte) {
	t.Helper()
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.RunPlan(context.Background(), plan, sweep.Options{Workers: 2, ShareWorlds: true, Streaming: streaming})
	if err != nil {
		t.Fatal(err)
	}
	return render(t, res)
}

// testLog collects coordinator/worker log lines thread-safely.
type testLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *testLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// runDistributed executes the grid with a coordinator and n Work
// workers, returning the assembled result.
func runDistributed(t *testing.T, g sweep.Grid, streaming bool, workers int, cfg CoordinatorConfig) *sweep.Result {
	t.Helper()
	cfg.Grid = g
	cfg.Streaming = streaming
	if cfg.Logf == nil {
		cfg.Logf = func(f string, a ...any) { t.Logf("coord: "+f, a...) }
	}
	coord, err := NewCoordinator("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		i := i
		go func() {
			errs <- Work(ctx, coord.Addr(), WorkerConfig{
				Options: sweep.Options{Workers: 2, ShareWorlds: true},
				Logf:    func(f string, a ...any) { t.Logf("worker %d: "+f, append([]any{i}, a...)...) },
			})
		}()
	}
	res, err := coord.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return res
}

// TestDistributedByteIdentical: coordinator + 2 workers over real TCP
// produce the single-process bytes, in exact and streaming mode, with
// per-cell leases forcing the work to actually spread.
func TestDistributedByteIdentical(t *testing.T) {
	g := distGrid()
	for _, streaming := range []bool{false, true} {
		wantTSV, wantJSON := reference(t, g, streaming)
		res := runDistributed(t, g, streaming, 2, CoordinatorConfig{LeaseCells: 1})
		gotTSV, gotJSON := render(t, res)
		if !bytes.Equal(wantTSV, gotTSV) {
			t.Fatalf("streaming=%v: TSV diverged from single-process run", streaming)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("streaming=%v: JSON diverged from single-process run", streaming)
		}
	}
}

// leaseOneThenDie is a protocol-level fake worker: it takes exactly one
// lease, runs it honestly, delivers the partials, and hangs up. It lets
// the tests create deterministic "worker died mid-sweep" and "partial
// progress then crash" situations that real Work workers would only
// produce by timing luck.
func leaseOneThenDie(t *testing.T, addr string, opt sweep.Options) (completed []int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if err := writeFrame(conn, &frame{Type: frameHello, Version: protocolVersion}); err != nil {
		t.Fatal(err)
	}
	hello, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := sweep.ParseGrid(hello.Grid)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := grid.Plan()
	if err != nil {
		t.Fatal(err)
	}
	opt.Streaming = hello.Streaming
	if err := writeFrame(conn, &frame{Type: frameLease}); err != nil {
		t.Fatal(err)
	}
	grant, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if grant.Type != frameLease {
		return nil // nothing left to lease
	}
	partials, err := sweep.RunCells(context.Background(), plan, opt, grant.First, grant.Count)
	if err != nil {
		t.Fatal(err)
	}
	for i := range partials {
		if err := writeFrame(conn, &frame{Type: framePartial, Cell: partials[i].Cell, Partial: &partials[i]}); err != nil {
			t.Fatal(err)
		}
		if ack, err := readFrame(br); err != nil || ack.Type != frameAck {
			t.Fatalf("ack: %v %+v", err, ack)
		}
		completed = append(completed, partials[i].Cell)
	}
	return completed
}

// TestWorkerDeathReleasesLeases: a worker that completes one lease and
// disconnects leaves the rest of the grid to a survivor, and the
// output is still byte-identical.
func TestWorkerDeathReleasesLeases(t *testing.T) {
	g := distGrid()
	wantTSV, _ := reference(t, g, false)

	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{Grid: g, LeaseCells: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	type runOut struct {
		res *sweep.Result
		err error
	}
	runCh := make(chan runOut, 1)
	go func() {
		res, err := coord.Run(ctx)
		runCh <- runOut{res, err}
	}()

	// The doomed worker completes exactly one cell, then vanishes.
	done := leaseOneThenDie(t, coord.Addr(), sweep.Options{Workers: 2, ShareWorlds: true})
	if len(done) != 1 {
		t.Fatalf("fake worker completed %v, want one cell", done)
	}

	errs := make(chan error, 1)
	go func() {
		errs <- Work(ctx, coord.Addr(), WorkerConfig{Options: sweep.Options{Workers: 2, ShareWorlds: true}})
	}()
	out := <-runCh
	if out.err != nil {
		t.Fatalf("coordinator: %v", out.err)
	}
	res := out.res
	if err := <-errs; err != nil {
		t.Fatalf("surviving worker: %v", err)
	}
	gotTSV, _ := render(t, res)
	if !bytes.Equal(wantTSV, gotTSV) {
		t.Fatal("output diverged after a worker death")
	}
}

// TestLeaseTimeoutReclaims: a worker that takes a lease and goes silent
// (connection held open, nothing delivered) loses it after the timeout
// and the sweep still finishes byte-identically.
func TestLeaseTimeoutReclaims(t *testing.T) {
	g := distGrid()
	wantTSV, _ := reference(t, g, false)

	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		Grid: g, LeaseCells: 1, LeaseTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	type runOut struct {
		res *sweep.Result
		err error
	}
	runCh := make(chan runOut, 1)
	go func() {
		res, err := coord.Run(ctx)
		runCh <- runOut{res, err}
	}()

	// Silent worker: hello, one lease, then nothing — but the connection
	// stays open, so only the timeout (not a disconnect) can reclaim it.
	silent, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	sbr := bufio.NewReader(silent)
	if err := writeFrame(silent, &frame{Type: frameHello, Version: protocolVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(sbr); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(silent, &frame{Type: frameLease}); err != nil {
		t.Fatal(err)
	}
	grant, err := readFrame(sbr)
	if err != nil || grant.Type != frameLease {
		t.Fatalf("silent worker lease: %v %+v", err, grant)
	}

	errs := make(chan error, 1)
	go func() {
		errs <- Work(ctx, coord.Addr(), WorkerConfig{Options: sweep.Options{Workers: 2, ShareWorlds: true}})
	}()
	out := <-runCh
	if out.err != nil {
		t.Fatalf("coordinator: %v", out.err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("worker: %v", err)
	}
	gotTSV, _ := render(t, out.res)
	if !bytes.Equal(wantTSV, gotTSV) {
		t.Fatal("output diverged after a lease timeout")
	}
}

// TestCheckpointResume: kill the coordinator after some cells are
// journaled, then resume into a fresh coordinator — only unfinished
// cells are leased again, and the final bytes match the single-process
// run. Both modes.
func TestCheckpointResume(t *testing.T) {
	for _, streaming := range []bool{false, true} {
		g := distGrid()
		wantTSV, wantJSON := reference(t, g, streaming)
		dir := t.TempDir()

		// Session 1: one fake worker completes one cell (journaled), then
		// the coordinator is killed.
		c1, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
			Grid: g, Streaming: streaming, LeaseCells: 1, CheckpointDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx1, cancel1 := context.WithCancel(context.Background())
		runDone := make(chan error, 1)
		go func() { _, err := c1.Run(ctx1); runDone <- err }()
		done := leaseOneThenDie(t, c1.Addr(), sweep.Options{Workers: 2, ShareWorlds: true})
		if len(done) != 1 {
			t.Fatalf("session 1 completed %v, want one cell", done)
		}
		cancel1() // kill the coordinator mid-grid
		if err := <-runDone; err != context.Canceled {
			t.Fatalf("killed coordinator returned %v", err)
		}
		if recs, _ := filepath.Glob(filepath.Join(dir, "cell-*.json")); len(recs) != 1 {
			t.Fatalf("journal holds %d records after one ack, want 1", len(recs))
		}

		// Session 2: resume. The journaled cell must not be leased again.
		log := &testLog{}
		c2, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
			Grid: g, Streaming: streaming, LeaseCells: 1, CheckpointDir: dir, Logf: log.logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx2, cancel2 := context.WithTimeout(context.Background(), 3*time.Minute)
		errs := make(chan error, 1)
		go func() {
			errs <- Work(ctx2, c2.Addr(), WorkerConfig{Options: sweep.Options{Workers: 2, ShareWorlds: true}})
		}()
		res, err := c2.Run(ctx2)
		if err != nil {
			t.Fatalf("resumed coordinator: %v", err)
		}
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
		cancel2()

		log.mu.Lock()
		var leased int
		for _, l := range log.lines {
			if strings.HasPrefix(l, "leased cells") {
				leased++
			}
		}
		log.mu.Unlock()
		if want := len(c2.Plan().Cells) - len(done); leased != want {
			t.Errorf("resume leased %d ranges, want %d (journaled cells must not re-run)", leased, want)
		}
		gotTSV, gotJSON := render(t, res)
		if !bytes.Equal(wantTSV, gotTSV) || !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("streaming=%v: resumed output diverged from single-process run", streaming)
		}
	}
}

// parentExactRecord and parentStreamingRecord are journal records in the
// form the build before protocol 2 wrote them (%s is the plan hash), cut
// down to two metrics and one tick: an exact cell carries its aggregate
// and still resumes, a streaming cell carries accumulator state no
// build can render any more.
const (
	parentExactRecord = `{"plan_hash":"%s","streaming":false,"partial":{"cell":0,"runs":[` +
		`{"run":0,"rows":1,"mean_valid":0.125,"min_valid":0.125,"final_coverage":0.125,"max_hijacks":1,"hijacks":[{"rp":"legacy","hijacked_ticks":1,"success":true}]},` +
		`{"run":1,"error":"boom","rows":0,"mean_valid":0,"min_valid":0,"final_coverage":0,"max_hijacks":0}],` +
		`"agg":{"cell":0,"scenario":"hijack-window","label":"scenario=hijack-window","runs":1,"errors":1,"columns":["valid","head_valid"],` +
		`"ticks":[{"t":0,"tick":0,"metrics":[{"count":1,"min":0.125,"max":0.125,"mean":0.125,"p50":0.125,"p95":0.125,"p99":0.125},` +
		`{"count":0,"min":null,"max":null,"mean":null,"p50":null,"p95":null,"p99":null}]}],` +
		`"hijacks":[{"rp":"legacy","runs":1,"success_rate":1,"mean_hijacked_ticks":1}]}}}`
	parentStreamingRecord = `{"plan_hash":"%s","streaming":true,"partial":{"cell":0,"runs":[` +
		`{"run":0,"rows":1,"mean_valid":0.125,"min_valid":0.125,"final_coverage":0.125,"max_hijacks":1},` +
		`{"run":1,"rows":1,"mean_valid":0.15,"min_valid":0.15,"final_coverage":0.15,"max_hijacks":1}],` +
		`"stream":{"runs":2,"errors":0,"columns":["valid"],"t":[0],"tick":[0],"rows":1,"accs":[[` +
		`{"count":2,"min":0.125,"max":0.15,"mean":0.1375,"p50":{"p":0.5,"n":2,"buf":[0.125,0.15]},"p95":{"p":0.95,"n":2,"buf":[0.125,0.15]},"p99":{"p":0.99,"size":100,"n":2,"buf":[0.125,0.15]}}]],` +
		`"hijacks":[{"rp":"legacy","runs":2,"successes":2,"ticks":2}]}}}`
)

// TestResumeFromParentFormatJournal: an exact-mode journal written
// before protocol 2 resumes — the record is placed, not re-run, with the
// coordinator's own cell identity — and a streaming one is refused when
// the journal is opened, naming the cell, rather than assembled into a
// cell without an aggregate.
func TestResumeFromParentFormatJournal(t *testing.T) {
	g := distGrid()
	g.Scenarios = []string{"hijack-window"}
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	journalOf := func(record string) string {
		dir := t.TempDir()
		data := fmt.Sprintf(record, plan.Hash())
		if err := os.WriteFile(filepath.Join(dir, "cell-000000.json"), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	c, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{Grid: g, CheckpointDir: journalOf(parentExactRecord)})
	if err != nil {
		t.Fatalf("exact journal in the parent's format refused: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := c.Run(ctx) // no workers: the one cell must come from the journal
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Cells[0]
	if res.Runs[0].MeanValid != 0.125 || res.Runs[1].Err != "boom" || res.Runs[1].Spec.Rep != 1 ||
		cell.Runs != 1 || cell.Errors != 1 || cell.Config.Domains != 800 ||
		cell.Ticks[0].Metrics[0].P99 != 0.125 || !math.IsNaN(cell.Ticks[0].Metrics[1].Mean) ||
		len(cell.Hijacks) != 1 || cell.Hijacks[0].SuccessRate != 1 {
		t.Errorf("resumed cell is not the journaled one: runs %+v, cell %+v", res.Runs, cell)
	}

	_, err = NewCoordinator("127.0.0.1:0", CoordinatorConfig{Grid: g, Streaming: true, CheckpointDir: journalOf(parentStreamingRecord)})
	if err == nil || !strings.Contains(err.Error(), "cell 0") {
		t.Fatalf("streaming journal in the parent's format: %v, want a refusal naming cell 0", err)
	}
}

// TestResumeOnlyFromFullJournal: a journal holding every cell assembles
// with no workers at all.
func TestResumeOnlyFromFullJournal(t *testing.T) {
	g := distGrid()
	wantTSV, _ := reference(t, g, false)
	dir := t.TempDir()

	res := runDistributed(t, g, false, 1, CoordinatorConfig{LeaseCells: 2, CheckpointDir: dir})
	firstTSV, _ := render(t, res)
	if !bytes.Equal(wantTSV, firstTSV) {
		t.Fatal("checkpointed run diverged")
	}

	c, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{Grid: g, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res2, err := c.Run(ctx) // no workers: must complete purely from the journal
	if err != nil {
		t.Fatal(err)
	}
	gotTSV, _ := render(t, res2)
	if !bytes.Equal(wantTSV, gotTSV) {
		t.Fatal("journal-only assembly diverged")
	}
}

// TestVersionMismatchRefused: a worker speaking a different protocol
// version is turned away with an explanatory error, not garbage.
func TestVersionMismatchRefused(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{Grid: distGrid()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { coord.Run(ctx); close(runDone) }()
	defer func() { cancel(); <-runDone }()

	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, &frame{Type: frameHello, Version: protocolVersion + 1}); err != nil {
		t.Fatal(err)
	}
	_, err = readFrame(bufio.NewReader(conn))
	if err == nil || !strings.Contains(err.Error(), "protocol version") {
		t.Fatalf("version mismatch produced %v, want a protocol-version refusal", err)
	}
}

// TestJournalRefusesForeignPlan: checkpoint records from a different
// grid (different plan hash) abort the resume instead of mixing grids.
func TestJournalRefusesForeignPlan(t *testing.T) {
	dir := t.TempDir()
	j1, err := openJournal(dir, "hash-a", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.write(&sweep.CellPartial{Cell: 0, Agg: &sweep.Cell{}}); err != nil {
		t.Fatal(err)
	}
	j2, err := openJournal(dir, "hash-b", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.load(); err == nil || !strings.Contains(err.Error(), "refusing to mix grids") {
		t.Fatalf("foreign-plan journal loaded: %v", err)
	}
	// Mode mismatch is refused the same way.
	j3, err := openJournal(dir, "hash-a", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j3.load(); err == nil || !strings.Contains(err.Error(), "mode") {
		t.Fatalf("cross-mode journal loaded: %v", err)
	}
	// Torn temp files are ignored, not fatal.
	if err := os.WriteFile(filepath.Join(dir, ".cell-000001-torn.tmp"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, err := j1.load(); err != nil || len(recs) != 1 {
		t.Fatalf("journal with a torn temp file: %v, %d records", err, len(recs))
	}
}

// TestWorkerCancelsOnDroppedCoordinator: when the coordinator vanishes
// mid-lease, the worker's watchdog cancels the in-flight simulations
// and Work returns an error promptly instead of computing for nobody.
func TestWorkerCancelsOnDroppedCoordinator(t *testing.T) {
	// A fake coordinator: speaks hello, grants one big lease, then drops
	// the connection while the worker is simulating.
	g := distGrid()
	plan, err := g.Plan()
	if err != nil {
		t.Fatal(err)
	}
	gridWire, err := sweep.MarshalGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(conn)
		if _, err := readFrame(br); err != nil {
			return
		}
		writeFrame(conn, &frame{Type: frameHello, Version: protocolVersion, Grid: gridWire, PlanHash: plan.Hash()})
		if _, err := readFrame(br); err != nil { // lease request
			return
		}
		writeFrame(conn, &frame{Type: frameLease, First: 0, Count: len(plan.Cells)})
		time.Sleep(300 * time.Millisecond) // let the worker get into the sims
		conn.Close()
	}()

	start := time.Now()
	err = Work(context.Background(), ln.Addr().String(), WorkerConfig{
		Options: sweep.Options{Workers: 1, ShareWorlds: true},
	})
	if err == nil {
		t.Fatal("worker returned nil after its coordinator vanished")
	}
	// The full lease takes many seconds; a watchdog-cancelled worker
	// returns in a small fraction of that.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("worker took %v to notice the dropped coordinator", elapsed)
	}
}

// TestReadFrameAllocatesWhatArrives: a frame's length is the peer's
// claim, so four header bytes must not cost the gigabyte they announce —
// memory follows the payload bytes received — while a well-formed frame
// larger than the first chunk still round-trips.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:])))
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Errorf("header claiming %d bytes, then EOF: err = %v, want io.ErrUnexpectedEOF", maxFrame, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Errorf("header claiming %d bytes, then EOF: allocated %d bytes, want < 2 MiB", maxFrame, got)
	}

	// A payload that stops half way is still a short frame.
	binary.BigEndian.PutUint32(hdr[:], 8)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(append(hdr[:], "{\"ty"...)))); err != io.ErrUnexpectedEOF {
		t.Errorf("half a payload: err = %v, want io.ErrUnexpectedEOF", err)
	}

	grid := []byte(`"` + strings.Repeat("g", 3*frameChunk) + `"`)
	var wire bytes.Buffer
	if err := writeFrame(&wire, &frame{Type: frameHello, Version: protocolVersion, Grid: grid, PlanHash: "h"}); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bufio.NewReader(&wire))
	if err != nil {
		t.Fatalf("a %d-byte frame: %v", len(grid), err)
	}
	if got.Type != frameHello || got.PlanHash != "h" || !bytes.Equal(got.Grid, grid) {
		t.Errorf("a %d-byte frame did not round-trip: type %q, hash %q, %d grid bytes", len(grid), got.Type, got.PlanHash, len(got.Grid))
	}
}
