//go:build linux

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ripki/internal/rpki/vrp"
)

// serveInputs is everything a serving run feeds the daemon, made from
// the seed before any clock starts.
type serveInputs struct {
	size    serveSize
	vrps    []vrp.VRP
	csvPath string
	// oracle is vrp.Set, the implementation the daemon does not serve
	// from, holding the VRPs at cache serial 0.
	oracle *vrp.Set
	// batches[i] is the route batch of validate request i.
	batches  [][]route
	validate []request
	ranks    []int // Zipf draws, turned into domain requests once names are known
	churn    []churnDelta
}

func genServeInputs(e *env, size serveSize, seed int64, rounds int) (*serveInputs, error) {
	in := &serveInputs{size: size}
	in.vrps = genVRPs(subStream(seed, streamVRPs), size.vrps)
	in.csvPath = filepath.Join(e.workDir, "vrps.csv")
	if err := os.WriteFile(in.csvPath, vrpCSV(in.vrps), 0o644); err != nil {
		return nil, err
	}
	var err error
	if in.oracle, err = vrp.FromVRPs(in.vrps); err != nil {
		return nil, err
	}
	routes := genRoutes(subStream(seed, streamRoutes), in.vrps, in.oracle, size.validateReqs*size.routesPerReq)
	for i := 0; i < size.validateReqs; i++ {
		batch := routes[i*size.routesPerReq : (i+1)*size.routesPerReq]
		in.batches = append(in.batches, batch)
		in.validate = append(in.validate, request{
			raw: postRequest("/v1/validate", validateBody(batch)), kind: kindValidate, id: i,
		})
	}
	in.ranks = zipfRanks(subStream(seed, streamZipf), size.domains, size.domainReqs)
	in.churn = genChurn(subStream(seed, streamChurn), in.vrps, rounds, size.churnSize)
	return in, nil
}

// mix interleaves the validate pool with domain requests for the given
// names at 70 % / 30 %, in seeded order.
func (in *serveInputs) mix(seed int64, names []string) []request {
	rnd := subStream(seed, streamMix)
	n := len(in.validate) * 10 / 7
	out := make([]request, 0, n)
	v, d := 0, 0
	for len(out) < n {
		if rnd.Intn(10) < 7 {
			out = append(out, in.validate[v%len(in.validate)])
			v++
		} else {
			rank := in.ranks[d%len(in.ranks)]
			out = append(out, request{raw: getRequest("/v1/domain/" + names[rank]), kind: kindDomain, id: rank})
			d++
		}
	}
	return out
}

// daemon is one running ripki-served.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	// exited is closed once the process has been waited for; exitErr is
	// its Wait error.
	exited  chan struct{}
	exitErr error
	// ready is exec → ready, the workload's time-to-ready.
	ready time.Duration
}

// startDaemon execs ripki-served and waits until it is ready: the first
// 200 on /healthz, or with an RTR cache, the first snapshot whose source
// is "rtr" at the cache's serial.
func startDaemon(ctx context.Context, e *env, in *serveInputs, seed int64, cache *rtrCache) (*daemon, error) {
	args := []string{"-listen", "127.0.0.1:0", "-domains", strconv.Itoa(in.size.domains),
		"-seed", strconv.FormatInt(seed, 10), "-vrps", in.csvPath}
	if cache != nil {
		args = append(args, "-rtr", cache.addr)
	}
	d := &daemon{cmd: command(ctx, e.servedBin, args...), exited: make(chan struct{})}
	d.cmd.Stderr = &d.stderr
	// SIGTERM is the daemon's clean shutdown; the context's kill is the
	// fallback.
	d.cmd.Cancel = func() error { return d.cmd.Process.Signal(syscall.SIGTERM) }
	d.cmd.WaitDelay = 5 * time.Second
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), " on http://"); ok {
				banner <- addr
				break
			}
		}
		io.Copy(io.Discard, stdout)
		d.exitErr = d.cmd.Wait()
		close(d.exited)
	}()
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, fmt.Errorf("ripki-served: %w: %s", err, strings.TrimSpace(d.stderr.String()))
	}
	select {
	case d.addr = <-banner:
	case <-d.exited:
		return fail(errors.New("exited before listening"))
	case <-time.After(90 * time.Second):
		return fail(errors.New("no listen banner within 90 s"))
	}
	c, err := dial(d.addr)
	if err != nil {
		return fail(err)
	}
	defer c.close()
	probe, want := getRequest("/healthz"), uint32(0)
	if cache != nil {
		probe, want = getRequest("/v1/snapshot"), cache.Serial()
	}
	for deadline := time.Now().Add(90 * time.Second); ; {
		status, body, err := c.do(probe)
		if err == nil && status == 200 {
			if cache == nil {
				break
			}
			var snap struct {
				Source       string `json:"source"`
				SourceSerial uint32 `json:"source_serial"`
			}
			if json.Unmarshal(body, &snap) == nil && snap.Source == "rtr" && snap.SourceSerial == want {
				break
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fail(errors.New("not ready within 90 s"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.ready = time.Since(t0)
	return d, nil
}

// stop ends the daemon with SIGTERM, its clean shutdown, and waits for
// it; a daemon that does not exit in 10 s is killed. Stopping twice is
// harmless.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	return d.exitErr
}

// domainNames pages through GET /v1/domains for the name at each rank.
func domainNames(c *conn, n int) ([]string, error) {
	names := make([]string, 0, n)
	for len(names) < n {
		status, body, err := c.do(getRequest(fmt.Sprintf("/v1/domains?limit=1000&offset=%d", len(names))))
		if err != nil || status != 200 {
			return nil, fmt.Errorf("GET /v1/domains: status %d: %v", status, err)
		}
		var page struct {
			Domains []struct {
				Name string `json:"name"`
			} `json:"domains"`
		}
		if err := json.Unmarshal(body, &page); err != nil || len(page.Domains) == 0 {
			return nil, fmt.Errorf("GET /v1/domains at offset %d: empty or unparsable page: %v", len(names), err)
		}
		for _, d := range page.Domains {
			names = append(names, d.Name)
		}
	}
	return names, nil
}

// checked is one sampled validate response, kept for the oracle.
type checked struct {
	batch  int
	serial uint32
	states []string
}

// publish is one RTR update the bench made.
type publish struct {
	serial uint32
	at     time.Time
}

// watcher sees every response of a serving run. It fails non-2xx
// responses, keeps one validate response in sampleEvery for the oracle,
// checks serials never go backwards, and times each RTR update from the
// bench's UpdateDelta call to the first response that reflects it.
type watcher struct {
	names []string
	// lastSerial is per sender: one connection's responses are ordered.
	lastSerial []uint32
	seen       []int

	mu       sync.Mutex
	samples  []checked
	pending  []publish
	lags     []float64 // ms
	backward int
	visible  atomic.Uint32 // highest source_serial seen so far
}

const sampleEvery = 100 // one validate response in 100 is checked: 1 %

func newWatcher(senders int, names []string) *watcher {
	return &watcher{names: names, lastSerial: make([]uint32, senders), seen: make([]int, senders)}
}

var serialKey = []byte(`"source_serial":`)

// sourceSerial finds the source_serial field without decoding the body.
func sourceSerial(body []byte) (uint32, bool) {
	i := bytes.Index(body, serialKey)
	if i < 0 {
		return 0, false
	}
	rest := bytes.TrimLeft(body[i+len(serialKey):], " ")
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	n, err := strconv.ParseUint(string(rest[:end]), 10, 32)
	return uint32(n), err == nil
}

func (w *watcher) published(serial uint32, at time.Time) {
	w.mu.Lock()
	w.pending = append(w.pending, publish{serial, at})
	w.mu.Unlock()
}

func (w *watcher) on(sender int, req *request, status int, body []byte, at time.Time) bool {
	if status != 200 {
		return false
	}
	if req.kind == kindDomain {
		w.seen[sender]++
		if w.seen[sender]%sampleEvery != 0 {
			return true
		}
		var v struct {
			Domain string `json:"domain"`
		}
		return json.Unmarshal(body, &v) == nil && v.Domain == w.names[req.id]
	}
	serial, ok := sourceSerial(body)
	if !ok {
		return false
	}
	if serial < w.lastSerial[sender] {
		w.mu.Lock()
		w.backward++
		w.mu.Unlock()
		return false
	}
	w.lastSerial[sender] = serial
	if serial > w.visible.Load() {
		w.mu.Lock()
		if serial > w.visible.Load() {
			w.visible.Store(serial)
			keep := w.pending[:0]
			for _, p := range w.pending {
				if p.serial <= serial {
					w.lags = append(w.lags, ms(at.Sub(p.at)))
				} else {
					keep = append(keep, p)
				}
			}
			w.pending = keep
		}
		w.mu.Unlock()
	}
	w.seen[sender]++
	if w.seen[sender]%sampleEvery != 0 {
		return true
	}
	var resp struct {
		SourceSerial uint32 `json:"source_serial"`
		Results      []struct {
			Prefix string `json:"prefix"`
			ASN    uint32 `json:"asn"`
			State  string `json:"state"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	c := checked{batch: req.id, serial: resp.SourceSerial}
	for _, r := range resp.Results {
		c.states = append(c.states, r.State)
	}
	w.mu.Lock()
	w.samples = append(w.samples, c)
	w.mu.Unlock()
	return true
}

// stateToken is the API's name of an RFC 6811 state ("not found" is
// "notfound" there), made here and not borrowed from the daemon's code.
func stateToken(st vrp.State) string { return strings.ReplaceAll(st.String(), " ", "") }

// verify checks every sampled response against vrp.Set at the serial the
// response states: the samples are sorted by serial and the bench's own
// deltas applied to the oracle set one by one as the serials pass. It
// runs after the clock has stopped and consumes the oracle.
func (w *watcher) verify(rep *report, in *serveInputs) {
	slices.SortStableFunc(w.samples, func(a, b checked) int { return int(a.serial) - int(b.serial) })
	at := uint32(0)
	for _, c := range w.samples {
		for ; at < c.serial && int(at) < len(in.churn); at++ {
			for _, v := range in.churn[at].Announce {
				in.oracle.Add(v)
			}
			for _, v := range in.churn[at].Withdraw {
				in.oracle.Remove(v)
			}
		}
		batch := in.batches[c.batch]
		good := len(c.states) == len(batch) && at == c.serial
		for i := 0; good && i < len(batch); i++ {
			good = c.states[i] == stateToken(in.oracle.Validate(batch[i].Prefix, batch[i].ASN))
		}
		rep.check(good, "validate response for batch %d at source_serial %d disagrees with vrp.Set.Validate", c.batch, c.serial)
	}
	rep.check(w.backward == 0, "%d responses carried a source_serial lower than an earlier one on the same connection", w.backward)
}

// phases is how a serving run's seconds are split, in the order the
// phases run: warm-up (closed loop, discarded), base (open loop at the
// base rate), closed (closed loop on every connection), and the length of
// one ladder step. The end-to-end run spends everything after the warm-up
// on the base phase. The traced run takes the closed-loop rate and, where
// it has a ladder, steps it.
type phases struct{ warm, base, closed, step time.Duration }

func phaseLengths(seconds int, traced bool, ladderSteps int) phases {
	total := time.Duration(seconds) * time.Second
	ph := phases{warm: total * 10 / 100}
	if traced {
		ph.closed = total * 10 / 100
	}
	ph.base = total - ph.warm - ph.closed
	if ladderSteps > 0 {
		ph.base = total * 30 / 100
		ph.step = (total - ph.warm - ph.base - ph.closed) / time.Duration(ladderSteps)
	}
	return ph
}

// serveRun is a daemon under load with everything a phase needs.
type serveRun struct {
	conns []*conn
	reqs  []request
	w     *watcher
	sent  int // requests consumed from reqs so far
}

func (r *serveRun) closed(ctx context.Context, d time.Duration) *phase {
	p := closedLoop(ctx, r.conns, r.reqs, d, r.sent, r.w.on)
	r.sent += p.attempted
	return p
}

func (r *serveRun) open(ctx context.Context, rate float64, d time.Duration) *phase {
	p := openLoop(ctx, r.conns, r.reqs, rate, d, r.sent, r.w.on)
	r.sent += p.attempted
	return p
}

func (r *serveRun) close() {
	for _, c := range r.conns {
		c.close()
	}
}

// churner calls UpdateDelta on the cache every interval until stopped.
func churner(cache *rtrCache, in *serveInputs, w *watcher) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(in.size.churnEvery)
		defer tick.Stop()
		for _, d := range in.churn {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			at := time.Now()
			cache.UpdateDelta(d.Announce, d.Withdraw)
			w.published(cache.Serial(), at)
		}
	}()
	return func() { close(quit); <-done }
}

// churnRounds is how many RTR updates a run of the given length can use,
// every base phase made baseAttempts times.
func churnRounds(size serveSize, seconds int) int {
	return int(time.Duration(baseAttempts*seconds+5)*time.Second/size.churnEvery) + 1
}

// runServe drives a real ripki-served with the generated traffic and
// fills rep: the end-to-end metrics, or with traced set, the metrics the
// traced run takes from the daemon — it is shorter on base and steps the
// rate ladder on serve-validate.
func runServe(ctx context.Context, e *env, churn bool, sz sizes, in *serveInputs, seed int64, seconds int, traced bool, rep *report) error {
	size := sz.serve
	var cache *rtrCache
	var err error
	if churn {
		if cache, err = startRTRCache(in.oracle, uint16(seed)); err != nil {
			return err
		}
		defer cache.stop()
	}

	// Set-up, several times: exec → ready. The last daemon stays.
	setups := sz.setups
	if traced {
		setups = 1
	}
	var d *daemon
	var setupS, readyRSS []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				rep.fail("ripki-served exit: %v", err)
			}
		}
		if d, err = startDaemon(ctx, e, in, seed, cache); err != nil {
			return err
		}
		hwm, err := procPeakRSS(d.cmd.Process.Pid)
		if err != nil {
			return err
		}
		setupS, readyRSS = append(setupS, d.ready.Seconds()), append(readyRSS, hwm)
	}
	defer d.stop()

	run := &serveRun{}
	defer run.close()
	senders := runtime.NumCPU()
	for i := 0; i < senders; i++ {
		c, err := dial(d.addr)
		if err != nil {
			return err
		}
		run.conns = append(run.conns, c)
	}
	names, err := domainNames(run.conns[0], size.domains)
	if err != nil {
		return err
	}
	run.reqs = in.mix(seed, names)
	run.w = newWatcher(senders, names)

	ladderRates := size.ladder
	if !traced || churn {
		ladderRates = nil
	}
	ph := phaseLengths(seconds, traced, len(ladderRates))
	stopChurn := func() {}
	if churn {
		stopChurn = churner(cache, in, run.w)
	}
	run.closed(ctx, ph.warm) // discarded, failures included: it is not measured

	// The base phase. One in which the generator itself ran late measured
	// the generator, or a box that stood still, so it is discarded and
	// made again; the last of baseAttempts stands, INVALID.
	var base *phase
	var served time.Duration
	var lag, share float64
	discarded := 0
	for {
		cpu0, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return err
		}
		base = run.open(ctx, size.baseRate, ph.base)
		cpu1, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return err
		}
		served = cpu1 - cpu0
		// Lateness the system caused is backlog and is in the latency;
		// these two say whether the generator was the limit.
		lag = windowedQuantile(base.schedLag, 0.99, time.Second)
		share = base.selfCPU.Seconds() / (base.elapsed.Seconds() * float64(runtime.NumCPU()))
		var why []string
		if lag > maxSchedLagUS {
			why = append(why, fmt.Sprintf("loadgen.sched_lag_p99_us %.0f > %d in the base phase", lag, maxSchedLagUS))
		}
		if share > maxLoadgenShare {
			why = append(why, fmt.Sprintf("loadgen.cpu_share %.2f > %.2f in the base phase", share, maxLoadgenShare))
		}
		if !sz.validity || len(why) == 0 || ctx.Err() != nil { // -smoke makes no timing assertions
			break
		}
		if discarded == baseAttempts-1 {
			rep.invalid = why
			break
		}
		discarded++
		rep.attempted += base.attempted
		rep.failed += base.failed
		rep.note("base phase discarded and made again: %s", strings.Join(why, "; "))
	}
	measured := []*phase{base}
	var closed *phase // traced run only
	if ph.closed > 0 {
		closed = run.closed(ctx, ph.closed)
		measured = append(measured, closed)
	}
	var ladder []*phase
	for _, rate := range ladderRates {
		ladder = append(ladder, run.open(ctx, rate, ph.step))
	}
	measured = append(measured, ladder...)
	stopChurn()
	if err := ctx.Err(); err != nil {
		return err
	}
	rss, err := procPeakRSS(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		rep.fail("ripki-served exit: %v", err)
	}

	for _, p := range measured {
		rep.attempted += p.attempted
		rep.failed += p.failed
	}
	run.w.verify(rep, in)

	v, dm := base.samples[kindValidate], base.samples[kindDomain]
	rep.note("base: open loop %.0f req/s for %s on %d connections: %d sent, %d failed, achieved %.1f req/s, backlog at end %.2f ms",
		size.baseRate, ph.base, senders, base.attempted, base.failed, base.achieved(), ms(base.backlog))
	validateP50, validateP99 := windowedQuantile(v, 0.5, medianWindow), windowedQuantile(v, 0.99, time.Second)
	domainP50, domainP95 := windowedQuantile(dm, 0.5, medianWindow), windowedQuantile(dm, 0.95, time.Second)
	rep.note("validate_p50_us %.1f  validate_p99_us %.1f (medians over the phase's 100-ms windows of each one's p50, over its seconds of each one's p99; %d samples)",
		validateP50, validateP99, len(v))
	rep.note("domain_p50_us %.1f  domain_p95_us %.1f (likewise; %d samples)", domainP50, domainP95, len(dm))
	if closed != nil {
		rep.note("closed: %d connections for %s: closed_rps %.1f (median second; %.1f over the whole phase), %d failed",
			senders, ph.closed, windowedRate(closed), closed.achieved(), closed.failed)
	}
	rep.note("ripki-served VmHWM %.1f MB at the end of the run, %.1f MB when ready (largest of %d set-ups)", rss, slices.Max(readyRSS), len(readyRSS))
	rep.note("loadgen.sched_lag_p99_us %.1f  loadgen.cpu_share %.3f  oracle-checked responses %d",
		lag, share, len(run.w.samples))
	if churn {
		rep.note("publish_lag_p50_ms %.1f over %d updates (%d never seen)",
			median(run.w.lags), len(run.w.lags), len(run.w.pending))
		rep.check(len(run.w.lags) > 0, "no RTR update became visible in any response")
	}

	// Every number this run measured goes into the report; which of them
	// the JSON line carries is the caller's business.
	m := rep.metrics
	m["validate_p50_us"] = validateP50
	m["validate_p99_us"] = validateP99
	m["domain_p50_us"] = domainP50
	m["domain_p95_us"] = domainP95
	m["served.peak_rss_end_mb"] = rss
	m["served.cpu_ms_per_kreq"] = 1000 * ms(served) / float64(max(1, base.completed()))
	m["loadgen.sched_lag_p99_us"] = lag
	m["loadgen.cpu_share"] = share
	if churn {
		m["publish_lag_p50_ms"] = median(run.w.lags)
	}
	if closed != nil {
		m["closed_rps"] = windowedRate(closed)
	}
	if !traced {
		m["setup_s"] = median(setupS)
		// On a static snapshot the high-water mark under load is the
		// collector's pacing, 290 to 440 MB over ten seeds of one build;
		// what the program needs is what it took to become ready, the
		// largest of the set-ups (it is bimodal, their median flips).
		// Publishing is where memory grows, so serve-churn reports the
		// whole run.
		m["peak_rss_mb"] = slices.Max(readyRSS)
		if churn {
			m["peak_rss_mb"] = rss
		}
	}
	for _, p := range ladder {
		// A step's p99 is taken like the base phase's: the median over
		// its quarter-second windows (≥ 1 100 samples each, so ≥ 11 beyond
		// the percentile). Over the whole of a step this short, one
		// 30-ms stall of the box puts 150 requests beyond the mark.
		all := slices.Concat(p.samples[:]...)
		p99 := windowedQuantile(all, 0.99, ladderWindow)
		pass := p99 <= ladderP99US && p.achieved() >= 0.99*p.offered && p.failed == 0 && p.backlog < ladderBacklog
		rep.note("ladder %5.0f req/s: achieved %7.1f  p50 %6.1f µs  p99 %8.1f µs  failed %d  backlog %6.2f ms  %s",
			p.offered, p.achieved(), windowedQuantile(all, 0.5, ladderWindow), p99, p.failed, ms(p.backlog), map[bool]string{true: "pass", false: "miss"}[pass])
		if pass {
			m["max_rate_rps"] = max(m["max_rate_rps"], p.offered)
		}
	}
	return nil
}

// Window widths of the latency statistics (see windowedQuantile), the
// validity limits of the load generator in the base phase, and the
// ladder's pass marks.
const (
	medianWindow    = 100 * time.Millisecond
	ladderWindow    = 250 * time.Millisecond
	maxSchedLagUS   = 1000
	maxLoadgenShare = 0.5
	baseAttempts    = 3
	ladderP99US     = 5000
	ladderBacklog   = 5 * time.Millisecond
)
