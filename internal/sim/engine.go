package sim

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"slices"
	"time"

	"ripki/internal/alexa"
	"ripki/internal/bgp"
	"ripki/internal/dns"
	"ripki/internal/measure"
	"ripki/internal/obs"
	"ripki/internal/rib"
	"ripki/internal/router"
	"ripki/internal/rpki/vrp"
	"ripki/internal/rtr"
	"ripki/internal/webworld"
)

// RP is one relying party: an RTR client (absent for legacy routers)
// feeding an origin-validating router.
type RP struct {
	Spec   RPSpec
	Client *rtr.Client
	Router *router.Router

	source *swapSource
	// synced is the cache state the client's last successful sync ended
	// at; refreshDue polls when the cache has moved on from it.
	synced cacheState
}

// cacheState names what an RTR cache serves. Serials only order states
// within a session, so it takes both.
type cacheState struct {
	session uint16
	serial  uint32
}

// swapSource is the router's VRP view: a snapshot swapped atomically at
// each refresh, so route processing validates against the RP's *last
// synchronised* state, not the cache's live one — the lag the sim
// measures.
type swapSource struct{ set *vrp.Set }

// Set returns the current snapshot.
func (s *swapSource) Set() *vrp.Set { return s.set }

// Hijack is one active attack: a (sub-)prefix announced into every
// relying party's router, and a victim address inside it the probe
// checks forwarding for.
type Hijack struct {
	// Name identifies the campaign in events and for EndHijack.
	Name string
	// Prefix is the announced prefix (typically a more-specific of the
	// victim's).
	Prefix netip.Prefix
	// Path is the announced AS path after the collector peer; the last
	// element is the (possibly forged) origin.
	Path []uint32
	// Victim is the probed address inside Prefix.
	Victim netip.Addr
}

// Simulation is one configured run: the world, the RTR cache, the
// relying parties, the event queue and bus, and the recorded series.
type Simulation struct {
	Cfg   Config
	World *webworld.World
	// Rand is the scenario randomness source: during a scenario's Setup
	// it is that component's own splitmix64-derived stream (see
	// ComponentSeed), identical whether the scenario runs alone or
	// composed. Scenarios whose events draw randomness after Setup must
	// capture it in a local during Setup.
	Rand   *rand.Rand
	Queue  *Queue
	Bus    *Bus
	Server *rtr.Server
	RPs    []*RP
	Series *TimeSeries

	// vantage is the collector peer injected routes are heard from.
	vantage rib.Peer
	// truth is the ground-truth VRP set, maintained by delta-apply: this
	// run's own O(1) clone of the world's memoised validation (which is
	// shared across sweep cells), edited in place.
	truth    *vrp.Set
	truthGen uint64 // bumped on every truth mutation; see TruthGen
	dirty    bool
	outage   bool // cold cache restart in progress: no flushes

	// pending accumulates the VRPs touched since the last flush so the
	// cache can be updated by delta, needFull forces the next flush onto
	// the full-set path after a cold restart emptied the cache, and inc
	// is the probe's incremental dataset: a fork of the world's pristine
	// measurement, taken before Setup (see probeDataset).
	needFull bool
	pending  map[vrp.VRP]bool // desired membership of touched VRPs
	inc      *measure.Incremental
	start    time.Time
	now      time.Time
	end      time.Time
	tick     int
	session  uint16
	err      error
	headCut  int
	hijacks  []*Hijack
	closed   bool

	trace       *obs.Trace
	hijackStart map[string]time.Duration

	work workCounts
}

// workCounts tallies what the refresh path did over the run, in units
// that are functions of seed and config alone (no clocks): the pair
// "re-applied N, flipped 0" is how wasted revalidation shows, "polls
// skipped" how often an RP was already at the cache's state.
type workCounts struct {
	polls        int // refreshes that went to the wire
	pollsSkipped int // refreshes that found the RP at the cache's state
	reapplied    int // Adj-RIB-In routes revalidation examined
	flipped      int // of those, routes whose decision changed
	marked       int // domain marks mutations left on the probe's dataset
	measured     int // domains the probe's dataset measured for this run
}

// New builds a simulation: generates (or adopts) the world, validates
// its RPKI into the ground-truth VRP state, starts an RTR cache over
// loopback TCP, connects the relying parties and forks each one's
// router and the probe's dataset from the world's templates, and runs
// the scenario's Setup. Call Run (or Step) next, then Close.
// Validation, seeding and the first measurement are per world (memoised
// on it and shared by its clones); the cache, the sessions, the forks
// and everything after are per run.
func New(cfg Config) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.World != nil {
		// An adopted world is the size it is.
		if n := cfg.World.Cfg.Domains; cfg.Domains == 0 {
			cfg.Domains = n
		} else if cfg.Domains != n {
			return nil, fmt.Errorf("sim: Config.Domains is %d, the adopted world has %d", cfg.Domains, n)
		}
	}
	cfg = cfg.WithDefaults()
	if cfg.Scenario == "" {
		cfg.Scenario = "baseline"
	}
	scenario, err := NewScenario(cfg.Scenario, cfg.Params)
	if err != nil {
		return nil, err
	}
	world := cfg.World
	if world == nil {
		world, err = webworld.Generate(webworld.Config{Seed: cfg.Seed, Domains: cfg.Domains})
		if err != nil {
			return nil, fmt.Errorf("sim: generating world: %w", err)
		}
	}
	// Memoized per generated world: clones of a shared world (sweep's
	// shared-world mode) pay certificate-path validation once, not per
	// cell.
	validation := world.Validation()

	s := &Simulation{
		Cfg:     cfg,
		World:   world,
		Rand:    rand.New(rand.NewSource(cfg.Seed)),
		Queue:   NewQueue(),
		Bus:     NewBus(),
		truth:   validation.VRPs.Clone(),
		pending: make(map[vrp.VRP]bool),
		start:   world.MeasureTime(),
		session: uint16(cfg.Seed),
		headCut: measure.HeadCut(cfg.Domains),
	}
	s.now = s.start
	s.end = s.start.Add(cfg.Duration)
	if peers := world.RIB.Peers(); len(peers) > 0 {
		s.vantage = peers[0]
	}

	// The cache, served over loopback TCP so the real RTR wire path
	// (PDUs, serials, deltas, session resets) is exercised end to end.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("sim: listening: %w", err)
	}
	s.Server = rtr.NewServer(validation.VRPs, s.session)
	s.Server.Logf = func(string, ...any) {} // connection teardown noise
	go s.Server.Serve(ln)

	// Relying parties: the components' rosters merged by RP name, else the
	// builtin one.
	specs := scenario.DefaultRPs()
	if specs == nil {
		specs = DefaultRPs()
	}
	for _, spec := range specs {
		rp := &RP{Spec: spec, source: &swapSource{set: vrp.NewSet()}}
		s.RPs = append(s.RPs, rp)
		if spec.RefreshTicks > 0 {
			client, err := rtr.Dial(ln.Addr().String())
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("sim: dialing cache: %w", err)
			}
			rp.Client = client
			if err := client.Reset(); err != nil {
				s.Close()
				return nil, fmt.Errorf("sim: initial sync for %s: %w", spec.Name, err)
			}
			// The router below is forked from one validated against the
			// world's set, not against what came over the wire; the wire
			// is lossless, and the count is what checking that costs O(1).
			if got, want := client.Len(), validation.VRPs.Len(); got != want {
				s.Close()
				return nil, fmt.Errorf("sim: initial sync for %s: %d VRPs, cache serves %d", spec.Name, got, want)
			}
			rp.source.set = client.View()
			rp.synced = cacheState{s.session, client.Serial()}
			// The initial Reset marked every synced prefix as changed;
			// the router is seeded against this state, so the first
			// delta-scoped revalidation must not replay it.
			client.TakeDelta()
		}
		// Every RP of every run on this world starts from the same routing
		// table and one of two VRP views, so the seeded router is built
		// once per world and forked here in O(1).
		rp.Router = seededRouter(world, spec.Policy, rp.Client != nil).Fork(rp.source)
	}

	// Runs are labelled by the canonical spec (components in sorted-name
	// order; a single scenario's spec is its name), so "rp-lag+roa-churn"
	// and "roa-churn+rp-lag" produce byte-identical output.
	s.Series = &TimeSeries{
		Scenario: scenario.Name(),
		Seed:     cfg.Seed,
		Meta: fmt.Sprintf("domains=%d tick=%s duration=%s sample_every=%d sample_domains=%d",
			cfg.Domains, cfg.Tick, cfg.Duration, cfg.SampleEvery, cfg.SampleDomains),
		Columns: s.columns(),
	}
	s.Bus.SubscribeAll(func(e Event) { s.Series.Events = append(s.Series.Events, e) })

	// Recurring engine events: flush each tick, one refresh dispatcher
	// each tick (polling every RP whose cadence lands on that tick),
	// probe at the sample cadence (including a t=0 baseline).
	s.recur(s.start.Add(cfg.Tick), cfg.Tick, classFlush, s.flush)
	for _, rp := range s.RPs {
		if rp.Client != nil {
			s.recur(s.start.Add(cfg.Tick), cfg.Tick, classRefresh, s.refreshDue)
			break
		}
	}
	s.recur(s.start, time.Duration(cfg.SampleEvery)*cfg.Tick, classProbe, s.probe)

	// The probe's dataset exists before Setup runs, so that whatever
	// Setup issues, revokes or re-points marks it like any later event
	// and the t=0 probe is a Refresh like every other. DNS mutations
	// (scenarios re-point CDN chains and cache hosts) reach its dirty set
	// through the registry hook. The registry is this run's own (sweep
	// shared-world mode hands each cell a clone, and clones do not
	// inherit hooks), so the hook does not leak across simulations;
	// Close detaches it.
	if s.inc, err = s.probeDataset(); err != nil {
		s.Close()
		return nil, fmt.Errorf("sim: probe: %w", err)
	}
	s.World.Registry.SetMutationHook(s.inc.DirtyHost)

	// Composite.Setup repoints Rand at each component's derived stream in
	// turn — single scenarios included, so a component behaves
	// identically alone or composed.
	if err := scenario.Setup(s); err != nil {
		s.Close()
		return nil, fmt.Errorf("sim: scenario %s setup: %w", cfg.Scenario, err)
	}
	return s, nil
}

// seedKey names one seeded router on the world's memo. Seeded state is
// a function of the world's routing table, the policy, and the VRP view
// the routes were validated against — of which a run's start knows two:
// the world's validated set (an RP just synced) and nothing (a router
// with no RTR session).
type seedKey struct {
	policy router.Policy
	synced bool
}

// seededRouter returns the world's router for (policy, synced) with the
// whole routing table already processed: built on first use, kept on
// the world's memo, and never written again — callers Fork it.
func seededRouter(world *webworld.World, policy router.Policy, synced bool) *router.Router {
	return world.Derived(seedKey{policy, synced}, func() any {
		set := vrp.NewSet()
		if synced {
			set = world.Validation().VRPs
		}
		return router.NewFromTable(world.RIB, router.StaticVRPs{VRPs: set}, policy)
	}).(*router.Router)
}

// columns builds the time-series header for the configured RP roster.
func (s *Simulation) columns() []string {
	cols := []string{"t", "tick", "serial", "vrps"}
	for _, rp := range s.RPs {
		if rp.Client != nil {
			cols = append(cols, "vrps_"+rp.Spec.Name)
		}
	}
	cols = append(cols, "valid", "invalid", "notfound", "coverage", "head_valid", "tail_valid", "hijacks")
	for _, rp := range s.RPs {
		cols = append(cols, "hijacked_"+rp.Spec.Name)
	}
	return cols
}

// probeKey names the pristine probe dataset on the world's memo: the
// measurement of the generated world is a function of the sample drawn
// and the head/tail cut the figures bin by.
type probeKey struct{ sampleDomains, headCut int }

type probeResult struct {
	inc *measure.Incremental
	err error
}

// probeDataset returns this run's probe dataset, measured against the
// world as it stands: a fork of the world's pristine measurement, which
// is built on first use, kept on the world's memo and never refreshed —
// every run on the world forks it in O(1) and copies rows or indexes
// only once it re-measures or re-indexes a domain. That measurement is of
// the generated DNS, so it stands in only while this run's registry is
// still unwritten; on an adopted world an earlier run has edited, the
// same constructor measures the registry as it is now, for this run
// alone.
func (s *Simulation) probeDataset() (*measure.Incremental, error) {
	world, n, cut := s.World, s.Cfg.SampleDomains, s.headCut
	build := func(registry *dns.Registry, vrps *vrp.Set) (*measure.Incremental, error) {
		return measure.NewIncremental(sampleList(world.List, n), measure.Config{
			Resolver: dns.RegistryResolver{Registry: registry},
			RIB:      world.RIB,
			VRPs:     vrps,
			BinWidth: cut,
		})
	}
	if world.Registry.Written() {
		return build(world.Registry, s.truth)
	}
	base := world.Derived(probeKey{n, cut}, func() any {
		// A clone of its own: the run that happens to build the base may
		// write its registry later.
		inc, err := build(world.Registry.Clone(), world.Validation().VRPs)
		return probeResult{inc, err}
	}).(probeResult)
	if base.err != nil {
		return nil, base.err
	}
	return base.inc.Fork(dns.RegistryResolver{Registry: world.Registry}, s.truth), nil
}

// sampleList builds the probe's rank-stratified sample of n domains: the
// top ranks fully, then an even stride through the tail — every domain
// keeps its original rank so head/tail bucketing stays meaningful.
func sampleList(list *alexa.List, n int) *alexa.List {
	entries := list.Entries()
	if n >= len(entries) {
		return list
	}
	topK := n / 3
	sample := make([]alexa.Entry, 0, n)
	sample = append(sample, entries[:topK]...)
	rest := n - topK
	stride := (len(entries) - topK) / rest
	if stride < 1 {
		stride = 1
	}
	for i := topK; i < len(entries) && len(sample) < n; i += stride {
		sample = append(sample, entries[i])
	}
	return alexa.FromEntries(sample)
}

// recur schedules fn at `first` and then every `every`, until the
// horizon.
func (s *Simulation) recur(first time.Time, every time.Duration, class int, fn func()) {
	var schedule func(at time.Time)
	schedule = func(at time.Time) {
		s.Queue.At(at, class, func() {
			fn()
			next := at.Add(every)
			if !next.After(s.end) {
				schedule(next)
			}
		})
	}
	if !first.After(s.end) {
		schedule(first)
	}
}

// fail records the first error; the run stops at the next Step.
func (s *Simulation) fail(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

// Err returns the first error encountered while running.
func (s *Simulation) Err() error { return s.err }

// T returns the virtual offset since the start of the run.
func (s *Simulation) T() time.Duration { return s.now.Sub(s.start) }

// Tick returns the current tick number.
func (s *Simulation) Tick() int { return s.tick }

// Step advances the clock by one tick, running every due event in
// deterministic order. It returns false once the horizon is passed or an
// error occurred.
func (s *Simulation) Step() bool {
	if s.closed || s.err != nil || s.now.After(s.end) {
		return false
	}
	s.Queue.RunDue(s.now)
	s.now = s.now.Add(s.Cfg.Tick)
	s.tick++
	return s.err == nil && !s.now.After(s.end)
}

// Run steps the simulation to its horizon and returns the recorded
// series. The simulation stays open (for inspection); call Close when
// done.
func (s *Simulation) Run() (*TimeSeries, error) {
	for s.Step() {
	}
	return s.Series, s.err
}

// Close shuts down the cache, the listener, and every RP session.
func (s *Simulation) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.closeTrace()
	s.World.Registry.SetMutationHook(nil)
	for _, rp := range s.RPs {
		if rp.Client != nil {
			rp.Client.Close()
		}
	}
	return s.Server.Close()
}

// --- scenario API ------------------------------------------------------

// At schedules a scenario event at an absolute virtual instant. Events
// scheduled in the past run at the next tick (still before that tick's
// flush/refresh/probe).
func (s *Simulation) At(at time.Time, fn func()) {
	s.Queue.At(at, classScenario, fn)
}

// AtFrac schedules a scenario event at a fraction of the run's duration
// (0 = start, 1 = horizon), snapped to nothing — the queue orders it
// against tick events by time and class.
func (s *Simulation) AtFrac(frac float64, fn func()) {
	s.At(s.start.Add(time.Duration(frac*float64(s.Cfg.Duration))), fn)
}

// Every schedules fn at the given period, starting one period in, until
// the horizon.
func (s *Simulation) Every(d time.Duration, fn func()) {
	s.recur(s.start.Add(d), d, classScenario, fn)
}

// EveryTick schedules fn every n ticks, starting at tick n.
func (s *Simulation) EveryTick(n int, fn func()) {
	s.Every(time.Duration(n)*s.Cfg.Tick, fn)
}

// Publish emits a bus event stamped with the current virtual time.
func (s *Simulation) Publish(topic Topic, detail string, data any) {
	s.Bus.Publish(Event{Topic: topic, T: s.T(), Detail: detail, Data: data})
}

// HasVRP reports whether the ground truth currently contains v.
func (s *Simulation) HasVRP(v vrp.VRP) bool { return s.truth.Contains(v) }

// TruthVRPs returns the ground-truth VRPs, sorted.
func (s *Simulation) TruthVRPs() []vrp.VRP { return s.truth.All() }

// TruthSet returns the ground truth as a queryable set. The returned
// set must be treated as read-only, and it is live — later truth
// mutations edit it in place rather than producing a fresh set — so
// callers that need a frozen view must Clone it, and callers that need
// to detect change must compare TruthGen values, not pointers.
func (s *Simulation) TruthSet() *vrp.Set { return s.truth }

// TruthGen is a generation counter bumped on every ground-truth
// mutation. It is the change-detection contract for TruthSet: the
// engine maintains the set by in-place delta-apply, so the pointer
// stays stable across mutations and only the generation moves.
func (s *Simulation) TruthGen() uint64 { return s.truthGen }

// ROAData is the typed payload on TopicROA events: the VRP that moved,
// which way, and the scenario's stated reason.
type ROAData struct {
	VRP    vrp.VRP
	Revoke bool
	Reason string
}

// IssueVRP adds a validated ROA payload to the ground truth; the change
// reaches relying parties at the next flush + their next refresh.
func (s *Simulation) IssueVRP(v vrp.VRP, detail string) {
	if s.truth.Contains(v) {
		return
	}
	if err := s.truth.Add(v); err != nil {
		s.fail(fmt.Errorf("sim: issuing %v: %w", v, err))
		return
	}
	s.dirty = true
	s.truthGen++
	s.pending[v] = true
	s.inc.DirtyVRP(v.Prefix)
	s.Publish(TopicROA, fmt.Sprintf("issue %v (%s)", v, detail), ROAData{VRP: v, Reason: detail})
}

// RevokeVRP removes a payload from the ground truth.
func (s *Simulation) RevokeVRP(v vrp.VRP, detail string) {
	if !s.truth.Contains(v) {
		return
	}
	s.truth.Remove(v)
	s.dirty = true
	s.truthGen++
	s.pending[v] = false
	s.inc.DirtyVRP(v.Prefix)
	s.Publish(TopicROA, fmt.Sprintf("revoke %v (%s)", v, detail), ROAData{VRP: v, Revoke: true, Reason: detail})
}

// routeEvent builds a collector route event from the first vantage peer.
func (s *Simulation) routeEvent(prefix netip.Prefix, path []uint32, withdraw bool) bgp.RouteEvent {
	peer := s.vantage
	asns := append([]uint32{peer.ASN}, path...)
	return bgp.RouteEvent{
		PeerAS:   peer.ASN,
		PeerID:   peer.BGPID,
		Prefix:   prefix,
		Path:     []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: asns}},
		NextHop:  peer.Addr,
		Withdraw: withdraw,
	}
}

// RouteData is the typed payload on TopicBGP events. When the route
// belongs to a tracked hijack campaign, Hijack carries its name and
// Victim the probed address.
type RouteData struct {
	Prefix   netip.Prefix
	Path     []uint32
	Withdraw bool
	Hijack   string
	Victim   netip.Addr
}

// announceRoute injects a route announcement into every relying party's
// router (path is the AS path after the collector peer; the last element
// is the origin).
func (s *Simulation) announceRoute(prefix netip.Prefix, path []uint32, detail string, data RouteData) {
	ev := s.routeEvent(prefix, path, false)
	for _, rp := range s.RPs {
		if _, err := rp.Router.Process(ev); err != nil {
			s.fail(err)
			return
		}
	}
	s.Publish(TopicBGP, fmt.Sprintf("announce %v path %v (%s)", prefix, path, detail), data)
}

// withdrawRoute removes a previously announced route from every router.
func (s *Simulation) withdrawRoute(prefix netip.Prefix, detail string, data RouteData) {
	ev := s.routeEvent(prefix, nil, true)
	for _, rp := range s.RPs {
		if _, err := rp.Router.Process(ev); err != nil {
			s.fail(err)
			return
		}
	}
	s.Publish(TopicBGP, fmt.Sprintf("withdraw %v (%s)", prefix, detail), data)
}

// StartHijack announces the hijack into every router and tracks it; the
// probe then records, per router, whether traffic to the victim address
// actually flows to the hijacked prefix.
func (s *Simulation) StartHijack(h Hijack) {
	hh := h
	s.hijacks = append(s.hijacks, &hh)
	if s.trace != nil {
		s.hijackStart[h.Name] = s.T()
	}
	s.announceRoute(h.Prefix, h.Path, "hijack "+h.Name,
		RouteData{Prefix: h.Prefix, Path: h.Path, Hijack: h.Name, Victim: h.Victim})
}

// EndHijack withdraws the named hijack.
func (s *Simulation) EndHijack(name string) {
	for i, h := range s.hijacks {
		if h.Name == name {
			s.withdrawRoute(h.Prefix, "hijack "+name+" ends",
				RouteData{Prefix: h.Prefix, Withdraw: true, Hijack: name, Victim: h.Victim})
			s.hijacks = append(s.hijacks[:i], s.hijacks[i+1:]...)
			if start, ok := s.hijackStart[name]; ok {
				s.trace.Span(start, s.T()-start, "hijack", name)
				delete(s.hijackStart, name)
			}
			return
		}
	}
}

// RestartData is the typed payload on TopicRTR cache-restart events;
// Recovered marks the end of a cold restart's revalidation window.
type RestartData struct {
	Cold      bool
	Recovered bool
}

// RestartCache simulates an RTR cache restart: new session ID, serial
// zero, delta history gone. With cold=true the cache also comes back
// empty — it must revalidate the repository before it can serve
// payloads again, so clients that refresh during the two-tick
// revalidation window sync an empty set and briefly validate nothing.
func (s *Simulation) RestartCache(cold bool) {
	s.session++
	s.Server.ResetSession(s.session)
	detail := "cache restart (warm)"
	if cold {
		s.Server.Update(vrp.NewSet())
		s.outage = true
		// The cache lost its payloads, so the accumulated pending delta
		// no longer describes the distance to the served set: the flush
		// after recovery must push the full truth.
		s.needFull = true
		detail = "cache restart (cold: serving empty until revalidation)"
		s.Queue.At(s.now.Add(2*s.Cfg.Tick), classScenario, func() {
			s.outage = false
			s.dirty = true
			s.Publish(TopicRTR, "cache revalidation complete, refilling", RestartData{Cold: true, Recovered: true})
		})
	}
	s.Publish(TopicRTR, detail, RestartData{Cold: cold})
}

// flush pushes the ground truth to the cache when it changed this tick.
// During a cold-restart outage the cache has nothing validated to serve,
// so flushes are held back until revalidation completes. The
// accumulated pending delta is applied rather than the full set diffed,
// except after a cold restart (needFull); both server paths no-op
// identically on a net-zero change, so the serial sequence — and every
// byte downstream — is the same either way.
func (s *Simulation) flush() {
	if !s.dirty || s.outage {
		return
	}
	if s.needFull {
		s.Server.Update(s.truth)
		s.needFull = false
	} else {
		var ann, wd []vrp.VRP
		for v, want := range s.pending {
			if want {
				ann = append(ann, v)
			} else {
				wd = append(wd, v)
			}
		}
		slices.SortFunc(ann, vrp.Compare)
		slices.SortFunc(wd, vrp.Compare)
		s.Server.UpdateDelta(ann, wd)
	}
	clear(s.pending)
	s.dirty = false
	vrps := s.truth.Len()
	s.Publish(TopicRTR, fmt.Sprintf("flush serial=%d vrps=%d", s.Server.Serial(), vrps),
		FlushData{Serial: s.Server.Serial(), VRPs: vrps})
}

// FlushData is the typed payload on TopicRTR flush events: the cache
// serial and payload count the flush published.
type FlushData struct {
	Serial uint32
	VRPs   int
}

// RefreshData is the typed payload on TopicRP refresh events: which
// relying party polled, the serial and payload count it synchronised,
// and how many now-invalid routes revalidation dropped.
type RefreshData struct {
	RP      string
	Serial  uint32
	VRPs    int
	Dropped int
}

// refreshDue runs the poll + revalidation cycle for every relying party
// whose cadence lands on this tick, in roster order and in one pass: each
// RP is polled, counted and its refresh event published before the next
// is polled. A poll that fails is counted, fails the run and publishes
// nothing for that RP; the others go on. Each RP revalidates only the
// routes under the prefixes its poll actually changed; a full-resync
// fallback (session reset, delta history gone) marks everything and
// degrades gracefully to the complete Adj-RIB-In.
//
// An RP whose last sync ended at the (session, serial) the cache is
// serving now is not polled: the engine owns both ends of the session,
// and for that query the cache's answer is an empty Cache Response /
// End of Data confirming the serial — no record, nothing to revalidate,
// the same refresh event. Whatever moves the cache (a flush, a restart)
// moves its state off the RP's, and the next refresh goes to the wire,
// which stays the only way payloads reach a relying party.
func (s *Simulation) refreshDue() {
	serving := cacheState{s.session, s.Server.Serial()}
	for _, rp := range s.RPs {
		if rp.Client == nil || s.tick%rp.Spec.RefreshTicks != 0 {
			continue
		}
		var res router.RevalidationResult
		if rp.synced == serving {
			s.work.pollsSkipped++
		} else {
			s.work.polls++
			if err := rp.Client.Poll(); err != nil {
				s.fail(fmt.Errorf("sim: %s poll: %w", rp.Spec.Name, err))
				continue
			}
			rp.synced = cacheState{serving.session, rp.Client.Serial()}
			changed := rp.Client.TakeDelta()
			rp.source.set = rp.Client.View()
			res = rp.Router.RevalidateAffected(changed)
			s.work.reapplied += res.Routes
			s.work.flipped += res.Flipped
		}
		serial, vrps := rp.Client.Serial(), rp.Client.Len()
		s.Publish(TopicRP, fmt.Sprintf("%s refresh serial=%d vrps=%d dropped=%d",
			rp.Spec.Name, serial, vrps, res.Dropped),
			RefreshData{RP: rp.Spec.Name, Serial: serial, VRPs: vrps, Dropped: res.Dropped})
	}
}

// probe records one time-series row. The measured exposure columns
// (valid/invalid/notfound/coverage/head/tail) are computed against the
// *ground truth* — what a fully synchronised validator would see. Lag
// and outages are deliberately not mixed in here: per-RP cache state
// shows up in the vrps_* columns and its routing consequences in the
// hijacked_* columns.
func (s *Simulation) probe() {
	if err := s.inc.Refresh(); err != nil {
		s.fail(fmt.Errorf("sim: probe: %w", err))
		return
	}
	s.work.marked, s.work.measured = s.inc.Marked(), s.inc.Measured()
	snap := measure.Snapshot(s.inc.Dataset(), s.headCut)

	row := []float64{
		s.T().Seconds(),
		float64(s.tick),
		float64(s.Server.Serial()),
		float64(s.truth.Len()),
	}
	// The per-RP columns — synced payload counts, then hijack-forward
	// outcomes — are sampled in roster order. Campaigns can share a
	// victim, and which do is a property of the campaigns, not of the RP:
	// the distinct victims are listed once, and each router resolves each
	// once per tick.
	type rpSample struct {
		vrps      int
		hasClient bool
		hijacked  int
	}
	var victims []netip.Addr
	victimOf := make([]int, len(s.hijacks))
	for i, h := range s.hijacks {
		if victimOf[i] = slices.Index(victims, h.Victim); victimOf[i] < 0 {
			victimOf[i], victims = len(victims), append(victims, h.Victim)
		}
	}
	samples := make([]rpSample, len(s.RPs))
	for i, rp := range s.RPs {
		if rp.Client != nil {
			samples[i] = rpSample{vrps: rp.Client.Len(), hasClient: true}
		}
		// Where each victim's traffic goes; the zero prefix, which no
		// campaign announces, when nothing routes it.
		var buf [8]netip.Prefix
		fwd := buf[:0]
		for _, victim := range victims {
			po, _ := rp.Router.Forward(victim)
			fwd = append(fwd, po.Prefix)
		}
		for j, h := range s.hijacks {
			if fwd[victimOf[j]] == h.Prefix {
				samples[i].hijacked++
			}
		}
	}
	for _, sm := range samples {
		if sm.hasClient {
			row = append(row, float64(sm.vrps))
		}
	}
	row = append(row, snap.Valid, snap.Invalid, snap.NotFound, snap.Coverage,
		snap.HeadValid, snap.TailValid, float64(len(s.hijacks)))
	for _, sm := range samples {
		row = append(row, float64(sm.hijacked))
	}
	s.Series.Add(row)
	s.Publish(TopicSample, fmt.Sprintf("tick=%d valid=%.4f hijacks=%d", s.tick, snap.Valid, len(s.hijacks)),
		SampleData{
			Tick:     s.tick,
			Serial:   s.Server.Serial(),
			VRPs:     s.truth.Len(),
			Valid:    snap.Valid,
			Invalid:  snap.Invalid,
			NotFound: snap.NotFound,
			Coverage: snap.Coverage,
			Hijacks:  len(s.hijacks),
		})
}

// RunScenarioContext is the one-call entry point: build, run, close,
// return the series. Cancellation is checked between ticks, so an in-flight simulation stops within one
// tick of ctx ending (Ctrl-C in a sweep, a dropped distributed-sweep
// coordinator) instead of running to its horizon. A cancelled run
// returns ctx's error and no series.
func RunScenarioContext(ctx context.Context, cfg Config) (*TimeSeries, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for s.Step() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return s.Series, s.err
}
