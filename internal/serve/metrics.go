package serve

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ripki/internal/obs"
	"ripki/internal/webworld"
)

// sourceStat is one update source's record, for the staleness gauges
// and the health probe: when a live source was registered (0 for a
// one-shot publisher), and when and at what source serial it last
// published (0 before its first). Fields are atomics: writers hold
// pubMu or register once, scrapes read from any goroutine.
type sourceStat struct {
	liveNS atomic.Int64
	lastNS atomic.Int64
	serial atomic.Uint32
}

// source returns the named source's record, creating it on first use.
func (s *Service) source(name string) *sourceStat {
	v, ok := s.sources.Load(name)
	if !ok {
		v, _ = s.sources.LoadOrStore(name, &sourceStat{})
	}
	return v.(*sourceStat)
}

// buildRegistry assembles the service's scrape document: the
// per-endpoint request counters and latency histograms, uptime, the
// snapshot identity and staleness gauges (computed from live state at
// scrape time) and the per-source staleness gauges.
func (s *Service) buildRegistry() *obs.Registry {
	r := obs.NewRegistry()
	obs.RegisterBuildInfo(r)
	// The request metrics must not put a lock on the read path: they are
	// atomics, and instrument resolves an endpoint's three children once,
	// when the handler is built, so a request takes no map lookup either.
	s.requests = r.CounterVec("ripki_serve_requests_total", "Requests served, by endpoint.", "endpoint")
	s.requestErrors = r.CounterVec("ripki_serve_request_errors_total", "Responses with status >= 400, by endpoint.", "endpoint")
	// Forty bounds, 2^i nanoseconds in seconds: 1 ns .. ~9 min.
	s.durations = r.HistogramVec("ripki_serve_request_duration_seconds",
		"Request latency, by endpoint (power-of-two buckets).", obs.ExpBuckets(1e-9, 2, 40), "endpoint")
	s.eventsTotal = r.CounterVec("ripki_serve_events_total",
		"Incident-feed events recorded, by event_type.", "event_type")
	r.GaugeFunc("ripki_serve_events_last_seq", "Sequence number of the newest incident-feed event (0 when empty).",
		func() float64 {
			s.events.mu.Lock()
			defer s.events.mu.Unlock()
			return float64(s.events.next - 1)
		})
	r.GaugeFunc("ripki_serve_uptime_seconds", "Seconds since the service started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("ripki_serve_domain_table_bytes", "Approximate heap footprint of the packed domain exposure table.",
		func() float64 { return float64(s.domains.MemoryFootprint()) })
	r.Collect(collectMem)
	r.Collect(s.collectStartup)
	r.Collect(s.collectSnapshot)
	return r
}

// Startup is how long a daemon took to become ready — the time an
// operator waits after a restart — and what the time went to. It is
// wall clock, measured once by whoever built the service.
type Startup struct {
	// Generate is world generation, DomainTable is BuildDomainTable,
	// VRPs is obtaining the initial VRP set (reading a CSV export, or
	// validating the world's own repository), Publish the first publish.
	Generate, DomainTable, VRPs, Publish time.Duration
	// Ready is the whole of it, flag parsing to a published snapshot.
	Ready time.Duration
	// GeneratePhases breaks Generate down (webworld.World.Phases), beside
	// the phases above, which still add up to Ready.
	GeneratePhases []webworld.Phase
}

// phases are the four phases under their metric label values.
func (st Startup) phases() [4]webworld.Phase {
	return [4]webworld.Phase{{Name: "generate", D: st.Generate}, {Name: "domain_table", D: st.DomainTable},
		{Name: "vrps", D: st.VRPs}, {Name: "publish", D: st.Publish}}
}

// String renders the figures for a start-up banner.
func (st Startup) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ready in %.2fs (", st.Ready.Seconds())
	for i, p := range st.phases() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.2fs", p.Name, p.D.Seconds())
	}
	b.WriteByte(')')
	return b.String()
}

// SetStartup records the start-up timings behind the
// ripki_serve_startup_seconds and ripki_serve_ready_seconds gauges;
// a service that was never told them exports neither. Set before
// serving traffic.
func (s *Service) SetStartup(st Startup) { s.startup = &st }

// collectStartup renders the start-up gauges. They are set once and
// never change: time-to-ready as the daemon itself measured it, and —
// after the banner, since the daemon listens before its RTR source has
// synced — phase rtr_sync, dial to the first RTR-sourced publish.
func (s *Service) collectStartup(e *obs.Encoder) {
	sync := time.Duration(s.rtrSync.Load())
	if s.startup == nil && sync == 0 {
		return
	}
	e.Family("ripki_serve_startup_seconds", "Wall-clock seconds each start-up phase took.", obs.TypeGauge)
	phase := func(name string, d time.Duration) {
		e.Sample("", []obs.Label{{Name: "phase", Value: name}}, d.Seconds())
	}
	if s.startup != nil {
		for _, p := range s.startup.phases() {
			phase(p.Name, p.D)
		}
	}
	if sync > 0 {
		phase("rtr_sync", sync)
	}
	if s.startup != nil {
		e.Family("ripki_serve_ready_seconds", "Wall-clock seconds from process start to the first published snapshot (time to ready).", obs.TypeGauge)
		e.Sample("", nil, s.startup.Ready.Seconds())
		e.Family("ripki_serve_generate_seconds", "Wall-clock seconds each phase of world generation took (a breakdown of start-up phase generate).", obs.TypeGauge)
		for _, p := range s.startup.GeneratePhases {
			phase(p.Name, p.D)
		}
	}
}

// collectMem renders process memory gauges from runtime.MemStats. The
// CI scale-smoke job gates the million-domain deployment on these — Sys
// is the runtime's RSS upper bound, heap_alloc the live object bytes.
func collectMem(e *obs.Encoder) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.Family("ripki_serve_mem_heap_alloc_bytes", "Live heap bytes (runtime.MemStats.HeapAlloc).", obs.TypeGauge)
	e.Sample("", nil, float64(ms.HeapAlloc))
	e.Family("ripki_serve_mem_sys_bytes", "Bytes obtained from the OS (runtime.MemStats.Sys, an RSS upper bound).", obs.TypeGauge)
	e.Sample("", nil, float64(ms.Sys))
}

// collectSnapshot renders the snapshot and per-source staleness gauges.
func (s *Service) collectSnapshot(e *obs.Encoder) {
	sn := s.Current()
	var serial, vrps, domains float64
	if sn != nil {
		serial = float64(sn.Serial)
		vrps = float64(sn.Index.Len())
		domains = float64(sn.Domains.Len())
	}
	e.Family("ripki_serve_snapshot_serial", "Serial of the published snapshot (0 before the first publish).", obs.TypeGauge)
	e.Sample("", nil, serial)
	e.Family("ripki_serve_snapshot_vrps", "VRPs in the published snapshot.", obs.TypeGauge)
	e.Sample("", nil, vrps)
	e.Family("ripki_serve_snapshot_domains", "Domains in the exposure table.", obs.TypeGauge)
	e.Sample("", nil, domains)

	e.Family("ripki_serve_snapshot_age_seconds", "Seconds since the last snapshot publish, any source (staleness).", obs.TypeGauge)
	if at := s.publishedAt.Load(); at != 0 {
		e.Sample("", nil, time.Since(time.Unix(0, at)).Seconds())
	}

	// Sources that have published; a live source registered but not yet
	// synced has no age or serial to report.
	names := make([]string, 0, 4)
	s.sources.Range(func(k, v any) bool {
		if v.(*sourceStat).lastNS.Load() != 0 {
			names = append(names, k.(string))
		}
		return true
	})
	sort.Strings(names)
	e.Family("ripki_serve_source_update_age_seconds", "Seconds since each update source last published (per-source staleness).", obs.TypeGauge)
	for _, name := range names {
		st, _ := s.sources.Load(name)
		age := time.Since(time.Unix(0, st.(*sourceStat).lastNS.Load())).Seconds()
		e.Sample("", []obs.Label{{Name: "source", Value: name}}, age)
	}
	e.Family("ripki_serve_source_serial", "Each update source's own serial at its last publish (RTR cache serial, sim tick).", obs.TypeGauge)
	for _, name := range names {
		st, _ := s.sources.Load(name)
		e.Sample("", []obs.Label{{Name: "source", Value: name}}, float64(st.(*sourceStat).serial.Load()))
	}
}

// recordPublish updates the staleness trackers; called under pubMu.
func (s *Service) recordPublish(source string, sourceSerial uint32) {
	now := time.Now().UnixNano()
	s.publishedAt.Store(now)
	st := s.source(source)
	st.lastNS.Store(now)
	st.serial.Store(sourceSerial)
}
