package ripki

// The gated benchmarks `make bench` runs: the paper's pipeline over the
// 100 000-domain study world, the scenario engine's tick and set-up, and
// the RTR and probe paths a tick rides on. allocs/op and B/op are held
// to BENCH_baseline.json; the paper's figures are asserted by
// internal/measure's TestPaperFindingsEmerge, not reported here.

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ripki/internal/dns"
	"ripki/internal/httparchive"
	"ripki/internal/measure"
	"ripki/internal/netutil"
	"ripki/internal/rpki/vrp"
	"ripki/internal/rtr"
	"ripki/internal/sim"
	"ripki/internal/webworld"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
	benchErr   error
)

func setupStudy(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy, benchErr = NewStudy(StudyConfig{Domains: 100000, Seed: 2015})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy
}

// BenchmarkPipeline times the full §3 methodology (steps 2–4) over the
// prebuilt world — the end-to-end measurement cost per run.
func BenchmarkPipeline(b *testing.B) {
	s := setupStudy(b)
	ha := httparchive.New(s.World.CDNSuffixes)
	ha.Limit = s.World.Cfg.Domains * 3 / 10
	cfg := measure.Config{
		Resolver:    dns.RegistryResolver{Registry: s.World.Registry},
		RIB:         s.World.RIB,
		VRPs:        s.VRPs,
		HTTPArchive: ha,
		BinWidth:    s.Dataset.BinWidth,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := measure.Run(s.World.List, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.World.Cfg.Domains)/1000, "kdomains")
}

// BenchmarkSimTick times the scenario engine's hot loop: one virtual
// tick of the roa-churn scenario — scenario events, VRP flush over the
// RTR wire, relying-party refresh, and revalidation (the probe is
// sampled out of the loop).
func BenchmarkSimTick(b *testing.B) {
	tick := 10 * time.Second
	s, err := sim.New(sim.Config{
		Scenario:      "roa-churn",
		Seed:          3,
		Domains:       5000,
		Tick:          tick,
		Duration:      time.Duration(b.N+2) * tick,
		SampleEvery:   1 << 20, // keep the probe out of the measured loop
		SampleDomains: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Step() {
			b.Fatal("simulation ended early")
		}
	}
	b.StopTimer()
	if err := s.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimSetup times a whole short run on a world other runs have
// already used — what a sweep cell costs apart from its ticks, and what
// `sweep-setup` measures end to end. One op clones the 20 000-domain
// snapshot, builds the simulation (cache, RTR sessions, router and probe
// forks, the scenario's Setup), steps twice — the t=0 probe, then the
// first tick's events, flush and refresh, which is where cdn-migration
// first writes DNS — and closes. The world's validation, seeded routers
// and pristine measurement are built once by a warm-up run outside the
// timer, so allocs/op and B/op here are what a run adds to a warm world:
// forks and the run's own changes, nothing that scales with the world.
// baseline changes nothing; cdn-migration lists a CDN's hosts in Setup
// and re-points DNS; trust-anchor-outage reads per-anchor validation.
func BenchmarkSimSetup(b *testing.B) {
	w, err := webworld.Generate(webworld.Config{Seed: 3, Domains: 20000})
	if err != nil {
		b.Fatal(err)
	}
	snap := w.Snapshot()
	run := func(b *testing.B, scenario string) {
		s, err := sim.New(sim.Config{
			Scenario: scenario, Seed: 3, World: snap.Clone(),
			Tick: 30 * time.Second, Duration: 2 * time.Minute, SampleEvery: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Step()
		s.Step()
		if err := s.Err(); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
	for _, scenario := range []string{"baseline", "cdn-migration", "trust-anchor-outage"} {
		run(b, scenario)
		b.Run(scenario, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(b, scenario)
			}
		})
	}
}

// BenchmarkComposedSimTick times the same hot loop under a composed
// scenario: roa-churn's event stream plus rp-lag's validator staircase
// (three RTR clients at 1/5/20-tick lag) in one world — the compound
// workload the composition layer exists for, gated so composition
// overhead in the tick path can never regress silently.
func BenchmarkComposedSimTick(b *testing.B) {
	tick := 10 * time.Second
	s, err := sim.New(sim.Config{
		Scenario:      "roa-churn+rp-lag",
		Seed:          3,
		Domains:       5000,
		Tick:          tick,
		Duration:      time.Duration(b.N+2) * tick,
		SampleEvery:   1 << 20, // keep the probe out of the measured loop
		SampleDomains: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Step() {
			b.Fatal("simulation ended early")
		}
	}
	b.StopTimer()
	if err := s.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRTRChurn times one full cache churn round trip: a real
// Update (diff, delta, serial bump, notify) followed by two connected
// routers completing an incremental sync over TCP.
func BenchmarkRTRChurn(b *testing.B) {
	base := vrp.NewSet()
	for i := 0; i < 1000; i++ {
		v := vrp.VRP{
			Prefix:    netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24),
			MaxLength: 24,
			ASN:       uint32(64500 + i%64),
		}
		if err := base.Add(v); err != nil {
			b.Fatal(err)
		}
	}
	srv := rtr.NewServer(base, 1)
	srv.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	clients := make([]*rtr.Client, 2)
	for i := range clients {
		c, err := rtr.Dial(ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if err := c.Reset(); err != nil {
			b.Fatal(err)
		}
		clients[i] = c
	}
	// Both alternating sets are built outside the loop: Update never
	// mutates the set it is handed, so the timed region is purely the
	// churn round trip (diff, delta, notify, incremental syncs).
	flip := vrp.VRP{Prefix: netutil.MustPrefix("192.0.2.0/24"), MaxLength: 24, ASN: 64999}
	withFlip, err := vrp.FromVRPs(append(base.All(), flip))
	if err != nil {
		b.Fatal(err)
	}
	sets := []*vrp.Set{withFlip, base}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Update(sets[i%2])
		for _, c := range clients {
			if err := c.Poll(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkProbeIncremental times the steady-state probe under low
// churn: one VRP flips per iteration, so each Refresh re-measures only
// the flipped prefix's dirty subtree instead of the whole 5k-domain
// world. This is the O(changes) contract the incremental dataset
// exists for, gated so a regression back toward O(world) cannot land
// silently.
func BenchmarkProbeIncremental(b *testing.B) {
	w, err := webworld.Generate(webworld.Config{Seed: 3, Domains: 5000})
	if err != nil {
		b.Fatal(err)
	}
	set := w.Validation().VRPs.Clone()
	inc, err := measure.NewIncremental(w.List, measure.Config{
		Resolver: dns.RegistryResolver{Registry: w.Registry},
		RIB:      w.RIB,
		VRPs:     set,
		BinWidth: 500,
	})
	if err != nil {
		b.Fatal(err)
	}
	var flip vrp.VRP
	for _, p := range w.RoutedV4Prefixes() {
		origin, ok := w.PinnedOriginOf(p)
		if !ok {
			continue
		}
		v := vrp.VRP{Prefix: p, MaxLength: p.Bits(), ASN: origin}
		if !set.Contains(v) {
			flip = v
			break
		}
	}
	if !flip.Prefix.IsValid() {
		b.Fatal("no uncovered routed prefix to flip")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if err := set.Add(flip); err != nil {
				b.Fatal(err)
			}
		} else {
			set.Remove(flip)
		}
		inc.DirtyVRP(flip.Prefix)
		if err := inc.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTruthSetDelta times the cache's delta-apply path: a
// single-VRP UpdateDelta against a 1000-VRP server — membership check,
// in-place apply, delta record, serial bump — without the full-set
// diff Update pays. The sim's flush rides this on every mutation tick.
func BenchmarkTruthSetDelta(b *testing.B) {
	base := vrp.NewSet()
	for i := 0; i < 1000; i++ {
		v := vrp.VRP{
			Prefix:    netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24),
			MaxLength: 24,
			ASN:       uint32(64500 + i%64),
		}
		if err := base.Add(v); err != nil {
			b.Fatal(err)
		}
	}
	srv := rtr.NewServer(base, 1)
	srv.Logf = func(string, ...any) {}
	flip := vrp.VRP{Prefix: netutil.MustPrefix("192.0.2.0/24"), MaxLength: 24, ASN: 64999}
	announce, withdraw := []vrp.VRP{flip}, []vrp.VRP{flip}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			srv.UpdateDelta(announce, nil)
		} else {
			srv.UpdateDelta(nil, withdraw)
		}
	}
}
