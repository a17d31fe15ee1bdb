package ripki

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index, E1..E8).
// Each benchmark times the analysis and, on the first iteration,
// reports the headline values of the reproduced result as custom
// metrics, so `go test -bench . -benchmem` doubles as the reproduction
// log (captured into bench_output.txt).
//
// The world size defaults to 100k domains (a tenth of the paper's 1M;
// the shapes are scale-stable — see BenchmarkAblationScale). Set
// RIPKI_BENCH_DOMAINS=1000000 to run at full paper scale.

import (
	"fmt"
	"math"
	"net"
	"net/netip"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"ripki/internal/bgp"
	"ripki/internal/dns"
	"ripki/internal/httparchive"
	"ripki/internal/measure"
	"ripki/internal/netutil"
	"ripki/internal/router"
	"ripki/internal/rpki/vrp"
	"ripki/internal/rtr"
	"ripki/internal/stats"
	"ripki/internal/webworld"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
	benchErr   error
)

func benchDomains() int {
	if s := os.Getenv("RIPKI_BENCH_DOMAINS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 100000
}

func setupStudy(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy, benchErr = NewStudy(StudyConfig{Domains: benchDomains(), Seed: 2015})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy
}

func meanY(ps []stats.Point) float64 {
	var sum, n float64
	for _, p := range ps {
		if !math.IsNaN(p.Y) {
			sum += p.Y
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / n
}

func headTail(ps []stats.Point) (head, tail float64) {
	k := len(ps) / 10
	if k == 0 {
		k = 1
	}
	return meanY(ps[:k]), meanY(ps[len(ps)-k:])
}

// BenchmarkFigure1 regenerates Figure 1 (equal prefixes between www and
// w/o-www names). Paper: >76% in the first 100k ranks, >94% beyond.
func BenchmarkFigure1(b *testing.B) {
	s := setupStudy(b)
	var fig *Figure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Figure1()
	}
	head, tail := headTail(fig.Series[0].Points)
	b.ReportMetric(head*100, "headEqual%")
	b.ReportMetric(tail*100, "tailEqual%")
}

// BenchmarkFigure2 regenerates Figure 2 (validation outcome by rank).
// Paper: valid ≈4.0% in the top 100k rising to ≈5.5%; invalid ≈0.09%
// flat; not found ≈93–96%.
func BenchmarkFigure2(b *testing.B) {
	s := setupStudy(b)
	var fig *Figure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Figure2(VariantWWW)
	}
	headValid, tailValid := headTail(fig.Series[0].Points)
	b.ReportMetric(headValid*100, "headValid%")
	b.ReportMetric(tailValid*100, "tailValid%")
	b.ReportMetric(meanY(fig.Series[1].Points)*100, "invalid%")
	b.ReportMetric(meanY(fig.Series[2].Points)*100, "notfound%")
}

// BenchmarkFigure3 regenerates Figure 3 (CDN popularity, two
// heuristics). Paper: both decay with rank; HTTPArchive sits above the
// conservative indirection heuristic.
func BenchmarkFigure3(b *testing.B) {
	s := setupStudy(b)
	var fig *Figure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Figure3()
	}
	haHead, _ := headTail(fig.Series[0].Points)
	chHead, chTail := headTail(fig.Series[1].Points)
	b.ReportMetric(haHead*100, "httparchiveHead%")
	b.ReportMetric(chHead*100, "chainHead%")
	b.ReportMetric(chTail*100, "chainTail%")
}

// BenchmarkFigure4 regenerates Figure 4 (RPKI-enabled: overall vs
// CDN-hosted). Paper: CDN-hosted fluctuates around 0.9%, an order of
// magnitude below the overall deployment.
func BenchmarkFigure4(b *testing.B) {
	s := setupStudy(b)
	var fig *Figure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Figure4(VariantWWW)
	}
	b.ReportMetric(meanY(fig.Series[0].Points)*100, "overall%")
	b.ReportMetric(meanY(fig.Series[1].Points)*100, "cdnHosted%")
}

// BenchmarkTable1 regenerates Table 1 (top covered domains).
func BenchmarkTable1(b *testing.B) {
	s := setupStudy(b)
	var tbl *Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl = s.Table1(10)
	}
	b.ReportMetric(float64(len(tbl.Rows)), "rows")
}

// BenchmarkCDNStudy regenerates the §4.2 analysis. Paper: 199 CDN ASes,
// 4 RPKI prefixes tied to 3 origin ASes, all Internap's.
func BenchmarkCDNStudy(b *testing.B) {
	s := setupStudy(b)
	var rows []CDNStudyRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = s.CDNStudy()
	}
	ases, prefixes, origins := 0, 0, 0
	for _, r := range rows {
		ases += r.ASes
		prefixes += r.RPKIPrefix
		origins += r.RPKIASes
	}
	b.ReportMetric(float64(ases), "cdnASes")
	b.ReportMetric(float64(prefixes), "rpkiPrefixes")
	b.ReportMetric(float64(origins), "rpkiOrigins")
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

// BenchmarkWorldGen times synthetic-world generation (the substitute
// for the paper's data collection).
func BenchmarkWorldGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := webworld.Generate(webworld.Config{Seed: int64(i), Domains: 20000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPKIValidation times relying-party validation of the world's
// full repository (step 4's crypto).
func BenchmarkRPKIValidation(b *testing.B) {
	s := setupStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.World.Repo.Validate(s.World.MeasureTime())
		if res.VRPs.Len() == 0 {
			b.Fatal("no VRPs")
		}
	}
}

// BenchmarkHijack exercises the §2.3 experiment: an origin-validating
// router processing a stream with a 1% hijack mix.
func BenchmarkHijack(b *testing.B) {
	s := setupStudy(b)
	all := s.VRPs.All()
	if len(all) == 0 {
		b.Fatal("no VRPs")
	}
	r := router.NewWithPolicy(router.StaticVRPs{VRPs: s.VRPs}, router.PolicyDropInvalid)
	events := make([]bgp.RouteEvent, 0, 1000)
	for i := 0; i < 1000; i++ {
		v := all[i%len(all)]
		origin := v.ASN
		if i%100 == 0 {
			origin = 65551 // the attacker
		}
		events = append(events, bgp.RouteEvent{
			PeerAS: 3333, PeerID: netutil.MustAddr("10.0.0.1"),
			Prefix:  v.Prefix,
			Path:    []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: []uint32{3333, origin}}},
			NextHop: netutil.MustAddr("10.0.0.1"),
		})
	}
	b.ResetTimer()
	dropped := 0
	for i := 0; i < b.N; i++ {
		d, err := r.Process(events[i%len(events)])
		if err != nil {
			b.Fatal(err)
		}
		if !d.Accepted {
			dropped++
		}
	}
	if b.N >= len(events) && dropped == 0 {
		b.Fatal("no hijacks dropped")
	}
}

// BenchmarkOriginValidation times raw RFC 6811 classification against
// the study's VRP set.
func BenchmarkOriginValidation(b *testing.B) {
	s := setupStudy(b)
	all := s.VRPs.All()
	if len(all) == 0 {
		b.Fatal("no VRPs")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := all[i%len(all)]
		if st := s.VRPs.Validate(v.Prefix, v.ASN); st != vrp.Valid {
			b.Fatalf("unexpected state %v", st)
		}
	}
}

// BenchmarkExposure runs the §5.2 business-relation analysis: the
// planted standby arrangements must surface from the VRPs alone.
func BenchmarkExposure(b *testing.B) {
	s := setupStudy(b)
	var rels []ExposedRelation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rels = s.ExposedRelations()
	}
	b.ReportMetric(float64(len(rels)), "relations")
	b.ReportMetric(float64(len(s.World.PlantedBackups)), "planted")
}

// BenchmarkDNSSECStudy runs the future-work extension: DNSSEC adoption
// measured alongside RPKI coverage (independent by construction).
func BenchmarkDNSSECStudy(b *testing.B) {
	s := setupStudy(b)
	cfg := measure.Config{
		Resolver: dns.RegistryResolver{Registry: s.World.Registry},
		RIB:      s.World.RIB,
		VRPs:     s.VRPs,
		BinWidth: s.Dataset.BinWidth,
		DNSSEC:   true,
	}
	var ds *measure.Dataset
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err = measure.Run(s.World.List, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	signed := 0
	for i := range ds.Results {
		if ds.Results[i].DNSSEC {
			signed++
		}
	}
	b.ReportMetric(float64(signed)/float64(len(ds.Results))*100, "dnssec%")
}

// BenchmarkSimTick times the scenario engine's hot loop: one virtual
// tick of the roa-churn scenario — scenario events, VRP flush over the
// RTR wire, relying-party refresh, and revalidation (the probe is
// sampled out of the loop).
func BenchmarkSimTick(b *testing.B) {
	tick := 10 * time.Second
	s, err := NewSimulation(SimConfig{
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
		s, err := NewSimulation(SimConfig{
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
	s, err := NewSimulation(SimConfig{
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

// --- Ablations (design choices called out in DESIGN.md) ---------------

// BenchmarkAblationBinWidth re-runs Figure 2 with the bin sizes the
// paper says it experimented with before settling on 10k.
func BenchmarkAblationBinWidth(b *testing.B) {
	s := setupStudy(b)
	for _, width := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			ds := *s.Dataset
			ds.BinWidth = width
			var fig *Figure
			for i := 0; i < b.N; i++ {
				fig = ds.Figure2(VariantWWW)
			}
			head, tail := headTail(fig.Series[0].Points)
			b.ReportMetric(head*100, "headValid%")
			b.ReportMetric(tail*100, "tailValid%")
		})
	}
}

// BenchmarkAblationCDNThreshold varies the CNAME-indirection cutoff.
// The paper argues ≥2 is a deliberate under-estimate that sharpens the
// CDN picture; ≥1 sweeps in non-CDN aliases.
func BenchmarkAblationCDNThreshold(b *testing.B) {
	s := setupStudy(b)
	ha := httparchive.New(s.World.CDNSuffixes)
	ha.Limit = s.World.Cfg.Domains * 3 / 10
	for _, threshold := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("threshold=%d", threshold), func(b *testing.B) {
			cfg := measure.Config{
				Resolver:     dns.RegistryResolver{Registry: s.World.Registry},
				RIB:          s.World.RIB,
				VRPs:         s.VRPs,
				HTTPArchive:  ha,
				CDNThreshold: threshold,
				BinWidth:     s.Dataset.BinWidth,
			}
			var ds *measure.Dataset
			var err error
			for i := 0; i < b.N; i++ {
				ds, err = measure.Run(s.World.List, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			cdnShare := 0.0
			for i := range ds.Results {
				if ds.Results[i].CDNByChain {
					cdnShare++
				}
			}
			b.ReportMetric(cdnShare/float64(len(ds.Results))*100, "cdnDomains%")
		})
	}
}

// BenchmarkAblationVariant compares the www and w/o-www views (the
// paper's Figure 1 motivates why both are measured).
func BenchmarkAblationVariant(b *testing.B) {
	s := setupStudy(b)
	for _, v := range []Variant{VariantWWW, VariantApex} {
		b.Run(v.String(), func(b *testing.B) {
			var fig *Figure
			for i := 0; i < b.N; i++ {
				fig = s.Figure4(v)
			}
			b.ReportMetric(meanY(fig.Series[0].Points)*100, "overall%")
		})
	}
}

// BenchmarkAblationScale verifies trend stability across world sizes:
// the head-vs-tail coverage gap must persist at every scale.
func BenchmarkAblationScale(b *testing.B) {
	for _, domains := range []int{20000, 50000} {
		b.Run(fmt.Sprintf("domains=%d", domains), func(b *testing.B) {
			var head, tail float64
			for i := 0; i < b.N; i++ {
				s, err := NewStudy(StudyConfig{Domains: domains, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				fig := s.Figure4(VariantWWW)
				head, tail = headTail(fig.Series[0].Points)
			}
			b.ReportMetric(head*100, "headCoverage%")
			b.ReportMetric(tail*100, "tailCoverage%")
		})
	}
}
