package serve

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"ripki/internal/rpki/vrp"
	"ripki/internal/webworld"
)

// BenchmarkServeValidate measures the in-process lookup path — one
// snapshot-pointer load plus an RFC 6811 classification with covering
// VRPs — at 1, 4 and 8 concurrent goroutines. Because the read path is
// lock-free, throughput should scale with cores (a single-core
// container shows flat ns/op across the variants; watch the scaling on
// multi-core CI). Gated in BENCH_baseline.json via tools/benchgate.
func BenchmarkServeValidate(b *testing.B) {
	w, dt := testSetup(b)
	s := New(dt)
	if _, err := s.PublishSet(w.Validation().VRPs, "world", 0); err != nil {
		b.Fatal(err)
	}
	// A fixed route mix: every VRP probed at its own origin (valid), at
	// a wrong origin (invalid), and a rotation of uncovered prefixes
	// (notfound) — the classifier's three paths in one loop.
	type route struct {
		prefix netip.Prefix
		asn    uint32
	}
	var routes []route
	for i, v := range w.Validation().VRPs.All() {
		routes = append(routes, route{v.Prefix, v.ASN})
		routes = append(routes, route{v.Prefix, 64999})
		uncovered := netip.PrefixFrom(netip.AddrFrom4([4]byte{203, 0, byte(113 + i%16), 0}), 24)
		routes = append(routes, route{uncovered, v.ASN})
	}
	if len(routes) == 0 {
		b.Fatal("no VRPs to probe")
	}

	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			var wg sync.WaitGroup
			per := b.N / g
			b.ResetTimer()
			for wkr := 0; wkr < g; wkr++ {
				n := per
				if wkr == 0 {
					n += b.N % g
				}
				wg.Add(1)
				go func(wkr, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						r := routes[(wkr*31+i)%len(routes)]
						sn := s.Current()
						res := sn.ValidateRoute(r.prefix, r.asn)
						if res.State == "" {
							panic("empty state")
						}
					}
				}(wkr, n)
			}
			wg.Wait()
		})
	}
}

// BenchmarkPublishSet gates the publish path's cost model: a live set of
// 300 000 VRPs takes a 16-VRP delta and is published. The snapshot's
// index is a freeze of the set, so an op allocates the tree paths those
// 16 writes copy plus the snapshot and its feed event — a few hundred
// allocations. A publish that walks, sorts or rebuilds the set again
// allocates by the hundred thousand, which the allocs/op gate in
// BENCH_baseline.json catches on any machine.
func BenchmarkPublishSet(b *testing.B) {
	const vrps, deltaSize = 300_000, 16
	at := func(i int) vrp.VRP {
		addr := netip.AddrFrom4([4]byte{byte(1 + i>>16), byte(i >> 8), byte(i), 0})
		return vrp.VRP{Prefix: netip.PrefixFrom(addr, 24), MaxLength: 24, ASN: uint32(64500 + i%64)}
	}
	set := vrp.NewSet()
	// The set takes the even /24s; the delta's VRPs are odd ones spread
	// across the same range, so each write descends a full-depth path.
	for i := 0; i < vrps; i++ {
		if err := set.Add(at(2 * i)); err != nil {
			b.Fatal(err)
		}
	}
	delta := make([]vrp.VRP, deltaSize)
	for k := range delta {
		delta[k] = at(2*k*(vrps/deltaSize) + 1)
	}
	s := New(nil)
	if _, err := s.PublishSet(set, "rtr", 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range delta {
			if i%2 == 0 {
				if err := set.Add(v); err != nil {
					b.Fatal(err)
				}
			} else {
				set.Remove(v)
			}
		}
		if _, err := s.PublishSet(set, "rtr", uint32(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got, want := s.Current().Index.Len(), vrps+deltaSize*(b.N%2); got != want {
		b.Fatalf("published index holds %d VRPs, want %d", got, want)
	}
}

// BenchmarkBuildDomainTable gates the packed table's build cost and its
// per-domain memory. One op resolves and packs a 50k-domain world; B/op
// is what the interning work holds down, and the explicit bytes/domain
// metric reports the steady-state footprint (the transient resolution
// arenas are gone after the build).
func BenchmarkBuildDomainTable(b *testing.B) {
	const domains = 50000
	w, err := webworld.Generate(webworld.Config{Seed: 1, Domains: domains})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var dt *DomainTable
	for i := 0; i < b.N; i++ {
		dt, err = BuildDomainTable(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	if dt.Len() != domains {
		b.Fatalf("short table: %d", dt.Len())
	}
	b.ReportMetric(float64(dt.MemoryFootprint())/float64(domains), "bytes/domain")
}

// The million-domain service is built once and shared by the 1M bench:
// worlds of this size are the paper's real population and take tens of
// seconds to generate.
var (
	megaOnce sync.Once
	megaSvc  *Service
	megaVRPs []vrp.VRP // what megaSvc publishes
	megaErr  error
)

func megaService(b *testing.B) *Service {
	megaOnce.Do(func() {
		w, err := webworld.Generate(webworld.Config{Seed: 1, Domains: 1_000_000})
		if err != nil {
			megaErr = err
			return
		}
		dt, err := BuildDomainTable(w)
		if err != nil {
			megaErr = err
			return
		}
		s := New(dt)
		if _, err := s.PublishSet(w.Validation().VRPs, "world", 0); err != nil {
			megaErr = err
			return
		}
		megaSvc, megaVRPs = s, w.Validation().VRPs.All()
	})
	if megaErr != nil {
		b.Fatal(megaErr)
	}
	return megaSvc
}

// BenchmarkServeValidate1M is BenchmarkServeValidate's single-goroutine
// route mix against a million-domain table: the lookup path must stay
// flat no matter how large the domain population behind the snapshot
// is, and the MB-table metric pins the packed footprint at full scale.
func BenchmarkServeValidate1M(b *testing.B) {
	s := megaService(b)
	type route struct {
		prefix netip.Prefix
		asn    uint32
	}
	var routes []route
	for i, v := range megaVRPs {
		routes = append(routes, route{v.Prefix, v.ASN})
		routes = append(routes, route{v.Prefix, 64999})
		uncovered := netip.PrefixFrom(netip.AddrFrom4([4]byte{203, 0, byte(113 + i%16), 0}), 24)
		routes = append(routes, route{uncovered, v.ASN})
	}
	if len(routes) == 0 {
		b.Fatal("no VRPs to probe")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := routes[i%len(routes)]
		res := s.Current().ValidateRoute(r.prefix, r.asn)
		if res.State == "" {
			b.Fatal("empty state")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.domains.MemoryFootprint())/1e6, "MB-table")
}
