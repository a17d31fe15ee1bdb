package measure

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"ripki/internal/bgp"
	"ripki/internal/dns"
	"ripki/internal/httparchive"
	"ripki/internal/netutil"
	"ripki/internal/rib"
	"ripki/internal/rpki/vrp"
	"ripki/internal/webworld"
)

// TestIncrementalTinyUniverse exercises the dirty paths one at a time
// against the hand-crafted fixture, where each mutation's expected
// blast radius is known.
func TestIncrementalTinyUniverse(t *testing.T) {
	f := newTinyFixture(t)
	set := f.cfg.VRPs
	inc, err := NewIncremental(f.list, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		if err := inc.Refresh(); err != nil {
			t.Fatalf("%s: refresh: %v", step, err)
		}
		full, err := Run(f.list, f.cfg)
		if err != nil {
			t.Fatalf("%s: full run: %v", step, err)
		}
		if !reflect.DeepEqual(inc.Dataset().Results, full.Results) {
			t.Fatalf("%s: incremental results diverge from full recompute", step)
		}
		if !reflect.DeepEqual(inc.Dataset().Totals, full.Totals) {
			t.Fatalf("%s: incremental totals diverge from full recompute", step)
		}
	}
	check("baseline")

	// Fix the hijacked ROA: hijacked.example flips invalid → valid.
	wrong := vrp.VRP{Prefix: netutil.MustPrefix("198.51.0.0/16"), MaxLength: 16, ASN: 3333}
	set.Remove(wrong)
	inc.DirtyVRP(wrong.Prefix)
	set.Add(vrp.VRP{Prefix: netutil.MustPrefix("198.51.0.0/16"), MaxLength: 16, ASN: 666})
	inc.DirtyVRP(netutil.MustPrefix("198.51.0.0/16"))
	check("roa fix")

	// ghost.example comes alive: the NXDOMAIN was recorded as a consulted
	// name, so a record appearing later must invalidate.
	reg := f.cfg.Resolver.(dns.RegistryResolver).Registry
	reg.SetMutationHook(inc.DirtyHost)
	defer reg.SetMutationHook(nil)
	reg.Add(dns.RR{Name: "ghost.example", Type: dns.TypeA, TTL: 60, Addr: netip.MustParseAddr("193.0.6.99")})
	check("nxdomain resurrect")

	// dark.example gets routed: an address recorded as unreachable gains
	// a covering route. RIB mutations have no index: DirtyAll.
	pk := f.cfg.RIB.AddPeer(rib.Peer{BGPID: netip.MustParseAddr("10.0.0.2"), Addr: netip.MustParseAddr("10.0.0.2"), ASN: 200})
	if err := f.cfg.RIB.Insert(rib.Route{
		Prefix: netutil.MustPrefix("203.0.112.0/24"), PeerIndex: pk,
		Path: []ribSegment{{Type: 2, ASNs: []uint32{200, 64999}}}, NextHop: netip.MustParseAddr("10.0.0.2"),
	}); err != nil {
		t.Fatal(err)
	}
	inc.DirtyAll()
	check("route appears")

	// ...and unrouted again.
	f.cfg.RIB.WithdrawEvent(bgp.RouteEvent{PeerAS: 200, PeerID: netip.MustParseAddr("10.0.0.2"), Prefix: netutil.MustPrefix("203.0.112.0/24"), Withdraw: true})
	inc.DirtyAll()
	check("route withdrawn")

	// CNAME repoint: cdnstyle's www chain now terminates on secure's
	// address; chained owner names were recorded, so this must dirty it.
	reg.Remove("cust.fastcdn.wld", dns.TypeCNAME)
	reg.Add(dns.RR{Name: "cust.fastcdn.wld", Type: dns.TypeCNAME, TTL: 60, Target: "www.secure.example"})
	check("cname repoint")

	// Swap the whole validation source: a fork validates against the set
	// it is given.
	swapped := set.Clone()
	swapped.Add(vrp.VRP{Prefix: netutil.MustPrefix("203.0.114.0/24"), MaxLength: 24, ASN: 64500})
	f.cfg.VRPs = swapped
	inc = inc.Fork(f.cfg.Resolver, swapped)
	reg.SetMutationHook(inc.DirtyHost)
	inc.DirtyAll()
	check("set swap")
}

// TestIncrementalRandomInterleavings is the property test behind the
// incremental contract: against a generated world, any seeded random
// interleaving of ROA issues/revokes, route inserts/withdraws (which no
// index covers, so they DirtyAll), and DNS record mutations — with
// refreshes at arbitrary points — leaves the incremental Dataset deeply
// equal to a full Run over the same mutated world. Divergence here means
// a reverse index under-marked.
func TestIncrementalRandomInterleavings(t *testing.T) {
	if testing.Short() {
		t.Skip("world generation in -short mode")
	}
	w, err := webworld.Generate(webworld.Config{Seed: 7, Domains: 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 99} {
		t.Run(string(rune('A'+seed%26)), func(t *testing.T) {
			runInterleaving(t, w, seed)
		})
	}
}

func runInterleaving(t *testing.T, w *webworld.World, seed int64) {
	set := w.Validation().VRPs.Clone()
	cfg := Config{
		Resolver:    dns.RegistryResolver{Registry: w.Registry},
		RIB:         w.RIB,
		VRPs:        set,
		HTTPArchive: httparchive.New(w.CDNSuffixes),
		BinWidth:    50,
	}
	inc, err := NewIncremental(w.List, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Registry.SetMutationHook(inc.DirtyHost)
	defer w.Registry.SetMutationHook(nil)

	rnd := rand.New(rand.NewSource(seed))
	routed := w.RoutedV4Prefixes()
	entries := w.List.Entries()
	pk := w.RIB.AddPeer(rib.Peer{BGPID: netip.MustParseAddr("10.9.9.9"), Addr: netip.MustParseAddr("10.9.9.9"), ASN: 65000})
	leaked := map[netip.Prefix]bool{}

	ops := []func(){
		func() { // ROA flip, sometimes with a mismatching origin
			p := routed[rnd.Intn(len(routed))]
			origin, ok := w.PinnedOriginOf(p)
			if !ok {
				origin = 64512
			}
			if rnd.Intn(3) == 0 {
				origin++
			}
			v := vrp.VRP{Prefix: p, MaxLength: p.Bits(), ASN: origin}
			if set.Contains(v) {
				set.Remove(v)
			} else {
				set.Add(v)
			}
			inc.DirtyVRP(v.Prefix)
		},
		func() { // more-specific route leak flip
			base := routed[rnd.Intn(len(routed))]
			if base.Bits() >= 24 {
				return
			}
			more := netip.PrefixFrom(base.Addr(), base.Bits()+1).Masked()
			if leaked[more] {
				w.RIB.WithdrawEvent(bgp.RouteEvent{PeerAS: 65000, PeerID: netip.MustParseAddr("10.9.9.9"), Prefix: more, Withdraw: true})
			} else if err := w.RIB.Insert(rib.Route{
				Prefix: more, PeerIndex: pk,
				Path: []ribSegment{{Type: 2, ASNs: []uint32{65000, 64666}}}, NextHop: netip.MustParseAddr("10.9.9.9"),
			}); err != nil {
				t.Fatal(err)
			}
			leaked[more] = !leaked[more]
			// No index covers the RIB. Refreshing at once keeps the other
			// ops' marks in this window what the next check tests.
			inc.DirtyAll()
			if err := inc.Refresh(); err != nil {
				t.Fatal(err)
			}
		},
		func() { // A record flip on an apex or www name
			name := entries[rnd.Intn(len(entries))].Domain
			if rnd.Intn(2) == 0 {
				name = "www." + name
			}
			if len(w.Registry.Lookup(name, dns.TypeA)) > 0 {
				w.Registry.Remove(name, dns.TypeA)
				return
			}
			addr := routed[rnd.Intn(len(routed))].Addr()
			w.Registry.Add(dns.RR{Name: name, Type: dns.TypeA, TTL: 60, Addr: addr})
		},
		func() { // CNAME repoint onto another domain's www
			from := "www." + entries[rnd.Intn(len(entries))].Domain
			to := "www." + entries[rnd.Intn(len(entries))].Domain
			w.Registry.Remove(from, dns.TypeA)
			w.Registry.Remove(from, dns.TypeCNAME)
			w.Registry.Add(dns.RR{Name: from, Type: dns.TypeCNAME, TTL: 60, Target: to})
		},
	}

	for i := 0; i < 60; i++ {
		ops[rnd.Intn(len(ops))]()
		if i%6 == 5 {
			if err := inc.Refresh(); err != nil {
				t.Fatalf("op %d: refresh: %v", i, err)
			}
			full, err := Run(w.List, cfg)
			if err != nil {
				t.Fatalf("op %d: full run: %v", i, err)
			}
			if !reflect.DeepEqual(inc.Dataset().Results, full.Results) {
				for j := range full.Results {
					if !reflect.DeepEqual(inc.Dataset().Results[j], full.Results[j]) {
						t.Fatalf("op %d: domain %q diverged:\nincremental %+v\nfull        %+v",
							i, entries[j].Domain, inc.Dataset().Results[j], full.Results[j])
					}
				}
			}
			if !reflect.DeepEqual(inc.Dataset().Totals, full.Totals) {
				t.Fatalf("op %d: totals diverged:\nincremental %+v\nfull        %+v",
					i, inc.Dataset().Totals, full.Totals)
			}
		}
	}
}
