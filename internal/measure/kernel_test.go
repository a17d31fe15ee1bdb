package measure

import (
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ripki/internal/bgp"
	"ripki/internal/dns"
	"ripki/internal/netutil"
	"ripki/internal/rib"
	"ripki/internal/rpki/vrp"
	"ripki/internal/webworld"
)

// measureVariantOracle is measureVariant as it was before AppendPairs:
// a fresh pair slice per address, a state map and a prefix map per
// variant, a nested loop for the covered prefixes, then a sort. It also
// hands back the distinct pairs it saw, in order, to compare what
// AppendPairs appends against.
func measureVariantOracle(name string, cfg Config) (VariantData, []rib.PrefixOrigin, error) {
	var v VariantData
	res, err := cfg.Resolver.LookupWeb(name)
	if err != nil {
		return v, nil, err
	}
	if res.NXDomain {
		v.NXDomain = true
		return v, nil, nil
	}
	v.CNAMEs = res.CNAMECount()
	v.Chain = res.Chain
	if len(res.Addrs) == 0 && v.CNAMEs == 0 {
		return v, nil, nil
	}
	v.Resolved = true
	seenPair := make(map[rib.PrefixOrigin]vrp.State, 4)
	seenPrefix := make(map[netip.Prefix]bool, 4)
	for _, a := range res.Addrs {
		if netutil.IsSpecialPurpose(a) {
			v.SpecialAddrs++
			continue
		}
		v.Addrs++
		pairs := cfg.RIB.OriginPairs(a)
		if len(pairs) == 0 {
			if !cfg.RIB.Reachable(a) {
				v.UnreachableAddrs++
			}
			continue
		}
		v.PairMappings += len(pairs)
		for _, po := range pairs {
			if _, ok := seenPair[po]; !ok {
				seenPair[po] = cfg.VRPs.Validate(po.Prefix, po.Origin)
			}
			seenPrefix[po.Prefix] = true
		}
	}
	var distinct []rib.PrefixOrigin
	for po := range seenPair {
		distinct = append(distinct, po)
	}
	sort.Slice(distinct, func(i, j int) bool {
		if c := netutil.ComparePrefixes(distinct[i].Prefix, distinct[j].Prefix); c != 0 {
			return c < 0
		}
		return distinct[i].Origin < distinct[j].Origin
	})
	if v.Addrs == 0 && v.SpecialAddrs > 0 {
		v.Excluded = true
		return v, distinct, nil
	}
	v.Pairs = len(seenPair)
	for _, st := range seenPair {
		switch st {
		case vrp.Valid:
			v.ValidPairs++
		case vrp.Invalid:
			v.InvalidPairs++
		}
	}
	v.TotalPrefixes = len(seenPrefix)
	for p := range seenPrefix {
		covered := false
		for po, st := range seenPair {
			if po.Prefix == p && st != vrp.NotFound {
				covered = true
				break
			}
		}
		if covered {
			v.CoveredPrefixes++
		}
		v.prefixes = append(v.prefixes, p)
	}
	sort.Slice(v.prefixes, func(i, j int) bool {
		return netutil.ComparePrefixes(v.prefixes[i], v.prefixes[j]) < 0
	})
	return v, distinct, nil
}

// TestMeasureVariantMatchesOracle measures every name of a generated
// world both ways and requires the same VariantData, field for field,
// and the same pairs from the kernel. The world is extended so
// that every branch of the kernel has names on it: special-purpose
// answers, unreachable addresses, an address under an AS_SET-only
// prefix (no pair, yet reachable), and names whose several addresses'
// pairs repeat and interleave.
func TestMeasureVariantMatchesOracle(t *testing.T) {
	w, err := webworld.Generate(webworld.Config{Seed: 7, Domains: 20000})
	if err != nil {
		t.Fatal(err)
	}
	entries := w.List.Entries()

	// An AS_SET-only announcement over space nothing else routes.
	asSetOnly := netip.MustParseAddr("45.77.1.10")
	if netutil.IsSpecialPurpose(asSetOnly) || w.RIB.Reachable(asSetOnly) {
		t.Fatalf("%v is not free public space in this world", asSetOnly)
	}
	pk := w.RIB.AddPeer(rib.Peer{BGPID: netip.MustParseAddr("10.9.9.9"), Addr: netip.MustParseAddr("10.9.9.9"), ASN: 65000})
	if _, err := w.RIB.Insert(rib.Route{
		Prefix: netutil.MustPrefix("45.77.0.0/16"), PeerIndex: pk, NextHop: netip.MustParseAddr("10.9.9.9"),
		Path: []bgp.Segment{
			{Type: bgp.SegmentSequence, ASNs: []uint32{65000}},
			{Type: bgp.SegmentSet, ASNs: []uint32{64700, 64701}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// One name on that address alone; one that mixes it with a loopback
	// answer and two routed addresses drawn from other domains.
	answer := func(name string) []netip.Addr {
		res, _ := dns.RegistryResolver{Registry: w.Registry}.LookupWeb(name)
		return res.Addrs
	}
	alone, mixed := "www."+entries[100].Domain, "www."+entries[101].Domain
	for _, name := range []string{alone, mixed} {
		w.Registry.Remove(name, dns.TypeA)
		w.Registry.Remove(name, dns.TypeAAAA)
		w.Registry.Remove(name, dns.TypeCNAME)
		w.Registry.Add(dns.RR{Name: name, Type: dns.TypeA, TTL: 60, Addr: asSetOnly})
	}
	w.Registry.Add(dns.RR{Name: mixed, Type: dns.TypeA, TTL: 60, Addr: netip.MustParseAddr("127.0.0.9")})
	for _, from := range []string{entries[5].Domain, entries[5000].Domain} {
		for _, a := range answer(from) {
			if a.Is4() {
				w.Registry.Add(dns.RR{Name: mixed, Type: dns.TypeA, TTL: 60, Addr: a})
			}
		}
	}

	cfg := Config{
		Resolver: dns.RegistryResolver{Registry: w.Registry},
		RIB:      w.RIB,
		VRPs:     w.Validation().VRPs,
	}
	var special, unreachable, excluded, asSet, merged, multiPrefix int
	held := rib.PrefixOrigin{Origin: 0xdead}
	var scratch []rib.PrefixOrigin
	for _, e := range entries {
		for _, name := range []string{"www." + e.Domain, e.Domain} {
			want, wantPairs, err := measureVariantOracle(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := measureVariant(name, cfg, nil, &scratch)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s:\nkernel %+v\noracle %+v", name, got, want)
			}
			// The kernel on its own: what the buffer held comes through
			// untouched, with exactly this name's pairs after it.
			after, n := AppendPairs([]rib.PrefixOrigin{held}, cfg.RIB, answer(name))
			if after[0] != held || !slices.Equal(after[1:], wantPairs) {
				t.Fatalf("%s: AppendPairs after %v gave %v, oracle saw %v", name, held, after, wantPairs)
			}
			if n.Addrs != want.Addrs || n.SpecialAddrs != want.SpecialAddrs ||
				n.UnreachableAddrs != want.UnreachableAddrs || n.PairMappings != want.PairMappings {
				t.Fatalf("%s: AppendPairs counted %+v, oracle %+v", name, n, want)
			}

			if want.SpecialAddrs > 0 {
				special++
			}
			if want.UnreachableAddrs > 0 {
				unreachable++
			}
			if want.Excluded {
				excluded++
			}
			if want.Addrs > want.UnreachableAddrs && want.Pairs == 0 {
				asSet++
			}
			if want.PairMappings > want.Pairs {
				merged++
			}
			if want.TotalPrefixes > 1 {
				multiPrefix++
			}
		}
	}
	for what, n := range map[string]int{
		"special-purpose answers": special, "unreachable addresses": unreachable,
		"excluded variants": excluded, "AS_SET-only names": asSet,
		"names whose addresses share pairs": merged, "names under several prefixes": multiPrefix,
	} {
		if n == 0 {
			t.Errorf("the world has no %s: that branch is not exercised", what)
		}
	}
}
