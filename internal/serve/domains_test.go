package serve

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ripki/internal/dns"
	"ripki/internal/measure"
	"ripki/internal/rib"
	"ripki/internal/webworld"
)

// pairsOf is one name's answer from a fresh lookup through the
// measurement kernel into a fresh slice; the kernel has its own oracle
// in internal/measure (TestMeasureVariantMatchesOracle).
func pairsOf(resolver dns.Lookuper, table *rib.Table, name string) (pairs []rib.PrefixOrigin, resolved bool, chain int, err error) {
	res, err := resolver.LookupWeb(name)
	if err != nil {
		return nil, false, 0, err
	}
	pairs, n := measure.AppendPairs(nil, table, res.Addrs)
	return pairs, n.Addrs > 0, res.CNAMECount(), nil
}

// TestBuildDomainTableMatchesOracle packs the world one domain at a time
// from pairsOf's answers and requires BuildDomainTable to
// produce the same arrays, element for element, however many arenas the
// resolution was spread over.
func TestBuildDomainTableMatchesOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, domains := range []int{2000, 20000} {
		w, err := webworld.Generate(webworld.Config{Seed: 7, Domains: domains})
		if err != nil {
			t.Fatal(err)
		}
		resolver := dns.RegistryResolver{Registry: w.Registry}
		var (
			names    []string
			ranks    []int32
			flags    []uint8
			offs     = []uint32{0}
			routeIDs []uint32
			routes   []rib.PrefixOrigin
			ids      = map[rib.PrefixOrigin]uint32{}
			merged   int // names with several addresses, whose pairs need merging
		)
		for _, e := range w.List.Entries() {
			www, wwwResolved, chain, err := pairsOf(resolver, w.RIB, "www."+e.Domain)
			if err != nil {
				t.Fatal(err)
			}
			apex, apexResolved, _, err := pairsOf(resolver, w.RIB, e.Domain)
			if err != nil {
				t.Fatal(err)
			}
			var fl uint8
			if wwwResolved && chain >= 2 {
				fl |= flagCDN
			}
			if wwwResolved {
				fl |= flagWWWResolved
			}
			if apexResolved {
				fl |= flagApexResolved
			}
			names, ranks, flags = append(names, e.Domain), append(ranks, int32(e.Rank)), append(flags, fl)
			for _, pairs := range [][]rib.PrefixOrigin{www, apex} {
				for _, po := range pairs {
					id, ok := ids[po]
					if !ok {
						id = uint32(len(routes))
						ids[po] = id
						routes = append(routes, po)
					}
					routeIDs = append(routeIDs, id)
				}
				offs = append(offs, uint32(len(routeIDs)))
			}
			if res, _ := resolver.LookupWeb("www." + e.Domain); len(res.Addrs) > 1 {
				merged++
			}
		}
		if merged == 0 {
			t.Fatalf("%d domains: no www name has several addresses, the merge path is not exercised", domains)
		}

		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			dt, err := BuildDomainTable(w)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%d domains, GOMAXPROCS %d", domains, procs)
			if dt.Len() != len(names) {
				t.Fatalf("%s: %d domains in the table, want %d", where, dt.Len(), len(names))
			}
			for i, name := range names {
				if got := dt.name(int32(i)); got != name || dt.index[name] != int32(i) {
					t.Fatalf("%s: domain %d is %q (index %d), want %q", where, i, got, dt.index[name], name)
				}
			}
			if len(dt.index) != len(names) {
				t.Errorf("%s: name index holds %d entries, want %d", where, len(dt.index), len(names))
			}
			if !slices.Equal(dt.ranks, ranks) {
				t.Errorf("%s: ranks differ", where)
			}
			if !slices.Equal(dt.flags, flags) {
				t.Errorf("%s: flags differ", where)
			}
			if !slices.Equal(dt.offs, offs) {
				t.Errorf("%s: spans differ", where)
			}
			if !slices.Equal(dt.routeIDs, routeIDs) {
				t.Errorf("%s: route ids differ", where)
			}
			if !slices.Equal(dt.routes, routes) {
				t.Errorf("%s: unique routes differ", where)
			}
		}
	}
}
