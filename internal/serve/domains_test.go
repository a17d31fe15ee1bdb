package serve

import (
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ripki/internal/alexa"
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
// on one goroutine, from pairsOf's answers through the world's own
// registry and RIB, and requires BuildDomainTable — whose workers each
// read through a private fork of both — to produce the same arrays,
// element for element, however many arenas the resolution was spread
// over.
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
				if at, ok := dt.lookup(name); dt.name(int32(i)) != name || !ok || at != int32(i) {
					t.Fatalf("%s: domain %d is %q, found at %d (%v), want %q", where, i, dt.name(int32(i)), at, ok, name)
				}
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

// TestBuildAllocatesLittleBeyondWhatItKeeps: the build runs while the
// whole world is live, and at start-up no collection lands inside it,
// so every byte it allocates is resident at the daemon's peak. What it
// allocates and drops again (arenas, maps, the workers' forks) must be
// small beside the (prefix, origin) mentions it packs: at most 40 bytes
// a mention, which one 40-byte pair copied per mention would exceed on
// its own. The worker count is pinned because each worker's fork and
// map is a fixed cost.
func TestBuildAllocatesLittleBeyondWhatItKeeps(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w, err := webworld.Generate(webworld.Config{Seed: 1, Domains: 20000})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	dt, err := BuildDomainTable(w)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	dropped := int64(after.TotalAlloc-before.TotalAlloc) - kept
	perMention := float64(dropped) / float64(len(dt.routeIDs))
	t.Logf("%d mentions: %d B allocated, %d B kept, %.1f B dropped a mention",
		len(dt.routeIDs), after.TotalAlloc-before.TotalAlloc, kept, perMention)
	if perMention > 40 {
		t.Errorf("the build dropped %.1f B a (prefix, origin) mention, want at most 40", perMention)
	}
}

// handWorld is a world of the given ranked names with one address each,
// enough for BuildDomainTable.
func handWorld(names ...string) *webworld.World {
	w := &webworld.World{List: alexa.FromDomains(names), Registry: dns.NewRegistry(), RIB: rib.New()}
	for i, name := range names {
		w.Registry.Add(dns.RR{Name: name, Type: dns.TypeA, TTL: 60, Addr: netip.AddrFrom4([4]byte{198, 18, 0, byte(i + 1)})})
	}
	return w
}

// TestLookupAsksTheOneNameMap: a domain is found by the string table's
// own name index — there is no second one — under the spellings the API
// accepts: any case, one trailing dot, an optional "www." label tried
// only after the name as given.
func TestLookupAsksTheOneNameMap(t *testing.T) {
	dt, err := BuildDomainTable(handWorld("a.example", "www.b.example", "b.example", "wwwx.example"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		want int32 // -1: a miss
	}{
		{"a.example", 0}, {"A.Example", 0}, {"a.example.", 0}, {"www.a.example", 0}, {"WWW.A.EXAMPLE.", 0},
		{"www.b.example", 1}, {"b.example", 2}, {"www.www.b.example", 1},
		{"wwwx.example", 3}, {"x.example", -1}, {"www.wwwx.example", 3},
		{"a.example..", -1}, {"www.", -1}, {"www.c.example", -1}, {"", -1}, {".", -1},
	} {
		got, ok := dt.lookup(tc.name)
		if !ok {
			got = -1
		}
		if got != tc.want {
			t.Errorf("lookup(%q) = %d, want %d", tc.name, got, tc.want)
		}
		// The single index is the oracle: what lookup finds is what it
		// holds under the canonical spelling, with or without the www label.
		canon := strings.ToLower(strings.TrimSuffix(tc.name, "."))
		id, held := dt.names.Lookup(canon)
		if !held {
			id, held = dt.names.Lookup(strings.TrimPrefix(canon, "www."))
		}
		if held != ok || (held && int32(id) != got) {
			t.Errorf("lookup(%q) = %d, %v; the name map holds %d, %v", tc.name, got, ok, id, held)
		}
	}
	if _, ok := New(nil).domains.lookup("a.example"); ok {
		t.Error("the empty table found a name")
	}
}

// TestDuplicateDomainIsAnError: a domain's id is its position because a
// ranked list names each domain once; a list that does not is refused,
// naming the domain and both ranks, not packed with one row unreachable.
func TestDuplicateDomainIsAnError(t *testing.T) {
	dt, err := BuildDomainTable(handWorld("a.example", "b.example", "A.example"))
	if dt != nil || err == nil {
		t.Fatalf("BuildDomainTable of a list naming a.example twice: table %v, error %v", dt, err)
	}
	for _, want := range []string{`"a.example"`, "ranks 1 and 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %s", err, want)
		}
	}
}
