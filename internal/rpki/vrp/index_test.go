package vrp

import (
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"ripki/internal/netutil"
)

// randomVRPs builds a deterministic pseudo-random VRP population with
// overlapping prefixes (aggregates, more-specifics, sibling origins).
func randomVRPs(rnd *rand.Rand, n int) []VRP {
	vs := make([]VRP, 0, n)
	for i := 0; i < n; i++ {
		bits := 8 + rnd.Intn(17) // /8../24
		addr := netip.AddrFrom4([4]byte{byte(10 + rnd.Intn(4)), byte(rnd.Intn(256)), byte(rnd.Intn(256)), 0})
		p, _ := netutil.Canonical(netip.PrefixFrom(addr, bits))
		maxLen := bits + rnd.Intn(32-bits+1)
		vs = append(vs, VRP{Prefix: p, MaxLength: maxLen, ASN: uint32(64500 + rnd.Intn(16))})
	}
	return vs
}

// TestIndexMatchesSet: Index is a frozen Set — same Len, same All
// order, same ValidateExplain on every probed route, including routes
// more specific than any VRP and routes outside all coverage.
func TestIndexMatchesSet(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	vs := randomVRPs(rnd, 400)
	set, err := FromVRPs(vs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(vs)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != set.Len() {
		t.Fatalf("Len: index %d, set %d", ix.Len(), set.Len())
	}
	ia, sa := ix.all(), set.All()
	if len(ia) != len(sa) {
		t.Fatalf("All: index %d entries, set %d", len(ia), len(sa))
	}
	for i := range ia {
		if ia[i] != sa[i] {
			t.Fatalf("All[%d]: index %v, set %v", i, ia[i], sa[i])
		}
	}
	// All does not sort: the order is the tree walk's.
	if !slices.IsSortedFunc(sa, Compare) {
		t.Fatal("All is not in Compare order")
	}
	for trial := 0; trial < 2000; trial++ {
		var p netip.Prefix
		if trial%3 == 0 && len(vs) > 0 {
			// Probe at and below an actual VRP prefix.
			v := vs[rnd.Intn(len(vs))]
			bits := v.Prefix.Bits() + rnd.Intn(32-v.Prefix.Bits()+1)
			p, _ = netutil.Canonical(netip.PrefixFrom(v.Prefix.Addr(), bits))
		} else {
			bits := 8 + rnd.Intn(25)
			addr := netip.AddrFrom4([4]byte{byte(rnd.Intn(224)), byte(rnd.Intn(256)), byte(rnd.Intn(256)), 0})
			p, _ = netutil.Canonical(netip.PrefixFrom(addr, bits))
		}
		asn := uint32(64500 + rnd.Intn(18))
		ss, sc := set.ValidateExplain(p, asn)
		is, ic := ix.ValidateExplain(p, asn)
		if ss != is || len(sc) != len(ic) {
			t.Fatalf("route %v AS%d: set %v (%d covering), index %v (%d covering)",
				p, asn, ss, len(sc), is, len(ic))
		}
		for i := range sc {
			if sc[i] != ic[i] {
				t.Fatalf("route %v AS%d covering[%d]: set %v, index %v", p, asn, i, sc[i], ic[i])
			}
		}
	}
}

// TestIndexRejectsBadVRPs mirrors Set.Add's input validation.
func TestIndexRejectsBadVRPs(t *testing.T) {
	if _, err := NewIndex([]VRP{{Prefix: netip.Prefix{}, MaxLength: 24}}); err == nil {
		t.Error("invalid prefix accepted")
	}
	if _, err := NewIndex([]VRP{{Prefix: netutil.MustPrefix("10.0.0.0/16"), MaxLength: 8, ASN: 1}}); err == nil {
		t.Error("maxLength below prefix length accepted")
	}
	if _, err := NewIndex([]VRP{{Prefix: netutil.MustPrefix("10.0.0.0/16"), MaxLength: 33, ASN: 1}}); err == nil {
		t.Error("maxLength above family width accepted")
	}
}

// TestIndexDeduplicates: duplicate triples collapse, like Set.Add.
func TestIndexDeduplicates(t *testing.T) {
	v := VRP{Prefix: netutil.MustPrefix("192.0.2.0/24"), MaxLength: 24, ASN: 65001}
	ix, err := NewIndex([]VRP{v, v, v})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
}

// TestIndexConcurrentReads hammers one Index from many goroutines —
// with no mutex anywhere, the race detector proves immutability is the
// only synchronisation the read path needs.
func TestIndexConcurrentReads(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	ix, err := NewIndex(randomVRPs(rnd, 300))
	if err != nil {
		t.Fatal(err)
	}
	routes := make([]netip.Prefix, 64)
	for i := range routes {
		addr := netip.AddrFrom4([4]byte{byte(10 + i%4), byte(i), 0, 0})
		routes[i] = netip.PrefixFrom(addr, 16)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r := routes[(g*31+i)%len(routes)]
				ix.ValidateExplain(r, uint32(64500+i%16))
			}
		}(g)
	}
	wg.Wait()
}
