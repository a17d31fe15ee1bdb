package rib

import (
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"

	"ripki/internal/bgp"
	"ripki/internal/netutil"
)

func seq(asns ...uint32) []bgp.Segment {
	return []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: asns}}
}

// snapshot collects every route WalkRoutes visits, in its order.
func snapshot(tb *Table) []Route {
	var out []Route
	tb.WalkRoutes(func(r Route) bool {
		out = append(out, r)
		return true
	})
	return out
}

// withdraw removes peer's route for prefix: WithdrawEvent's path, by
// peer index.
func withdraw(tb *Table, peer uint16, prefix netip.Prefix) bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.withdrawLocked(peer, prefix)
}

func newTable(t *testing.T) (*Table, uint16, uint16) {
	t.Helper()
	tb := New()
	p0 := tb.AddPeer(Peer{BGPID: netip.MustParseAddr("10.0.0.1"), Addr: netip.MustParseAddr("10.0.0.1"), ASN: 3333})
	p1 := tb.AddPeer(Peer{BGPID: netip.MustParseAddr("10.0.0.2"), Addr: netip.MustParseAddr("2001:db8::2"), ASN: 196615})
	return tb, p0, p1
}

func TestInsertAndQueries(t *testing.T) {
	tb, p0, p1 := newTable(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tb.Insert(Route{Prefix: netutil.MustPrefix("193.0.0.0/16"), PeerIndex: p0, Path: seq(3333, 680), NextHop: netip.MustParseAddr("10.0.0.1")}))
	must(tb.Insert(Route{Prefix: netutil.MustPrefix("193.0.6.0/24"), PeerIndex: p0, Path: seq(3333, 680, 25152), NextHop: netip.MustParseAddr("10.0.0.1")}))
	must(tb.Insert(Route{Prefix: netutil.MustPrefix("193.0.6.0/24"), PeerIndex: p1, Path: seq(196615, 25152), NextHop: netip.MustParseAddr("10.0.0.2")}))

	if tb.Len() != 2 || len(snapshot(tb)) != 3 {
		t.Fatalf("Len/Routes = %d/%d, want 2/3", tb.Len(), len(snapshot(tb)))
	}
	addr := netip.MustParseAddr("193.0.6.139")
	cov := tb.Covering(addr)
	if len(cov) != 2 || cov[0].String() != "193.0.0.0/16" || cov[1].String() != "193.0.6.0/24" {
		t.Fatalf("Covering = %v", cov)
	}
	if !tb.Reachable(addr) {
		t.Error("Reachable = false")
	}
	if tb.Reachable(netip.MustParseAddr("8.8.8.8")) {
		t.Error("unrouted address reported reachable")
	}
	pairs := tb.OriginPairs(addr)
	want := []PrefixOrigin{
		{netutil.MustPrefix("193.0.0.0/16"), 680},
		{netutil.MustPrefix("193.0.6.0/24"), 25152},
	}
	if len(pairs) != 2 || pairs[0] != want[0] || pairs[1] != want[1] {
		t.Fatalf("OriginPairs = %v, want %v", pairs, want)
	}
}

func TestOriginPairsExcludesASSet(t *testing.T) {
	tb, p0, p1 := newTable(t)
	tb.Insert(Route{Prefix: netutil.MustPrefix("10.0.0.0/8"), PeerIndex: p0, Path: []bgp.Segment{
		{Type: bgp.SegmentSequence, ASNs: []uint32{3333}},
		{Type: bgp.SegmentSet, ASNs: []uint32{1, 2}},
	}, NextHop: netip.MustParseAddr("10.0.0.1")})
	if got := tb.OriginPairs(netip.MustParseAddr("10.1.2.3")); len(got) != 0 {
		t.Fatalf("AS_SET route produced origin pairs: %v", got)
	}
	// But the prefix is still "reachable" (announced).
	if !tb.Reachable(netip.MustParseAddr("10.1.2.3")) {
		t.Error("AS_SET route not counted as reachable")
	}
	// A second peer with a clean path yields exactly one pair.
	tb.Insert(Route{Prefix: netutil.MustPrefix("10.0.0.0/8"), PeerIndex: p1, Path: seq(196615, 7), NextHop: netip.MustParseAddr("10.0.0.2")})
	got := tb.OriginPairs(netip.MustParseAddr("10.1.2.3"))
	if len(got) != 1 || got[0].Origin != 7 {
		t.Fatalf("OriginPairs = %v", got)
	}
}

func TestOriginPairsDeduplicates(t *testing.T) {
	tb, p0, p1 := newTable(t)
	// Two peers, same origin.
	tb.Insert(Route{Prefix: netutil.MustPrefix("10.0.0.0/8"), PeerIndex: p0, Path: seq(3333, 7), NextHop: netip.MustParseAddr("10.0.0.1")})
	tb.Insert(Route{Prefix: netutil.MustPrefix("10.0.0.0/8"), PeerIndex: p1, Path: seq(196615, 9, 7), NextHop: netip.MustParseAddr("10.0.0.2")})
	got := tb.OriginPairs(netip.MustParseAddr("10.0.0.1"))
	if len(got) != 1 || got[0].Origin != 7 {
		t.Fatalf("OriginPairs = %v, want single AS7 entry", got)
	}
}

func TestMOASVisible(t *testing.T) {
	tb, p0, p1 := newTable(t)
	// Multi-origin AS conflict: two peers see different origins.
	tb.Insert(Route{Prefix: netutil.MustPrefix("10.0.0.0/8"), PeerIndex: p0, Path: seq(3333, 7), NextHop: netip.MustParseAddr("10.0.0.1")})
	tb.Insert(Route{Prefix: netutil.MustPrefix("10.0.0.0/8"), PeerIndex: p1, Path: seq(196615, 8), NextHop: netip.MustParseAddr("10.0.0.2")})
	got := tb.OriginPairs(netip.MustParseAddr("10.0.0.1"))
	if len(got) != 2 {
		t.Fatalf("MOAS OriginPairs = %v, want 2", got)
	}
}

func TestWithdraw(t *testing.T) {
	tb, p0, p1 := newTable(t)
	pfx := netutil.MustPrefix("10.0.0.0/8")
	tb.Insert(Route{Prefix: pfx, PeerIndex: p0, Path: seq(7), NextHop: netip.MustParseAddr("10.0.0.1")})
	tb.Insert(Route{Prefix: pfx, PeerIndex: p1, Path: seq(8), NextHop: netip.MustParseAddr("10.0.0.2")})
	if !withdraw(tb, p0, pfx) {
		t.Fatal("Withdraw returned false")
	}
	if withdraw(tb, p0, pfx) {
		t.Fatal("double Withdraw returned true")
	}
	if tb.Len() != 1 || len(snapshot(tb)) != 1 {
		t.Fatalf("Len/Routes = %d/%d", tb.Len(), len(snapshot(tb)))
	}
	if !withdraw(tb, p1, pfx) {
		t.Fatal("second Withdraw failed")
	}
	if tb.Len() != 0 || tb.Reachable(netip.MustParseAddr("10.0.0.1")) {
		t.Error("prefix still present after full withdrawal")
	}
}

func TestInsertValidation(t *testing.T) {
	tb, _, _ := newTable(t)
	if err := tb.Insert(Route{Prefix: netip.Prefix{}, PeerIndex: 0}); err == nil {
		t.Error("invalid prefix accepted")
	}
	if err := tb.Insert(Route{Prefix: netutil.MustPrefix("10.0.0.0/8"), PeerIndex: 99}); err == nil {
		t.Error("unknown peer accepted")
	}
}

func TestApplyEvents(t *testing.T) {
	tb := New()
	ev := bgp.RouteEvent{
		PeerAS: 3333, PeerID: netip.MustParseAddr("10.0.0.1"),
		Prefix: netutil.MustPrefix("193.0.0.0/16"),
		Path:   seq(3333, 680), NextHop: netip.MustParseAddr("10.0.0.1"),
	}
	if err := tb.Apply(ev); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Fatal("route not applied")
	}
	// Withdraw via event.
	if err := tb.Apply(bgp.RouteEvent{PeerAS: 3333, PeerID: netip.MustParseAddr("10.0.0.1"), Prefix: netutil.MustPrefix("193.0.0.0/16"), Withdraw: true}); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 0 {
		t.Fatal("route not withdrawn")
	}
}

func TestWalkRoutesOrderAndStop(t *testing.T) {
	tb, p0, p1 := newTable(t)
	tb.Insert(Route{Prefix: netutil.MustPrefix("10.0.0.0/8"), PeerIndex: p1, Path: seq(1), NextHop: netip.MustParseAddr("10.0.0.2")})
	tb.Insert(Route{Prefix: netutil.MustPrefix("10.0.0.0/8"), PeerIndex: p0, Path: seq(2), NextHop: netip.MustParseAddr("10.0.0.1")})
	tb.Insert(Route{Prefix: netutil.MustPrefix("11.0.0.0/8"), PeerIndex: p0, Path: seq(3), NextHop: netip.MustParseAddr("10.0.0.1")})
	var seen []Route
	tb.WalkRoutes(func(r Route) bool {
		seen = append(seen, r)
		return true
	})
	if len(seen) != 3 {
		t.Fatalf("walked %d routes", len(seen))
	}
	if seen[0].PeerIndex != p0 || seen[1].PeerIndex != p1 {
		t.Error("routes within a prefix not ordered by peer index")
	}
	n := 0
	tb.WalkRoutes(func(Route) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestSnapshotMutationSafe(t *testing.T) {
	tb := New()
	p0 := tb.AddPeer(Peer{BGPID: netip.MustParseAddr("10.0.0.1"), ASN: 1})
	tb.Insert(Route{Prefix: netutil.MustPrefix("10.0.0.0/8"), PeerIndex: p0, Path: seq(1), NextHop: netip.MustParseAddr("10.0.0.1")})
	tb.Insert(Route{Prefix: netutil.MustPrefix("11.0.0.0/8"), PeerIndex: p0, Path: seq(2), NextHop: netip.MustParseAddr("10.0.0.1")})
	snap := snapshot(tb)
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d routes, want 2", len(snap))
	}
	// Mutating the table while iterating a copy of its routes must be
	// safe.
	for _, r := range snap {
		if !withdraw(tb, r.PeerIndex, r.Prefix) {
			t.Errorf("withdraw %v failed", r.Prefix)
		}
	}
	if tb.Len() != 0 {
		t.Errorf("table not empty after withdrawing the snapshot: %d", tb.Len())
	}
	if len(snapshot(tb)) != 0 {
		t.Error("snapshot of empty table not empty")
	}
}

// originPairsOracle is OriginPairs as it was before the per-prefix
// routes were kept sorted: collect, dedupe through a map, sort.
func originPairsOracle(tb *Table, addr netip.Addr) []PrefixOrigin {
	var out []PrefixOrigin
	seen := make(map[PrefixOrigin]bool)
	tb.WalkRoutes(func(r Route) bool {
		origin, ok := bgp.OriginAS(r.Path)
		po := PrefixOrigin{Prefix: r.Prefix, Origin: origin}
		if ok && r.Prefix.Contains(addr) && !seen[po] {
			seen[po] = true
			out = append(out, po)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if c := netutil.ComparePrefixes(out[i].Prefix, out[j].Prefix); c != 0 {
			return c < 0
		}
		return out[i].Origin < out[j].Origin
	})
	return out
}

// randomRoute draws from nested v4 and v6 prefixes, a few peers and a
// few origins, so one address is covered at several lengths, the same
// pair arrives from several peers, and some paths end in an AS_SET.
func randomRoute(rnd *rand.Rand, peers int) Route {
	var p netip.Prefix
	if rnd.Intn(3) == 0 {
		p = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(rnd.Intn(2))}), 32+8*rnd.Intn(3)).Masked()
	} else {
		p = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rnd.Intn(2)), byte(16 * rnd.Intn(3)), 0}), 8+4*rnd.Intn(5)).Masked()
	}
	path := seq(64500, uint32(65001+rnd.Intn(4)))
	if rnd.Intn(8) == 0 {
		path = append(path, bgp.Segment{Type: bgp.SegmentSet, ASNs: []uint32{1, 2}})
	}
	return Route{Prefix: p, PeerIndex: uint16(rnd.Intn(peers)), Path: path}
}

func TestOriginPairsMatchesOracle(t *testing.T) {
	probes := []netip.Addr{
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.16.9"), netip.MustParseAddr("10.1.32.1"),
		netip.MustParseAddr("10.1.0.255"), netip.MustParseAddr("11.0.0.1"),
		netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8:100::1"), netip.MustParseAddr("2001:db9::1"),
	}
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		tb := New()
		const peers = 5
		for i := 0; i < peers; i++ {
			tb.AddPeer(Peer{BGPID: netip.AddrFrom4([4]byte{10, 255, 0, byte(i)}), ASN: uint32(64500 + i)})
		}
		for step := 0; step < 300; step++ {
			r := randomRoute(rnd, peers)
			if rnd.Intn(4) == 0 {
				withdraw(tb, r.PeerIndex, r.Prefix)
			} else if err := tb.Insert(r); err != nil {
				t.Fatal(err)
			}
			if step%10 != 9 {
				continue
			}
			// One buffer takes every probe's pairs in turn: what it held
			// before a call must come through it untouched, with exactly
			// that address's pairs after it.
			buf := []PrefixOrigin{{Origin: 0xdead}}
			for _, addr := range probes {
				want := originPairsOracle(tb, addr)
				if got := tb.OriginPairs(addr); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: OriginPairs(%v) = %v, oracle says %v", seed, step, addr, got, want)
				}
				held := slices.Clone(buf)
				buf = tb.AppendOriginPairs(buf, addr)
				if !slices.Equal(buf[:len(held)], held) || !slices.Equal(buf[len(held):], want) {
					t.Fatalf("seed %d step %d: AppendOriginPairs(%v, %v) = %v, oracle says %v after it", seed, step, held, addr, buf, want)
				}
			}
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	base, _, _ := newTable(t)
	for i := 0; i < 60; i++ {
		if err := base.Insert(randomRoute(rnd, 2)); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshot(base)

	a, b := base.Clone(), base.Clone()
	// Each side goes its own way: a new peer and routes on a, withdrawals
	// on b; the base and the sibling must not notice.
	p2 := a.AddPeer(Peer{BGPID: netip.MustParseAddr("10.0.0.3"), ASN: 64999})
	for i := 0; i < 40; i++ {
		r := randomRoute(rnd, 2)
		r.PeerIndex = p2
		if err := a.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range want[:len(want)/2] {
		if !withdraw(b, r.PeerIndex, r.Prefix) {
			t.Fatalf("withdraw %v from clone failed", r.Prefix)
		}
	}
	same := func(x, y []Route) bool {
		return slices.EqualFunc(x, y, func(p, q Route) bool {
			return p.Prefix == q.Prefix && p.PeerIndex == q.PeerIndex && slices.EqualFunc(p.Path, q.Path,
				func(s, u bgp.Segment) bool { return s.Type == u.Type && slices.Equal(s.ASNs, u.ASNs) })
		})
	}
	if got := snapshot(base); !same(got, want) || len(base.Peers()) != 2 {
		t.Errorf("writes on clones reached the base: %d routes, %d peers", len(got), len(base.Peers()))
	}
	if len(snapshot(a)) <= len(want) || len(a.Peers()) != 3 {
		t.Errorf("clone a: %d routes, %d peers", len(snapshot(a)), len(a.Peers()))
	}
	if got := snapshot(b); !same(got, want[len(want)/2:]) {
		t.Errorf("clone b holds %d routes, want the %d not withdrawn", len(got), len(want)-len(want)/2)
	}
	// And the other direction: a write on the base after cloning.
	if !withdraw(base, want[len(want)-1].PeerIndex, want[len(want)-1].Prefix) {
		t.Fatal("withdraw from base failed")
	}
	if got := snapshot(b); !same(got, want[len(want)/2:]) {
		t.Error("a write on the base reached a clone")
	}
}

// TestEqualInsertIsNoop: storing the route a peer already has for a
// prefix, field for field, writes nothing — no allocation, so no node of
// a tree shared with a clone is copied — through Insert and through
// Apply alike, while a route that differs in any one field replaces.
func TestEqualInsertIsNoop(t *testing.T) {
	tb, p0, _ := newTable(t)
	p := netutil.MustPrefix("203.0.113.0/24")
	hop := netip.MustParseAddr("10.0.0.1")
	route := Route{Prefix: p, PeerIndex: p0, Path: seq(3333, 64500), NextHop: hop}
	ev := bgp.RouteEvent{PeerAS: 3333, PeerID: hop, Prefix: netutil.MustPrefix("198.51.100.0/24"), Path: seq(3333, 64501), NextHop: hop}
	if err := tb.Insert(route); err != nil {
		t.Fatal(err)
	}
	if err := tb.Apply(ev); err != nil {
		t.Fatal(err)
	}
	clone := tb.Clone()
	held := func(tb *Table, p netip.Prefix) Route {
		t.Helper()
		for _, r := range snapshot(tb) {
			if r.Prefix == p {
				return r
			}
		}
		t.Fatalf("no route for %v", p)
		return Route{}
	}

	// Equal by content: a path in another backing array is the same path.
	again := route
	again.Path = seq(3333, 64500)
	allocs := testing.AllocsPerRun(10, func() {
		if err := tb.Insert(again); err != nil {
			t.Fatal(err)
		}
		if err := tb.Apply(ev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || len(snapshot(tb)) != 2 {
		t.Errorf("re-storing equal routes: %v allocations, %d routes; want 0 and 2", allocs, len(snapshot(tb)))
	}
	if added, err := tb.AnnounceEvent(ev); added || err != nil {
		t.Errorf("AnnounceEvent of a held route = %v, %v; want false, nil", added, err)
	}

	for name, differ := range map[string]func(*Route){
		"Path":    func(r *Route) { r.Path = seq(3333, 64999) },
		"NextHop": func(r *Route) { r.NextHop = netip.MustParseAddr("10.0.0.9") },
	} {
		next := route
		differ(&next)
		if err := tb.Insert(next); err != nil {
			t.Fatal(err)
		}
		got := held(tb, p)
		if sameRoute(got, route) || !sameRoute(got, next) || len(snapshot(tb)) != 2 {
			t.Errorf("a route differing only in %s did not replace: holds %+v (%d routes)", name, got, len(snapshot(tb)))
		}
		if err := tb.Insert(route); err != nil {
			t.Fatal(err)
		}
	}
	if got := held(clone, p); !sameRoute(got, route) || len(snapshot(clone)) != 2 {
		t.Errorf("writes after Clone reached the clone: %+v (%d routes)", got, len(snapshot(clone)))
	}
	if added, err := tb.AnnounceEvent(bgp.RouteEvent{PeerAS: 3333, PeerID: hop, Prefix: netutil.MustPrefix("192.0.2.0/24"), Path: seq(3333, 64502), NextHop: hop}); !added || err != nil || len(snapshot(tb)) != 3 {
		t.Errorf("AnnounceEvent of a new route = %v, %v (%d routes); want true, nil, 3", added, err, len(snapshot(tb)))
	}
}
