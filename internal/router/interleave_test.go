package router

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ripki/internal/bgp"
	"ripki/internal/netutil"
	"ripki/internal/rib"
	"ripki/internal/rpki/vrp"
)

// ribContents flattens a router's local RIB to "prefix via peer" → path,
// independent of the order the table first met its peers in.
func ribContents(r *Router) map[string]string {
	peers := r.table.Peers()
	out := make(map[string]string)
	r.table.WalkRoutes(func(rt rib.Route) bool {
		p := peers[rt.PeerIndex]
		out[fmt.Sprintf("%v via AS%d/%v", rt.Prefix, p.ASN, p.BGPID)] = fmt.Sprint(rt.Path)
		return true
	})
	return out
}

// adjRoutes lists a router's Adj-RIB-In as the announcements it holds,
// ordered by prefix and then by the sending peer's AS and ID: not by
// peer index, which follows the order a table first met its peers in
// and so differs between a seeded router and a replayed one.
func adjRoutes(r *Router) []bgp.RouteEvent {
	peers := r.adjIn.Peers()
	var out []bgp.RouteEvent
	r.adjIn.WalkRoutes(func(rt rib.Route) bool {
		p := peers[rt.PeerIndex]
		out = append(out, bgp.RouteEvent{PeerAS: p.ASN, PeerID: p.BGPID, Prefix: rt.Prefix, Path: rt.Path, NextHop: rt.NextHop})
		return true
	})
	slices.SortFunc(out, func(a, b bgp.RouteEvent) int {
		return cmp.Or(netutil.ComparePrefixes(a.Prefix, b.Prefix), cmp.Compare(a.PeerAS, b.PeerAS), a.PeerID.Compare(b.PeerID))
	})
	return out
}

// Nested prefixes, few origins and few peers keep the collisions (same
// pair from two peers, re-announcement under a changed ROA, replacement
// by a rejected route) frequent.
var (
	ilPrefixes = []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/16"),
		netip.MustParsePrefix("10.0.0.0/20"),
		netip.MustParsePrefix("10.0.4.0/22"),
		netip.MustParsePrefix("10.0.4.0/24"),
		netip.MustParsePrefix("10.0.16.0/20"),
		netip.MustParsePrefix("10.0.16.0/24"),
		netip.MustParsePrefix("2001:db8::/32"),
		netip.MustParsePrefix("2001:db8:1::/48"),
	}
	ilOrigins = []uint32{65001, 65002, 65003}
	ilPeers   = []struct {
		as uint32
		id netip.Addr
	}{
		{64500, netip.MustParseAddr("10.255.0.1")},
		{64501, netip.MustParseAddr("10.255.0.2")},
		{64502, netip.MustParseAddr("10.255.0.3")},
	}
)

// interleaver drives one router, and the VRP set behind it, with a
// seeded random stream of announcements, withdrawals and VRP moves. The
// stream is a function of the seed and of the set's contents alone, so
// two interleavers started from equal sets with equal seeds issue the
// same operations.
type interleaver struct {
	r   *Router
	set *vrp.Set
	rnd *rand.Rand
}

// randomVRP draws a VRP at one of the prefixes in play.
func (x *interleaver) randomVRP() vrp.VRP {
	p := ilPrefixes[x.rnd.Intn(len(ilPrefixes))]
	return vrp.VRP{Prefix: p, MaxLength: p.Bits() + x.rnd.Intn(2)*4, ASN: ilOrigins[x.rnd.Intn(len(ilOrigins))]}
}

// step performs one random operation and describes it.
func (x *interleaver) step() (what string, err error) {
	rnd := x.rnd
	peer := ilPeers[rnd.Intn(len(ilPeers))]
	prefix := ilPrefixes[rnd.Intn(len(ilPrefixes))]
	switch op := rnd.Intn(10); {
	case op < 4:
		path := []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: []uint32{peer.as, ilOrigins[rnd.Intn(len(ilOrigins))]}}}
		if rnd.Intn(12) == 0 {
			path = append(path, bgp.Segment{Type: bgp.SegmentSet, ASNs: []uint32{1, 2}})
		}
		what = fmt.Sprintf("announce %v %v from AS%d", prefix, path, peer.as)
		_, err = x.r.Process(bgp.RouteEvent{PeerAS: peer.as, PeerID: peer.id, Prefix: prefix, Path: path, NextHop: peer.id})
	case op < 6:
		what = fmt.Sprintf("withdraw %v from AS%d", prefix, peer.as)
		_, err = x.r.Process(bgp.RouteEvent{PeerAS: peer.as, PeerID: peer.id, Prefix: prefix, Withdraw: true})
	default:
		// One RTR sync: a few VRP moves, then one scoped pass.
		var changed []netip.Prefix
		for n := 1 + rnd.Intn(3); n > 0; n-- {
			if all := x.set.All(); len(all) > 0 && rnd.Intn(2) == 0 {
				v := all[rnd.Intn(len(all))]
				x.set.Remove(v)
				changed = append(changed, v.Prefix)
				continue
			}
			v := x.randomVRP()
			if err := x.set.Add(v); err != nil {
				return "", err
			}
			changed = append(changed, v.Prefix)
		}
		what = fmt.Sprintf("VRP moves at %v", changed)
		x.r.RevalidateAffected(changed)
	}
	return what, err
}

// sameRouting reports how two routers differ in what they route: local
// RIB and Forward for an address inside every prefix in play.
func sameRouting(got, want *Router) error {
	if g, w := ribContents(got), ribContents(want); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("local RIB diverged\n got %v\nwant %v", g, w)
	}
	for _, p := range ilPrefixes {
		g, gok := got.Forward(p.Addr().Next())
		w, wok := want.Forward(p.Addr().Next())
		if g != w || gok != wok {
			return fmt.Errorf("Forward(%v) = %v, %v; want %v, %v", p.Addr().Next(), g, gok, w, wok)
		}
	}
	return nil
}

// TestRevalidateAffectedRandomInterleavings is the router-side twin of
// measure's TestIncrementalRandomInterleavings: under seeded random
// interleavings of announcements, withdrawals and VRP issues/revokes
// from several peers, a router kept current by Process and
// RevalidateAffected must be indistinguishable — local RIB and Forward
// for an address inside every prefix in play — from a
// fresh router that is handed the surviving Adj-RIB-In under the
// current VRP set.
func TestRevalidateAffectedRandomInterleavings(t *testing.T) {
	for _, policy := range []Policy{PolicyAcceptAll, PolicyDropInvalid} {
		for seed := int64(1); seed <= 12; seed++ {
			set := vrp.NewSet()
			x := &interleaver{r: NewWithPolicy(StaticVRPs{VRPs: set}, policy), set: set, rnd: rand.New(rand.NewSource(seed))}
			for step := 0; step < 250; step++ {
				what, err := x.step()
				at := fmt.Sprintf("%v seed %d step %d (%s)", policy, seed, step, what)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				fresh := NewWithPolicy(StaticVRPs{VRPs: set}, policy)
				for _, ev := range adjRoutes(x.r) {
					if _, err := fresh.Process(ev); err != nil {
						t.Fatal(err)
					}
				}
				if err := sameRouting(x.r, fresh); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
			}
		}
	}
}

// TestForksReplayIndependently is the sharing contract sim.New rests
// on: K forks of one seeded template, each driven by its own random
// stream on its own goroutine (run under -race), must each end up
// exactly where a fresh router ends up that replayed the seed and then
// the same stream through Process — local RIB, Forward and Adj-RIB-In
// — and the template must afterwards still equal a fresh seed.
func TestForksReplayIndependently(t *testing.T) {
	const forks, steps = 6, 200
	for _, policy := range []Policy{PolicyAcceptAll, PolicyDropInvalid} {
		// The seed: a VRP set and a table's worth of announcements, some
		// of them invalid under it.
		seedSet := vrp.NewSet()
		seeder := &interleaver{set: seedSet, rnd: rand.New(rand.NewSource(99))}
		for i := 0; i < 6; i++ {
			if err := seedSet.Add(seeder.randomVRP()); err != nil {
				t.Fatal(err)
			}
		}
		var seedEvents []bgp.RouteEvent
		for _, p := range ilPrefixes {
			for _, peer := range ilPeers[:2] {
				path := []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: []uint32{peer.as, ilOrigins[seeder.rnd.Intn(len(ilOrigins))]}}}
				seedEvents = append(seedEvents, bgp.RouteEvent{PeerAS: peer.as, PeerID: peer.id, Prefix: p, Path: path, NextHop: peer.id})
			}
		}
		seeded := func(set *vrp.Set) *Router {
			r := NewWithPolicy(StaticVRPs{VRPs: set}, policy)
			for _, ev := range seedEvents {
				if _, err := r.Process(ev); err != nil {
					t.Fatal(err)
				}
			}
			return r
		}
		template := seeded(seedSet)

		got := make([]*interleaver, forks)
		errs := make([]error, forks)
		var wg sync.WaitGroup
		for i := range got {
			set := seedSet.Clone()
			got[i] = &interleaver{r: template.Fork(StaticVRPs{VRPs: set}), set: set, rnd: rand.New(rand.NewSource(int64(i)))}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for step := 0; step < steps && errs[i] == nil; step++ {
					_, errs[i] = got[i].step()
				}
			}()
		}
		wg.Wait()

		for i, x := range got {
			if errs[i] != nil {
				t.Fatalf("%v fork %d: %v", policy, i, errs[i])
			}
			set := seedSet.Clone()
			want := &interleaver{r: seeded(set), set: set, rnd: rand.New(rand.NewSource(int64(i)))}
			for step := 0; step < steps; step++ {
				if _, err := want.step(); err != nil {
					t.Fatal(err)
				}
			}
			if err := sameRouting(x.r, want.r); err != nil {
				t.Errorf("%v fork %d vs replay: %v", policy, i, err)
			}
			if g, w := adjRoutes(x.r), adjRoutes(want.r); !reflect.DeepEqual(g, w) {
				t.Errorf("%v fork %d vs replay: Adj-RIB-In holds %d routes, want %d", policy, i, len(g), len(w))
			}
		}
		fresh := seeded(seedSet)
		if err := sameRouting(template, fresh); err != nil {
			t.Errorf("%v: template changed under its forks: %v", policy, err)
		}
		if g, w := adjRoutes(template), adjRoutes(fresh); !reflect.DeepEqual(g, w) {
			t.Errorf("%v: template Adj-RIB-In changed under its forks", policy)
		}
	}
}
