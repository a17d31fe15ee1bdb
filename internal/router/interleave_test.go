package router

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"ripki/internal/bgp"
	"ripki/internal/rpki/vrp"
)

// ribContents flattens a router's local RIB to "prefix via peer" → path,
// independent of the order the table first met its peers in.
func ribContents(r *Router) map[string]string {
	peers := r.Table().Peers()
	out := make(map[string]string)
	for _, rt := range r.Table().Snapshot() {
		p := peers[rt.PeerIndex]
		out[fmt.Sprintf("%v via AS%d/%v", rt.Prefix, p.ASN, p.BGPID)] = fmt.Sprint(rt.Path)
	}
	return out
}

// TestRevalidateAffectedRandomInterleavings is the router-side twin of
// measure's TestIncrementalRandomInterleavings: under seeded random
// interleavings of announcements, withdrawals and VRP issues/revokes
// from several peers, a router kept current by Process and
// RevalidateAffected must be indistinguishable — local RIB, Forward for
// an address inside every prefix in play, depreference marks — from a
// fresh router that is handed the surviving Adj-RIB-In under the
// current VRP set. Nested prefixes, few origins and few peers keep the
// collisions (same pair from two peers, re-announcement under a changed
// ROA, replacement by a rejected route) frequent.
func TestRevalidateAffectedRandomInterleavings(t *testing.T) {
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/16"),
		netip.MustParsePrefix("10.0.0.0/20"),
		netip.MustParsePrefix("10.0.4.0/22"),
		netip.MustParsePrefix("10.0.4.0/24"),
		netip.MustParsePrefix("10.0.16.0/20"),
		netip.MustParsePrefix("10.0.16.0/24"),
		netip.MustParsePrefix("2001:db8::/32"),
		netip.MustParsePrefix("2001:db8:1::/48"),
	}
	origins := []uint32{65001, 65002, 65003}
	peers := []struct {
		as uint32
		id netip.Addr
	}{
		{64500, netip.MustParseAddr("10.255.0.1")},
		{64501, netip.MustParseAddr("10.255.0.2")},
		{64502, netip.MustParseAddr("10.255.0.3")},
	}
	for _, policy := range []Policy{PolicyAcceptAll, PolicyDropInvalid, PolicyPreferValid} {
		for seed := int64(1); seed <= 12; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			set := vrp.NewSet()
			r := NewWithPolicy(StaticVRPs{VRPs: set}, policy)
			for step := 0; step < 250; step++ {
				var what string
				peer := peers[rnd.Intn(len(peers))]
				prefix := prefixes[rnd.Intn(len(prefixes))]
				switch op := rnd.Intn(10); {
				case op < 4:
					path := []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: []uint32{peer.as, origins[rnd.Intn(len(origins))]}}}
					if rnd.Intn(12) == 0 {
						path = append(path, bgp.Segment{Type: bgp.SegmentSet, ASNs: []uint32{1, 2}})
					}
					what = fmt.Sprintf("announce %v %v from AS%d", prefix, path, peer.as)
					if _, err := r.Process(bgp.RouteEvent{PeerAS: peer.as, PeerID: peer.id, Prefix: prefix, Path: path, NextHop: peer.id}); err != nil {
						t.Fatal(err)
					}
				case op < 6:
					what = fmt.Sprintf("withdraw %v from AS%d", prefix, peer.as)
					if _, err := r.Process(bgp.RouteEvent{PeerAS: peer.as, PeerID: peer.id, Prefix: prefix, Withdraw: true}); err != nil {
						t.Fatal(err)
					}
				default:
					// One RTR sync: a few VRP moves, then one scoped pass.
					var changed []netip.Prefix
					for n := 1 + rnd.Intn(3); n > 0; n-- {
						if all := set.All(); len(all) > 0 && rnd.Intn(2) == 0 {
							v := all[rnd.Intn(len(all))]
							set.Remove(v)
							changed = append(changed, v.Prefix)
							continue
						}
						p := prefixes[rnd.Intn(len(prefixes))]
						v := vrp.VRP{Prefix: p, MaxLength: p.Bits() + rnd.Intn(2)*4, ASN: origins[rnd.Intn(len(origins))]}
						if err := set.Add(v); err != nil {
							t.Fatal(err)
						}
						changed = append(changed, p)
					}
					what = fmt.Sprintf("VRP moves at %v", changed)
					res := r.RevalidateAffected(changed)
					if res.Deprefered != len(r.deprefered) {
						t.Fatalf("%v seed %d step %d (%s): result counts %d marks, router holds %d",
							policy, seed, step, what, res.Deprefered, len(r.deprefered))
					}
				}

				fresh := NewWithPolicy(StaticVRPs{VRPs: set}, policy)
				for _, ev := range r.adjIn {
					if _, err := fresh.Process(ev); err != nil {
						t.Fatal(err)
					}
				}
				at := fmt.Sprintf("%v seed %d step %d (%s)", policy, seed, step, what)
				if got, want := ribContents(r), ribContents(fresh); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: local RIB diverged\n got %v\nwant %v", at, got, want)
				}
				if !reflect.DeepEqual(r.deprefered, fresh.deprefered) {
					t.Fatalf("%s: depreference marks diverged (%d vs %d)\n got %v\nwant %v",
						at, len(r.deprefered), len(fresh.deprefered), r.deprefered, fresh.deprefered)
				}
				for _, p := range prefixes {
					got, gok := r.Forward(p.Addr().Next())
					want, wok := fresh.Forward(p.Addr().Next())
					if got != want || gok != wok {
						t.Fatalf("%s: Forward(%v) = %v, %v; fresh router says %v, %v", at, p.Addr().Next(), got, gok, want, wok)
					}
				}
			}
		}
	}
}
