package router

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ripki/internal/bgp"
	"ripki/internal/rib"
	"ripki/internal/rpki/vrp"
)

// hostileTable draws a routing table from the interleaver's prefixes,
// origins and peers: nested prefixes, MOAS (one prefix, several peers,
// different origins), AS_SET-terminated and empty paths. The peers are
// registered in a random order and one may send nothing, so the
// table's peer numbering is not the order a replay first meets them in.
func hostileTable(rnd *rand.Rand) (*rib.Table, error) {
	tb := rib.New()
	idx := make([]uint16, len(ilPeers))
	for _, i := range rnd.Perm(len(ilPeers)) {
		idx[i] = tb.AddPeer(rib.Peer{BGPID: ilPeers[i].id, Addr: ilPeers[i].id, ASN: ilPeers[i].as})
	}
	for n := 5 + rnd.Intn(25); n > 0; n-- {
		i := rnd.Intn(len(ilPeers))
		var path []bgp.Segment
		switch rnd.Intn(8) {
		case 0: // no origin at all
		case 1:
			path = []bgp.Segment{
				{Type: bgp.SegmentSequence, ASNs: []uint32{ilPeers[i].as}},
				{Type: bgp.SegmentSet, ASNs: []uint32{ilOrigins[0], ilOrigins[1]}},
			}
		default:
			path = []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: []uint32{ilPeers[i].as, ilOrigins[rnd.Intn(len(ilOrigins))]}}}
		}
		route := rib.Route{Prefix: ilPrefixes[rnd.Intn(len(ilPrefixes))], PeerIndex: idx[i], Path: path, NextHop: ilPeers[i].id}
		if _, err := tb.Insert(route); err != nil {
			return nil, err
		}
	}
	return tb, nil
}

// tableRoutes lists a table's routes in walk order.
func tableRoutes(tb *rib.Table) []rib.Route {
	var out []rib.Route
	tb.WalkRoutes(func(rt rib.Route) bool {
		out = append(out, rt)
		return true
	})
	return out
}

// sameRouter reports how two routers differ: local RIB, Forward and
// Adj-RIB-In, each compared by prefix and sending peer.
func sameRouter(got, want *Router) error {
	if err := sameRouting(got, want); err != nil {
		return err
	}
	if g, w := adjRoutes(got), adjRoutes(want); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("Adj-RIB-In diverged\n got %v\nwant %v", g, w)
	}
	return nil
}

// TestSeedMatchesReplay: a router NewFromTable seeds from a hostile
// table is the router that replays the table through Process — local
// RIB, Adj-RIB-In and Forward — under both policies and a VRP set that
// makes some of the routes Invalid. Driven afterwards by the same random
// script of announcements, withdrawals and scoped revalidations, the
// two stay equal step by step, and the table they came from is not
// written by either.
func TestSeedMatchesReplay(t *testing.T) {
	rejected := 0
	for _, policy := range []Policy{PolicyAcceptAll, PolicyDropInvalid} {
		for seed := int64(1); seed <= 40; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			tb, err := hostileTable(rnd)
			if err != nil {
				t.Fatal(err)
			}
			before := tableRoutes(tb)
			set := vrp.NewSet()
			draw := &interleaver{set: set, rnd: rnd}
			for n := 2 + rnd.Intn(5); n > 0; n-- {
				if err := set.Add(draw.randomVRP()); err != nil {
					t.Fatal(err)
				}
			}

			seededSet, replaySet := set.Clone(), set.Clone()
			seeded := &interleaver{r: NewFromTable(tb, StaticVRPs{VRPs: seededSet}, policy), set: seededSet, rnd: rand.New(rand.NewSource(seed))}
			replay := &interleaver{r: seedFromTable(t, tb, replaySet, policy), set: replaySet, rnd: rand.New(rand.NewSource(seed))}
			if err := sameRouter(seeded.r, replay.r); err != nil {
				t.Fatalf("%v seed %d: seeded vs replayed: %v", policy, seed, err)
			}
			rejected += len(adjRoutes(replay.r)) - len(ribContents(replay.r))

			for step := 0; step < 60; step++ {
				what, err := seeded.step()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := replay.step(); err != nil {
					t.Fatal(err)
				}
				if err := sameRouter(seeded.r, replay.r); err != nil {
					t.Fatalf("%v seed %d step %d (%s): seeded vs replayed: %v", policy, seed, step, what, err)
				}
			}
			if after := tableRoutes(tb); !reflect.DeepEqual(after, before) {
				t.Fatalf("%v seed %d: the seeding table changed under its router", policy, seed)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no seed rejected a route: the tables never exercise policy")
	}
}
