package router

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"ripki/internal/bgp"
	"ripki/internal/netutil"
	"ripki/internal/rib"
	"ripki/internal/rpki/vrp"
	"ripki/internal/webworld"
)

// seedFromTable replays a routing table through a fresh router, as
// sim.New does once per world.
func seedFromTable(t testing.TB, table *rib.Table, set *vrp.Set, policy Policy) *Router {
	t.Helper()
	r := NewWithPolicy(StaticVRPs{VRPs: set}, policy)
	peers := table.Peers()
	var err error
	table.WalkRoutes(func(rt rib.Route) bool {
		_, err = r.Process(bgp.RouteEvent{
			PeerAS: peers[rt.PeerIndex].ASN, PeerID: peers[rt.PeerIndex].BGPID,
			Prefix: rt.Prefix, Path: rt.Path, NextHop: rt.NextHop,
		})
		return err == nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestNoFlipRevalidationAllocatesNothing is the tick's cost contract: a
// delta-scoped pass that finds every decision standing examines its
// routes and writes nothing — not the local RIB, not the marks, not a
// scratch list. Zero allocations on a fork is also the sharing proof: a
// copy-on-write tree cannot be written without copying a node, so the
// fork still shares every node with the seed it came from.
func TestNoFlipRevalidationAllocatesNothing(t *testing.T) {
	w, err := webworld.Generate(webworld.Config{Seed: 1, Domains: 2000})
	if err != nil {
		t.Fatal(err)
	}
	set := w.Validation().VRPs
	// Every IPv4 route, then one routed prefix nested under it and
	// repeated: the whole table is examined, each route once.
	changed := []netip.Prefix{netip.MustParsePrefix("0.0.0.0/0")}
	if routed := w.RoutedV4Prefixes(); len(routed) > 0 {
		changed = append(changed, routed[0], routed[0])
	}
	for _, policy := range []Policy{PolicyAcceptAll, PolicyDropInvalid} {
		seeded := seedFromTable(t, w.RIB, set, policy)
		for name, r := range map[string]*Router{"seed": seeded, "fork": seeded.Fork(StaticVRPs{VRPs: set})} {
			var res RevalidationResult
			allocs := testing.AllocsPerRun(5, func() { res = r.RevalidateAffected(changed) })
			if res.Routes == 0 || res.Invalid == 0 {
				t.Fatalf("%v %s: pass examined %+v, want routes and some of them invalid", policy, name, res)
			}
			if res.Flipped != 0 || res.Dropped != 0 {
				t.Errorf("%v %s: unchanged VRP set flipped routes: %+v", policy, name, res)
			}
			if allocs != 0 {
				t.Errorf("%v %s: no-flip pass over %d routes made %v allocations, want 0", policy, name, res.Routes, allocs)
			}
		}
	}
}

// TestRevalidateAffectedAnyOrder: the changed list is a set to the
// caller — shuffled, repeated, nested or with host bits set, it leaves
// the router where a full Revalidate does and tallies what the sorted,
// de-duplicated list tallies, each affected route once.
func TestRevalidateAffectedAnyOrder(t *testing.T) {
	for _, policy := range []Policy{PolicyAcceptAll, PolicyDropInvalid} {
		for seed := int64(1); seed <= 20; seed++ {
			set := vrp.NewSet()
			x := &interleaver{r: NewWithPolicy(StaticVRPs{VRPs: set}, policy), set: set, rnd: rand.New(rand.NewSource(seed))}
			for step := 0; step < 120; step++ {
				if _, err := x.step(); err != nil {
					t.Fatal(err)
				}
			}
			// One RTR sync's worth of VRP moves, not yet revalidated.
			var moved []netip.Prefix
			for n := 2 + x.rnd.Intn(4); n > 0; n-- {
				if all := set.All(); len(all) > 0 && x.rnd.Intn(2) == 0 {
					v := all[x.rnd.Intn(len(all))]
					set.Remove(v)
					moved = append(moved, v.Prefix)
					continue
				}
				v := x.randomVRP()
				if err := set.Add(v); err != nil {
					t.Fatal(err)
				}
				moved = append(moved, v.Prefix)
			}
			clean := slices.Clone(moved)
			slices.SortFunc(clean, netutil.ComparePrefixes)
			clean = slices.Compact(clean)
			messy := append(slices.Clone(moved), moved...)
			for _, p := range moved {
				// The same prefix, named by an address inside it.
				messy = append(messy, netip.PrefixFrom(p.Addr().Next(), p.Bits()))
			}
			x.rnd.Shuffle(len(messy), func(i, j int) { messy[i], messy[j] = messy[j], messy[i] })

			affected := 0
			for _, ev := range adjRoutes(x.r) {
				if slices.ContainsFunc(clean, func(p netip.Prefix) bool { return netutil.Covers(p, ev.Prefix) }) {
					affected++
				}
			}
			at := fmt.Sprintf("%v seed %d, moves at %v", policy, seed, moved)
			sorted, shuffled, full := x.r.Fork(StaticVRPs{VRPs: set}), x.r.Fork(StaticVRPs{VRPs: set}), x.r.Fork(StaticVRPs{VRPs: set})
			want := sorted.RevalidateAffected(clean)
			if want.Routes != affected || want.Flipped > want.Routes {
				t.Fatalf("%s: %+v, want each of the %d affected routes examined once", at, want, affected)
			}
			if got := shuffled.RevalidateAffected(messy); got != want {
				t.Fatalf("%s: shuffled list %v tallied %+v, sorted %+v", at, messy, got, want)
			}
			whole := full.Revalidate()
			if whole.Flipped != want.Flipped || whole.Dropped != want.Dropped {
				t.Fatalf("%s: full pass flipped %+v, scoped pass %+v", at, whole, want)
			}
			for name, r := range map[string]*Router{"sorted": sorted, "shuffled": shuffled} {
				if err := sameRouting(r, full); err != nil {
					t.Fatalf("%s: %s scoped pass vs full Revalidate: %v", at, name, err)
				}
			}
		}
	}
}

// BenchmarkRevalidateAffected times one delta-scoped pass over one
// changed prefix on a drop-invalid router seeded from the 20 000-domain
// world, forked as sim.New forks it. no-flip leaves the VRP set alone,
// cycling through the routed prefixes: the cost of a refresh that
// changes no decision, which must stay at 0 allocs/op. flip alternately
// issues and revokes a ROA that brands one routed prefix Invalid, so
// every pass drops or re-installs its routes: the cost of a decision
// that does move, path copy into the forked local RIB included.
func BenchmarkRevalidateAffected(b *testing.B) {
	w, err := webworld.Generate(webworld.Config{Seed: 1, Domains: 20000})
	if err != nil {
		b.Fatal(err)
	}
	set := w.Validation().VRPs.Clone()
	seeded := seedFromTable(b, w.RIB, set, PolicyDropInvalid)
	prefixes := w.RoutedV4Prefixes()

	b.Run("no-flip", func(b *testing.B) {
		r := seeded.Fork(StaticVRPs{VRPs: set})
		changed := make([]netip.Prefix, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			changed[0] = prefixes[i%len(prefixes)]
			if res := r.RevalidateAffected(changed); res.Flipped != 0 {
				b.Fatalf("unchanged VRP set flipped routes at %v: %+v", changed[0], res)
			}
		}
	})

	b.Run("flip", func(b *testing.B) {
		var rogue vrp.VRP
		for _, p := range prefixes {
			if origin, ok := w.PinnedOriginOf(p); ok && set.Validate(p, origin) == vrp.NotFound {
				rogue = vrp.VRP{Prefix: p, MaxLength: p.Bits(), ASN: origin + 1}
				break
			}
		}
		if !rogue.Prefix.IsValid() {
			b.Fatal("no unsigned routed prefix to flip")
		}
		r := seeded.Fork(StaticVRPs{VRPs: set})
		changed := []netip.Prefix{rogue.Prefix}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				if err := set.Add(rogue); err != nil {
					b.Fatal(err)
				}
			} else {
				set.Remove(rogue)
			}
			if res := r.RevalidateAffected(changed); res.Flipped == 0 {
				b.Fatalf("moving %v flipped nothing: %+v", rogue, res)
			}
		}
		b.StopTimer()
		set.Remove(rogue)
	})
}
