package sim

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"ripki/internal/bgp"
	"ripki/internal/rib"
	"ripki/internal/router"
	"ripki/internal/webworld"
)

// localTable is a router's local RIB. Router exports no accessor for
// it, as no command needs one, so the test reads the unexported field.
func localTable(r *router.Router) *rib.Table {
	f := reflect.ValueOf(r).Elem().FieldByName("table")
	return *(**rib.Table)(unsafe.Pointer(f.UnsafeAddr()))
}

// localRoutes lists a router's local RIB in table order.
func localRoutes(r *router.Router) []rib.Route {
	var out []rib.Route
	localTable(r).WalkRoutes(func(rt rib.Route) bool {
		out = append(out, rt)
		return true
	})
	return out
}

// seedRouter replays a routing table through a fresh router: the oracle
// for router.NewFromTable, which sim.New seeds through.
func seedRouter(table *rib.Table, source router.VRPSource, policy router.Policy) (*router.Router, error) {
	r := router.NewWithPolicy(source, policy)
	peers := table.Peers()
	var err error
	table.WalkRoutes(func(rt rib.Route) bool {
		peer := peers[rt.PeerIndex]
		_, err = r.Process(bgp.RouteEvent{
			PeerAS:  peer.ASN,
			PeerID:  peer.BGPID,
			Prefix:  rt.Prefix,
			Path:    rt.Path,
			NextHop: rt.NextHop,
		})
		return err == nil
	})
	return r, err
}

// assertStartsLikeReplay checks, for every relying party of a freshly
// built simulation, that the router New forked from the world's seeded
// template is the router the pre-fork engine built — the world's whole
// routing table replayed through Process against that RP's own VRP
// view — in local RIB and forwarding, and that a synced client holds
// exactly the world's validated set, which is what the template was validated
// against.
func assertStartsLikeReplay(t *testing.T, s *Simulation) {
	t.Helper()
	validated := s.World.Validation().VRPs.All()
	var probes []rib.PrefixOrigin
	s.World.RIB.WalkRoutes(func(r rib.Route) bool {
		probes = append(probes, rib.PrefixOrigin{Prefix: r.Prefix})
		return true
	})
	for _, rp := range s.RPs {
		if rp.Client != nil {
			if got := rp.Client.View().All(); !slices.Equal(got, validated) {
				t.Errorf("%s synced %d VRPs, the world validated %d, and they differ", rp.Spec.Name, len(got), len(validated))
			}
		}
		replay, err := seedRouter(s.World.RIB, rp.source, rp.Spec.Policy)
		if err != nil {
			t.Fatal(err)
		}
		got, want := rp.Router, replay
		if g, w := localTable(got).Peers(), localTable(want).Peers(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: fork knows peers %v, replay %v", rp.Spec.Name, g, w)
		}
		if g, w := localRoutes(got), localRoutes(want); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: fork's local RIB holds %d routes, replay's %d, and they differ", rp.Spec.Name, len(g), len(w))
		}
		for _, p := range probes {
			g, gok := got.Forward(p.Prefix.Addr())
			w, wok := want.Forward(p.Prefix.Addr())
			if g != w || gok != wok {
				t.Fatalf("%s: fork forwards %v to %v (%v), replay to %v (%v)", rp.Spec.Name, p.Prefix.Addr(), g, gok, w, wok)
			}
		}
	}
}

// TestForkedRoutersMatchReplay runs every registered scenario's New on
// clones of one world, so the seeded templates are built by the first
// and forked by all the rest, and holds each against the replay oracle.
// A last roster crosses every policy with synced and unsynced.
func TestForkedRoutersMatchReplay(t *testing.T) {
	w, err := webworld.Generate(webworld.Config{Seed: 1, Domains: 4000})
	if err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	check := func(name string, cfg Config) {
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			assertStartsLikeReplay(t, s)
		})
	}
	for _, name := range Names() {
		cfg := testConfig(name)
		cfg.World = snap.Clone()
		check(name, cfg)
	}

	var roster []RPSpec
	for _, policy := range []router.Policy{router.PolicyAcceptAll, router.PolicyDropInvalid} {
		roster = append(roster,
			RPSpec{Name: "synced-" + policy.String(), RefreshTicks: 2, Policy: policy},
			RPSpec{Name: "unsynced-" + policy.String(), Policy: policy})
	}
	cfg := testConfig("hijack-window+rp-lag+roa-churn+" + registerRoster(t, roster))
	cfg.World = snap.Clone()
	check("every-policy", cfg)

	// Stand-alone: New generates its own world and still seeds through
	// the template — there is no second path.
	check("own-world", testConfig("hijack-window"))
}
