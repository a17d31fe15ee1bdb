package router

import (
	"net/netip"
	"testing"

	"ripki/internal/bgp"
	"ripki/internal/rpki/vrp"
)

// swapSource lets the test replace the router's VRP view mid-flight,
// the way a relying party does after each cache refresh.
type swapSource struct{ set *vrp.Set }

func (s *swapSource) Set() *vrp.Set { return s.set }

func revMustSet(t *testing.T, vs ...vrp.VRP) *vrp.Set {
	t.Helper()
	s, err := vrp.FromVRPs(vs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func revAnnounce(t *testing.T, r *Router, prefix string, origin uint32) Decision {
	t.Helper()
	d, err := r.Process(bgp.RouteEvent{
		PeerAS:  64500,
		PeerID:  netip.MustParseAddr("10.0.0.1"),
		Prefix:  netip.MustParsePrefix(prefix),
		Path:    []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: []uint32{64500, origin}}},
		NextHop: netip.MustParseAddr("10.0.0.1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRevalidateDropsNewlyInvalid is the hijack-window mechanism: a
// route accepted as NotFound must be withdrawn once a later-issued ROA
// turns it Invalid.
func TestRevalidateDropsNewlyInvalid(t *testing.T) {
	src := &swapSource{set: vrp.NewSet()}
	r := NewWithPolicy(src, PolicyDropInvalid)

	// Legit aggregate and a hijacked more-specific, both NotFound now.
	if d := revAnnounce(t, r, "203.0.0.0/20", 65001); d.State != vrp.NotFound || r.table.Len() != 1 {
		t.Fatalf("aggregate: %+v, %d prefixes installed", d, r.table.Len())
	}
	if revAnnounce(t, r, "203.0.4.0/22", 65551); r.table.Len() != 2 {
		t.Fatalf("hijack rejected early: %d prefixes installed", r.table.Len())
	}
	victim := netip.MustParseAddr("203.0.4.7")
	if po, ok := r.Forward(victim); !ok || po.Origin != 65551 {
		t.Fatalf("pre-ROA forward = %+v, %v (want hijacker)", po, ok)
	}

	// The emergency ROA arrives at the RP.
	src.set = revMustSet(t, vrp.VRP{Prefix: netip.MustParsePrefix("203.0.0.0/20"), MaxLength: 20, ASN: 65001})
	res := r.Revalidate()
	if res.Routes != 2 || res.Valid != 1 || res.Invalid != 1 || res.Dropped != 1 {
		t.Errorf("revalidation = %+v", res)
	}
	if po, ok := r.Forward(victim); !ok || po.Origin != 65001 {
		t.Errorf("post-ROA forward = %+v, %v (want legit origin)", po, ok)
	}

	// Revoking the ROA makes everything NotFound again — and the route
	// dropped as Invalid returns from the Adj-RIB-In, as on a real
	// router re-applying policy after a cache update.
	src.set = vrp.NewSet()
	if res := r.Revalidate(); res.Dropped != 0 || res.NotFound != 2 {
		t.Errorf("after revoke: %+v", res)
	}
	if po, ok := r.Forward(victim); !ok || po.Origin != 65551 {
		t.Errorf("post-revoke forward = %+v, %v (hijack should be re-installed)", po, ok)
	}
	if r.table.Len() != 2 {
		t.Errorf("dropped route not restored: %d prefixes", r.table.Len())
	}
}

// TestRevalidateWithdrawnRouteStaysGone: a route the peer withdrew must
// not resurrect from the Adj-RIB-In on revalidation.
func TestRevalidateWithdrawnRouteStaysGone(t *testing.T) {
	src := &swapSource{set: vrp.NewSet()}
	r := NewWithPolicy(src, PolicyDropInvalid)
	revAnnounce(t, r, "203.0.0.0/20", 65001)
	revAnnounce(t, r, "203.0.4.0/22", 65551)
	if _, err := r.Process(bgp.RouteEvent{
		PeerAS: 64500, PeerID: netip.MustParseAddr("10.0.0.1"),
		Prefix: netip.MustParsePrefix("203.0.4.0/22"), Withdraw: true,
	}); err != nil {
		t.Fatal(err)
	}
	if res := r.Revalidate(); res.Routes != 1 {
		t.Errorf("revalidated %d routes, want 1 (withdrawn route must leave the Adj-RIB-In)", res.Routes)
	}
	if r.table.Len() != 1 {
		t.Errorf("table has %d prefixes, want 1", r.table.Len())
	}
}

// TestRevalidateAcceptAll only tallies; the RIB is untouched.
func TestRevalidateAcceptAll(t *testing.T) {
	src := &swapSource{set: vrp.NewSet()}
	r := NewWithPolicy(src, PolicyAcceptAll)
	revAnnounce(t, r, "203.0.0.0/20", 65001)
	revAnnounce(t, r, "203.0.4.0/22", 65551)
	src.set = revMustSet(t, vrp.VRP{Prefix: netip.MustParsePrefix("203.0.0.0/20"), MaxLength: 20, ASN: 65001})
	res := r.Revalidate()
	if res.Invalid != 1 || res.Dropped != 0 {
		t.Errorf("revalidation = %+v", res)
	}
	if r.table.Len() != 2 {
		t.Errorf("accept-all mutated the RIB: %d prefixes", r.table.Len())
	}
}
