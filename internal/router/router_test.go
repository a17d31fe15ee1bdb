package router

import (
	"net/netip"
	"slices"
	"testing"

	"ripki/internal/bgp"
	"ripki/internal/netutil"
	"ripki/internal/rib"
	"ripki/internal/rpki/vrp"
)

func seq(asns ...uint32) []bgp.Segment {
	return []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: asns}}
}

func announce(prefix string, origin uint32) bgp.RouteEvent {
	return bgp.RouteEvent{
		PeerAS: 100, PeerID: netip.MustParseAddr("10.0.0.1"),
		Prefix:  netutil.MustPrefix(prefix),
		Path:    seq(100, origin),
		NextHop: netip.MustParseAddr("10.0.0.1"),
	}
}

// installed reports whether r's local RIB holds ev's route: whether
// policy let it in.
func installed(r *Router, ev bgp.RouteEvent) bool {
	origin, _ := bgp.OriginAS(ev.Path)
	return slices.Contains(r.table.OriginPairs(ev.Prefix.Addr()), rib.PrefixOrigin{Prefix: ev.Prefix.Masked(), Origin: origin})
}

func newVRPs(t *testing.T) *vrp.Set {
	t.Helper()
	s := vrp.NewSet()
	if err := s.Add(vrp.VRP{Prefix: netutil.MustPrefix("193.0.0.0/16"), MaxLength: 24, ASN: 3333}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHijackSuppression is the §2.3 attacker-model experiment in
// miniature: the legitimate route survives, the hijack does not.
func TestHijackSuppression(t *testing.T) {
	r := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyDropInvalid)

	// Legitimate announcement.
	legit := announce("193.0.6.0/24", 3333)
	d, err := r.Process(legit)
	if err != nil {
		t.Fatal(err)
	}
	if d.State != vrp.Valid || !installed(r, legit) {
		t.Fatalf("legitimate route: %+v, installed %v", d, installed(r, legit))
	}

	// Sub-prefix hijack from the wrong origin.
	hijack := announce("193.0.6.128/25", 666)
	d, err = r.Process(hijack)
	if err != nil {
		t.Fatal(err)
	}
	if d.State != vrp.Invalid || installed(r, hijack) {
		t.Fatalf("hijack not suppressed: %+v, installed %v", d, installed(r, hijack))
	}

	// The victim's address still resolves to the legitimate origin.
	pairs := r.table.OriginPairs(netip.MustParseAddr("193.0.6.139"))
	if len(pairs) != 1 || pairs[0].Origin != 3333 {
		t.Fatalf("RIB after hijack attempt: %v", pairs)
	}
}

func TestUnprotectedRouterAcceptsHijack(t *testing.T) {
	r := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyAcceptAll)
	if _, err := r.Process(announce("193.0.6.0/24", 3333)); err != nil {
		t.Fatal(err)
	}
	hijack := announce("193.0.6.128/25", 666)
	d, err := r.Process(hijack)
	if err != nil {
		t.Fatal(err)
	}
	if d.State != vrp.Invalid || !installed(r, hijack) {
		t.Fatalf("unprotected router: %+v, installed %v", d, installed(r, hijack))
	}
	// Longest-prefix match now points the victim's address at the
	// attacker — the paper's traffic-stealing scenario.
	pairs := r.table.OriginPairs(netip.MustParseAddr("193.0.6.139"))
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	covering := r.table.Covering(netip.MustParseAddr("193.0.6.139"))
	if covering[len(covering)-1] != netutil.MustPrefix("193.0.6.128/25") {
		t.Errorf("longest match = %v, attacker did not win", covering)
	}
}

func TestNotFoundRoutesAccepted(t *testing.T) {
	r := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyDropInvalid)
	ev := announce("8.8.8.0/24", 15169)
	d, err := r.Process(ev)
	if err != nil {
		t.Fatal(err)
	}
	if d.State != vrp.NotFound || !installed(r, ev) {
		t.Fatalf("not-found route: %+v, installed %v", d, installed(r, ev))
	}
}

func TestASSetPolicy(t *testing.T) {
	ev := bgp.RouteEvent{
		PeerAS: 100, PeerID: netip.MustParseAddr("10.0.0.1"),
		Prefix: netutil.MustPrefix("9.0.0.0/8"),
		Path: []bgp.Segment{
			{Type: bgp.SegmentSequence, ASNs: []uint32{100}},
			{Type: bgp.SegmentSet, ASNs: []uint32{1, 2}},
		},
		NextHop: netip.MustParseAddr("10.0.0.1"),
	}
	strict := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyDropInvalid)
	if _, err := strict.Process(ev); err != nil {
		t.Fatal(err)
	}
	if strict.table.Len() != 0 {
		t.Error("strict router accepted AS_SET route")
	}
	lax := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyAcceptAll)
	if _, err := lax.Process(ev); err != nil {
		t.Fatal(err)
	}
	if lax.table.Len() != 1 {
		t.Error("lax router rejected AS_SET route")
	}
}

func TestWithdrawAlwaysProcessed(t *testing.T) {
	r := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyDropInvalid)
	r.Process(announce("193.0.6.0/24", 3333))
	wd := bgp.RouteEvent{
		PeerAS: 100, PeerID: netip.MustParseAddr("10.0.0.1"),
		Prefix: netutil.MustPrefix("193.0.6.0/24"), Withdraw: true,
	}
	if _, err := r.Process(wd); err != nil {
		t.Fatal(err)
	}
	if r.table.Len() != 0 {
		t.Error("withdraw not applied")
	}
}

// TestCounts: each processed announcement's decision carries its RFC
// 6811 state.
func TestCounts(t *testing.T) {
	r := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyDropInvalid)
	c := make(map[vrp.State]int)
	for _, ev := range []bgp.RouteEvent{
		announce("193.0.6.0/24", 3333), // valid
		announce("193.0.7.0/24", 666),  // invalid
		announce("8.8.8.0/24", 15169),  // not found
	} {
		d, err := r.Process(ev)
		if err != nil {
			t.Fatal(err)
		}
		c[d.State]++
	}
	if c[vrp.Valid] != 1 || c[vrp.Invalid] != 1 || c[vrp.NotFound] != 1 {
		t.Errorf("counts = %v", c)
	}
}
