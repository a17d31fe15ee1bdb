package router

import (
	"testing"

	"ripki/internal/bgp"
	"ripki/internal/netutil"
	"ripki/internal/rpki/vrp"
)

func seq(asns ...uint32) []bgp.Segment {
	return []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: asns}}
}

func announce(prefix string, origin uint32) bgp.RouteEvent {
	return bgp.RouteEvent{
		PeerAS: 100, PeerID: netutil.MustAddr("10.0.0.1"),
		Prefix:  netutil.MustPrefix(prefix),
		Path:    seq(100, origin),
		NextHop: netutil.MustAddr("10.0.0.1"),
	}
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
	d, err := r.Process(announce("193.0.6.0/24", 3333))
	if err != nil {
		t.Fatal(err)
	}
	if d.State != vrp.Valid || !d.Accepted {
		t.Fatalf("legitimate route: %+v", d)
	}

	// Sub-prefix hijack from the wrong origin.
	d, err = r.Process(announce("193.0.6.128/25", 666))
	if err != nil {
		t.Fatal(err)
	}
	if d.State != vrp.Invalid || d.Accepted {
		t.Fatalf("hijack not suppressed: %+v", d)
	}

	// The victim's address still resolves to the legitimate origin.
	pairs := r.Table().OriginPairs(netutil.MustAddr("193.0.6.139"))
	if len(pairs) != 1 || pairs[0].Origin != 3333 {
		t.Fatalf("RIB after hijack attempt: %v", pairs)
	}
}

func TestUnprotectedRouterAcceptsHijack(t *testing.T) {
	r := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyAcceptAll)
	if _, err := r.Process(announce("193.0.6.0/24", 3333)); err != nil {
		t.Fatal(err)
	}
	d, err := r.Process(announce("193.0.6.128/25", 666))
	if err != nil {
		t.Fatal(err)
	}
	if d.State != vrp.Invalid || !d.Accepted {
		t.Fatalf("unprotected router: %+v", d)
	}
	// Longest-prefix match now points the victim's address at the
	// attacker — the paper's traffic-stealing scenario.
	pairs := r.Table().OriginPairs(netutil.MustAddr("193.0.6.139"))
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	covering := r.Table().Covering(netutil.MustAddr("193.0.6.139"))
	if covering[len(covering)-1] != netutil.MustPrefix("193.0.6.128/25") {
		t.Errorf("longest match = %v, attacker did not win", covering)
	}
}

func TestNotFoundRoutesAccepted(t *testing.T) {
	r := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyDropInvalid)
	d, err := r.Process(announce("8.8.8.0/24", 15169))
	if err != nil {
		t.Fatal(err)
	}
	if d.State != vrp.NotFound || !d.Accepted {
		t.Fatalf("not-found route: %+v", d)
	}
}

func TestASSetPolicy(t *testing.T) {
	ev := bgp.RouteEvent{
		PeerAS: 100, PeerID: netutil.MustAddr("10.0.0.1"),
		Prefix: netutil.MustPrefix("9.0.0.0/8"),
		Path: []bgp.Segment{
			{Type: bgp.SegmentSequence, ASNs: []uint32{100}},
			{Type: bgp.SegmentSet, ASNs: []uint32{1, 2}},
		},
		NextHop: netutil.MustAddr("10.0.0.1"),
	}
	strict := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyDropInvalid)
	d, err := strict.Process(ev)
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted {
		t.Error("strict router accepted AS_SET route")
	}
	lax := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyAcceptAll)
	d, err = lax.Process(ev)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted {
		t.Error("lax router rejected AS_SET route")
	}
}

func TestWithdrawAlwaysProcessed(t *testing.T) {
	r := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyDropInvalid)
	r.Process(announce("193.0.6.0/24", 3333))
	wd := bgp.RouteEvent{
		PeerAS: 100, PeerID: netutil.MustAddr("10.0.0.1"),
		Prefix: netutil.MustPrefix("193.0.6.0/24"), Withdraw: true,
	}
	if _, err := r.Process(wd); err != nil {
		t.Fatal(err)
	}
	if r.Table().Len() != 0 {
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
