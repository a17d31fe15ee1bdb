package router

import (
	"net/netip"
	"testing"
)

// TestPolicyAblation compares the two RFC 7115 stances against the
// same hijack: drop-invalid protects, accept-all loses.
func TestPolicyAblation(t *testing.T) {
	victim := netip.MustParseAddr("193.0.6.139")
	legit := announce("193.0.6.0/24", 3333)
	hijack := announce("193.0.6.128/25", 666)

	cases := []struct {
		policy     Policy
		wantOrigin uint32
	}{
		{PolicyDropInvalid, 3333},
		{PolicyAcceptAll, 666},
	}
	for _, c := range cases {
		r := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, c.policy)
		if _, err := r.Process(legit); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Process(hijack); err != nil {
			t.Fatal(err)
		}
		po, ok := r.Forward(victim)
		if !ok {
			t.Fatalf("%v: victim unrouted", c.policy)
		}
		if po.Origin != c.wantOrigin {
			t.Errorf("%v: traffic reaches AS%d, want AS%d", c.policy, po.Origin, c.wantOrigin)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyAcceptAll.String() != "accept-all" ||
		PolicyDropInvalid.String() != "drop-invalid" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy name wrong")
	}
}

func TestForwardUnrouted(t *testing.T) {
	r := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyDropInvalid)
	if _, ok := r.Forward(netip.MustParseAddr("8.8.8.8")); ok {
		t.Error("Forward on empty table returned a route")
	}
}
