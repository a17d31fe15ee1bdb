package router

import (
	"net/netip"
	"testing"

	"ripki/internal/rpki/vrp"
)

// TestPolicyAblation compares the three RFC 7115 stances against the
// same hijack: drop-invalid protects fully, prefer-valid protects as
// long as a legitimate covering route exists, accept-all loses.
func TestPolicyAblation(t *testing.T) {
	victim := netip.MustParseAddr("193.0.6.139")
	legit := announce("193.0.6.0/24", 3333)
	hijack := announce("193.0.6.128/25", 666)

	cases := []struct {
		policy     Policy
		wantOrigin uint32
	}{
		{PolicyDropInvalid, 3333},
		{PolicyPreferValid, 3333},
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

// TestPreferValidWeakness shows why prefer-valid is weaker than
// drop-invalid: when the hijacked more-specific is the ONLY covering
// route (the victim's own prefix was withdrawn or never announced),
// prefer-valid still forwards to the attacker.
func TestPreferValidWeakness(t *testing.T) {
	victim := netip.MustParseAddr("193.0.6.139")
	hijack := announce("193.0.6.128/25", 666)

	prefer := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyPreferValid)
	if _, err := prefer.Process(hijack); err != nil {
		t.Fatal(err)
	}
	po, ok := prefer.Forward(victim)
	if !ok || po.Origin != 666 {
		t.Errorf("prefer-valid without alternatives: %v %v", po, ok)
	}

	drop := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyDropInvalid)
	if _, err := drop.Process(hijack); err != nil {
		t.Fatal(err)
	}
	if _, ok := drop.Forward(victim); ok {
		t.Error("drop-invalid forwarded to a dropped route")
	}
}

func TestPreferValidDecisionFlags(t *testing.T) {
	r := NewWithPolicy(StaticVRPs{VRPs: newVRPs(t)}, PolicyPreferValid)
	invalid := announce("193.0.7.0/24", 666)
	d, err := r.Process(invalid)
	if err != nil {
		t.Fatal(err)
	}
	if !installed(r, invalid) || !d.Deprefered || d.State != vrp.Invalid {
		t.Errorf("decision = %+v, installed %v", d, installed(r, invalid))
	}
	valid := announce("193.0.6.0/24", 3333)
	d, err = r.Process(valid)
	if err != nil {
		t.Fatal(err)
	}
	if !installed(r, valid) || d.Deprefered {
		t.Errorf("valid decision = %+v, installed %v", d, installed(r, valid))
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyAcceptAll.String() != "accept-all" ||
		PolicyDropInvalid.String() != "drop-invalid" ||
		PolicyPreferValid.String() != "prefer-valid" {
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
