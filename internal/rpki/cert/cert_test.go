package cert

import (
	"crypto/ed25519"
	"net/netip"
	"testing"
	"time"

	"ripki/internal/netutil"
)

var (
	t0 = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	t1 = time.Date(2016, 6, 1, 0, 0, 0, 0, time.UTC)
	tv = time.Date(2015, 11, 16, 0, 0, 0, 0, time.UTC) // HotNets'15
)

func selfSigned(t *testing.T, subject string, res Resources) (*Certificate, *keyPair) {
	t.Helper()
	kp := newKeyPair(t)
	c, err := Issue(Template{
		SerialNumber: 1,
		Subject:      subject,
		NotBefore:    t0,
		NotAfter:     t1,
		IsCA:         true,
		Resources:    res,
		PublicKey:    kp.pub,
	}, subject, kp.key)
	if err != nil {
		t.Fatal(err)
	}
	return c, kp
}

type keyPair struct {
	pub ed25519.PublicKey
	key ed25519.PrivateKey
}

type prefixType = netip.Prefix

func TestSelfSignedVerify(t *testing.T) {
	ta, _ := selfSigned(t, "ta-ripe", AllResources())
	if err := ta.Verify(ta, VerifyOptions{Now: tv}); err != nil {
		t.Fatalf("self-signed verify: %v", err)
	}
}

func TestIssueAndVerifyChain(t *testing.T) {
	ta, taKey := selfSigned(t, "ta-ripe", AllResources())
	childKey := newKeyPair(t)
	child, err := Issue(Template{
		SerialNumber: 2,
		Subject:      "isp-1",
		NotBefore:    t0,
		NotAfter:     t1,
		IsCA:         true,
		Resources: Resources{
			Prefixes: netip2("193.0.0.0/16", "2001:db8::/32"),
			ASNs:     []ASRange{{Min: 3333, Max: 3333}},
		},
		PublicKey: childKey.pub,
	}, "ta-ripe", taKey.key)
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Verify(ta, VerifyOptions{Now: tv}); err != nil {
		t.Fatalf("child verify: %v", err)
	}
}

func TestVerifyRejectsExpired(t *testing.T) {
	ta, _ := selfSigned(t, "ta", AllResources())
	if err := ta.Verify(ta, VerifyOptions{Now: t1.Add(time.Hour)}); err == nil {
		t.Error("expired certificate verified")
	}
	if err := ta.Verify(ta, VerifyOptions{Now: t0.Add(-time.Hour)}); err == nil {
		t.Error("not-yet-valid certificate verified")
	}
}

func TestVerifyRejectsResourceEscalation(t *testing.T) {
	ta, taKey := selfSigned(t, "ta", Resources{
		Prefixes: netip2("10.0.0.0/8"),
		ASNs:     []ASRange{{Min: 100, Max: 200}},
	})
	childKey := newKeyPair(t)
	child, err := Issue(Template{
		SerialNumber: 2,
		Subject:      "greedy",
		NotBefore:    t0,
		NotAfter:     t1,
		IsCA:         true,
		Resources: Resources{
			Prefixes: netip2("11.0.0.0/8"), // not delegated by ta
			ASNs:     []ASRange{{Min: 100, Max: 100}},
		},
		PublicKey: childKey.pub,
	}, "ta", taKey.key)
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Verify(ta, VerifyOptions{Now: tv}); err == nil {
		t.Error("resource escalation not caught")
	}
	// AS escalation too.
	child2, err := Issue(Template{
		SerialNumber: 3,
		Subject:      "greedy-as",
		NotBefore:    t0,
		NotAfter:     t1,
		IsCA:         true,
		Resources: Resources{
			Prefixes: netip2("10.1.0.0/16"),
			ASNs:     []ASRange{{Min: 100, Max: 300}},
		},
		PublicKey: childKey.pub,
	}, "ta", taKey.key)
	if err != nil {
		t.Fatal(err)
	}
	if err := child2.Verify(ta, VerifyOptions{Now: tv}); err == nil {
		t.Error("AS range escalation not caught")
	}
}

func TestVerifyRejectsWrongIssuer(t *testing.T) {
	_, taKey := selfSigned(t, "ta", AllResources())
	other, _ := selfSigned(t, "other", AllResources())
	childKey := newKeyPair(t)
	child, err := Issue(Template{
		SerialNumber: 2,
		Subject:      "c",
		NotBefore:    t0,
		NotAfter:     t1,
		Resources:    Resources{Prefixes: netip2("10.0.0.0/8")},
		PublicKey:    childKey.pub,
	}, "ta", taKey.key)
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Verify(other, VerifyOptions{Now: tv}); err == nil {
		t.Error("verification against wrong issuer succeeded")
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	ta, _ := selfSigned(t, "ta", AllResources())
	ta.Signature[len(ta.Signature)/2] ^= 0xff
	if err := ta.Verify(ta, VerifyOptions{Now: tv}); err == nil {
		t.Error("tampered signature verified")
	}
}

func TestVerifyRejectsNonCAIssuer(t *testing.T) {
	ta, taKey := selfSigned(t, "ta", AllResources())
	midKey := newKeyPair(t)
	mid, err := Issue(Template{
		SerialNumber: 2, Subject: "ee", NotBefore: t0, NotAfter: t1,
		IsCA:      false,
		Resources: Resources{Prefixes: netip2("10.0.0.0/8")},
		PublicKey: midKey.pub,
	}, "ta", taKey.key)
	if err != nil {
		t.Fatal(err)
	}
	if err := mid.Verify(ta, VerifyOptions{Now: tv}); err != nil {
		t.Fatalf("EE verify: %v", err)
	}
	leafKey := newKeyPair(t)
	leaf, err := Issue(Template{
		SerialNumber: 3, Subject: "leaf", NotBefore: t0, NotAfter: t1,
		Resources: Resources{Prefixes: netip2("10.0.0.0/16")},
		PublicKey: leafKey.pub,
	}, "ee", midKey.key)
	if err != nil {
		t.Fatal(err)
	}
	if err := leaf.Verify(mid, VerifyOptions{Now: tv}); err == nil {
		t.Error("certificate issued by non-CA verified")
	}
}

func TestResourcesSubsetOf(t *testing.T) {
	parent := Resources{
		Prefixes: netip2("10.0.0.0/8", "2001:db8::/32"),
		ASNs:     []ASRange{{100, 200}},
	}
	cases := []struct {
		child Resources
		want  bool
	}{
		{Resources{Prefixes: netip2("10.1.0.0/16")}, true},
		{Resources{Prefixes: netip2("10.0.0.0/8")}, true},
		{Resources{Prefixes: netip2("11.0.0.0/8")}, false},
		{Resources{Prefixes: netip2("2001:db8:1::/48")}, true},
		{Resources{ASNs: []ASRange{{150, 160}}}, true},
		{Resources{ASNs: []ASRange{{100, 200}}}, true},
		{Resources{ASNs: []ASRange{{99, 150}}}, false},
		{Resources{}, true},
	}
	for i, c := range cases {
		if got := c.child.SubsetOf(parent); got != c.want {
			t.Errorf("case %d: SubsetOf = %v, want %v", i, got, c.want)
		}
	}
}

func TestIssueValidation(t *testing.T) {
	kp := newKeyPair(t)
	if _, err := Issue(Template{Subject: "x", NotBefore: t1, NotAfter: t0, PublicKey: kp.pub}, "x", kp.key); err == nil {
		t.Error("inverted validity accepted")
	}
	if _, err := Issue(Template{Subject: "x", NotBefore: t0, NotAfter: t1}, "x", kp.key); err == nil {
		t.Error("missing public key accepted")
	}
	if _, err := Issue(Template{Subject: "x", NotBefore: t0, NotAfter: t1, PublicKey: kp.pub}, "x", nil); err == nil {
		t.Error("missing issuer key accepted")
	}
	// ed25519.Sign panics on a key of the wrong length; Issue must not.
	if _, err := Issue(Template{Subject: "x", NotBefore: t0, NotAfter: t1, PublicKey: kp.pub[:31]}, "x", kp.key); err == nil {
		t.Error("31-byte public key accepted")
	}
	if _, err := Issue(Template{Subject: "x", NotBefore: t0, NotAfter: t1, PublicKey: kp.pub}, "x", kp.key[:32]); err == nil {
		t.Error("32-byte issuer key accepted")
	}
}

// TestVerifyRejectsIssuerKeyOfTheWrongLength: an issuer key that is not
// 32 bytes fails verification, where ed25519.Verify would panic, and
// the check is counted like any other.
func TestVerifyRejectsIssuerKeyOfTheWrongLength(t *testing.T) {
	for _, size := range []int{0, 31, 33} {
		ta, _ := selfSigned(t, "ta", AllResources())
		ta.PublicKey = append(append(ed25519.PublicKey(nil), ta.PublicKey...), 0)[:size]
		checked := 0
		if err := ta.Verify(ta, VerifyOptions{Now: tv, Signatures: &checked}); err == nil {
			t.Errorf("a %d-byte issuer key verified", size)
		}
		if checked != 1 {
			t.Errorf("%d signatures counted, want 1", checked)
		}
	}
}

// --- helpers ---

func newKeyPair(t *testing.T) *keyPair {
	t.Helper()
	pub, key, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &keyPair{pub: pub, key: key}
}

func netip2(ss ...string) []prefixType {
	out := make([]prefixType, len(ss))
	for i, s := range ss {
		out[i] = netutil.MustPrefix(s)
	}
	return out
}
