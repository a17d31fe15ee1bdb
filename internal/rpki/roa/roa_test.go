package roa

import (
	"crypto/ed25519"
	"net/netip"
	"testing"
	"time"

	"ripki/internal/netutil"
	"ripki/internal/rpki/cert"
)

var (
	t0 = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	t1 = time.Date(2016, 6, 1, 0, 0, 0, 0, time.UTC)
	tv = time.Date(2015, 11, 16, 0, 0, 0, 0, time.UTC)
)

type fixture struct {
	ta     *cert.Certificate
	caCert *cert.Certificate
	caKey  ed25519.PrivateKey
}

type pfx = netip.Prefix

func newFixture(t *testing.T) *fixture {
	t.Helper()
	taPub, taKey, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := cert.Issue(cert.Template{
		SerialNumber: 1, Subject: "ta", NotBefore: t0, NotAfter: t1,
		IsCA: true, Resources: cert.AllResources(), PublicKey: taPub,
	}, "ta", taKey)
	if err != nil {
		t.Fatal(err)
	}
	caPub, caKey, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	caCert, err := cert.Issue(cert.Template{
		SerialNumber: 2, Subject: "isp", NotBefore: t0, NotAfter: t1,
		IsCA: true,
		Resources: cert.Resources{
			Prefixes: []pfx{netutil.MustPrefix("193.0.0.0/16"), netutil.MustPrefix("2001:db8::/32")},
			ASNs:     []cert.ASRange{{Min: 3333, Max: 3340}},
		},
		PublicKey: caPub,
	}, "ta", taKey)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{ta: ta, caCert: caCert, caKey: caKey}
}

func (f *fixture) sign(t *testing.T, asID uint32, prefixes []Prefix) *ROA {
	t.Helper()
	ee, eeKey, err := NewEE(100, "roa-ee", prefixes, t0, t1, f.caCert, f.caKey)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Sign(asID, prefixes, ee, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSignAndValidate(t *testing.T) {
	f := newFixture(t)
	r := f.sign(t, 3333, []Prefix{
		{Prefix: netutil.MustPrefix("193.0.6.0/24"), MaxLength: 24},
		{Prefix: netutil.MustPrefix("2001:db8:1::/48"), MaxLength: 56},
	})
	if err := r.Validate(f.caCert, cert.VerifyOptions{Now: tv}); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSignDefaultsMaxLength(t *testing.T) {
	f := newFixture(t)
	r := f.sign(t, 3333, []Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24")}})
	if r.Prefixes[0].MaxLength != 24 {
		t.Errorf("default MaxLength = %d, want 24", r.Prefixes[0].MaxLength)
	}
}

func TestSignRejectsBadInput(t *testing.T) {
	f := newFixture(t)
	ee, eeKey, err := NewEE(100, "ee", []Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24")}}, t0, t1, f.caCert, f.caKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sign(1, nil, ee, eeKey); err == nil {
		t.Error("empty prefix list accepted")
	}
	if _, err := Sign(1, []Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24"), MaxLength: 20}}, ee, eeKey); err == nil {
		t.Error("maxLength < bits accepted")
	}
	if _, err := Sign(1, []Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24"), MaxLength: 40}}, ee, eeKey); err == nil {
		t.Error("maxLength > 32 accepted for IPv4")
	}
	if _, err := Sign(1, []Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24")}}, nil, eeKey); err == nil {
		t.Error("missing EE accepted")
	}
	if _, err := Sign(1, []Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24")}}, ee, eeKey[:32]); err == nil {
		t.Error("32-byte EE key accepted")
	}
}

func TestValidateRejectsTamperedContent(t *testing.T) {
	f := newFixture(t)
	r := f.sign(t, 3333, []Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24"), MaxLength: 24}})
	// A bit flipped anywhere in the signed payload, or in the signature
	// over it, must fail validation.
	for _, field := range []*[]byte{&r.RawContent, &r.Signature} {
		orig := *field
		for i := range orig {
			*field = append([]byte(nil), orig...)
			(*field)[i] ^= 0x01
			if err := r.Validate(f.caCert, cert.VerifyOptions{Now: tv}); err == nil {
				t.Fatalf("bit flip at byte %d of %d validated", i, len(orig))
			}
		}
		*field = orig
	}
	if err := r.Validate(f.caCert, cert.VerifyOptions{Now: tv}); err != nil {
		t.Fatalf("restored ROA fails validation: %v", err)
	}
}

func TestValidateRejectsResourceMismatch(t *testing.T) {
	f := newFixture(t)
	// EE cert covers only /24 but ROA claims a different prefix: build by
	// signing with mismatched lists.
	eePrefixes := []Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24")}}
	roaPrefixes := []Prefix{{Prefix: netutil.MustPrefix("193.0.7.0/24"), MaxLength: 24}}
	ee, eeKey, err := NewEE(101, "ee", eePrefixes, t0, t1, f.caCert, f.caKey)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Sign(3333, roaPrefixes, ee, eeKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(f.caCert, cert.VerifyOptions{Now: tv}); err == nil {
		t.Error("ROA with prefix outside EE resources validated")
	}
}

func TestValidateRejectsExpiredEE(t *testing.T) {
	f := newFixture(t)
	r := f.sign(t, 3333, []Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24"), MaxLength: 24}})
	if err := r.Validate(f.caCert, cert.VerifyOptions{Now: t1.Add(time.Hour)}); err == nil {
		t.Error("ROA with expired EE validated")
	}
}

func TestValidateRejectsCAAsEE(t *testing.T) {
	f := newFixture(t)
	// Abuse the CA certificate as an "EE".
	prefixes := []Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24"), MaxLength: 24}}
	r, err := Sign(3333, prefixes, f.caCert, f.caKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(f.ta, cert.VerifyOptions{Now: tv}); err == nil {
		t.Error("ROA signed by CA certificate accepted as EE")
	}
}

func TestString(t *testing.T) {
	f := newFixture(t)
	r := f.sign(t, 3333, []Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24"), MaxLength: 28}})
	want := "ROA(AS3333: 193.0.6.0/24-28)"
	if r.String() != want {
		t.Errorf("String = %q, want %q", r.String(), want)
	}
}
