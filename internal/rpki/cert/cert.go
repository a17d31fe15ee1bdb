// Package cert implements the resource certificates underlying the RPKI.
//
// RPKI certificates (RFC 6487) are X.509 certificates carrying RFC 3779
// extensions that delegate Internet number resources (IP prefixes and AS
// numbers). This package implements a self-contained DER-encoded
// resource-certificate format with the same semantics: a certificate
// binds a public key to a set of resources, is signed by its issuer, and
// is valid only if its resources are a subset of the issuer's and it has
// not expired.
//
// Cryptography is real: Ed25519 from the standard library, signing the
// DER bytes themselves (PureEdDSA, as RFC 8410 and RFC 8419 use it).
// RFC 7935's algorithm profile for the RPKI is RSA-2048 with SHA-256, so
// Ed25519 is a stand-in, as ECDSA P-256 was before it: it signs and
// verifies faster (see docs/webworld.md), and the validator's rules do
// not depend on the algorithm. Objects whose signatures do not verify
// are discarded by the validator, exactly as the paper's methodology
// requires ("Only cryptographically correct ROAs are further used").
package cert

import (
	"crypto/ed25519"
	"crypto/x509"
	"encoding/asn1"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"ripki/internal/netutil"
)

// ASRange is an inclusive range of AS numbers.
type ASRange struct {
	Min, Max uint32
}

// Resources is the set of Internet number resources delegated by a
// certificate: IP prefixes (both families) and AS number ranges.
type Resources struct {
	Prefixes []netip.Prefix
	ASNs     []ASRange
}

// ContainsPrefix reports whether p is covered by at least one prefix in
// the resource set.
func (r Resources) ContainsPrefix(p netip.Prefix) bool {
	for _, q := range r.Prefixes {
		if netutil.Covers(q, p) {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every resource in r is contained in s.
func (r Resources) SubsetOf(s Resources) bool {
	for _, p := range r.Prefixes {
		if !s.ContainsPrefix(p) {
			return false
		}
	}
	for _, rg := range r.ASNs {
		ok := false
		for _, sg := range s.ASNs {
			if sg.Min <= rg.Min && rg.Max <= sg.Max {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// AllResources returns the resource set covering the entire number
// space; used for the root of a trust-anchor hierarchy in tests and the
// synthetic world.
func AllResources() Resources {
	return Resources{
		Prefixes: []netip.Prefix{
			netutil.MustPrefix("0.0.0.0/0"),
			netutil.MustPrefix("::/0"),
		},
		ASNs: []ASRange{{Min: 0, Max: 4294967295}},
	}
}

// Certificate is a validated or to-be-validated resource certificate.
type Certificate struct {
	SerialNumber int64
	Subject      string
	Issuer       string
	NotBefore    time.Time
	NotAfter     time.Time
	IsCA         bool
	Resources    Resources
	PublicKey    ed25519.PublicKey

	// Signature is the issuer's Ed25519 signature over RawTBS.
	Signature []byte
	// RawTBS is the DER encoding of the to-be-signed portion.
	RawTBS []byte
}

// wire forms ------------------------------------------------------------

type asnPrefix struct {
	Addr []byte
	Bits int
}

type asnASRange struct {
	Min int64
	Max int64
}

type asnTBS struct {
	Version      int
	SerialNumber int64
	Subject      string
	Issuer       string
	NotBefore    time.Time `asn1:"utc"`
	NotAfter     time.Time `asn1:"utc"`
	IsCA         bool
	Prefixes     []asnPrefix
	ASRanges     []asnASRange
	PublicKey    []byte // PKIX, ASN.1 DER
}

type asnCert struct {
	TBS       asn1.RawValue
	Signature []byte
}

const tbsVersion = 1

func prefixesToWire(ps []netip.Prefix) []asnPrefix {
	out := make([]asnPrefix, 0, len(ps))
	for _, p := range ps {
		out = append(out, asnPrefix{Addr: p.Addr().AsSlice(), Bits: p.Bits()})
	}
	return out
}

func rangesToWire(rs []ASRange) []asnASRange {
	out := make([]asnASRange, 0, len(rs))
	for _, r := range rs {
		out = append(out, asnASRange{Min: int64(r.Min), Max: int64(r.Max)})
	}
	return out
}

// Template collects the fields of a certificate to be issued.
type Template struct {
	SerialNumber int64
	Subject      string
	NotBefore    time.Time
	NotAfter     time.Time
	IsCA         bool
	Resources    Resources
	PublicKey    ed25519.PublicKey
}

// Issue creates a certificate from tmpl signed by issuerKey in the name
// of issuer. For self-signed trust anchors pass issuer == tmpl.Subject
// and the anchor's own key. A key of the wrong length is an error.
func Issue(tmpl Template, issuer string, issuerKey ed25519.PrivateKey) (*Certificate, error) {
	if len(tmpl.PublicKey) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("cert: template public key is %d bytes, want %d", len(tmpl.PublicKey), ed25519.PublicKeySize)
	}
	if err := CheckPrivateKey(issuerKey); err != nil {
		return nil, err
	}
	if !tmpl.NotAfter.After(tmpl.NotBefore) {
		return nil, fmt.Errorf("cert: validity window inverted (%v .. %v)", tmpl.NotBefore, tmpl.NotAfter)
	}
	spki, err := x509.MarshalPKIXPublicKey(tmpl.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("cert: encoding public key: %w", err)
	}
	tbs := asnTBS{
		Version:      tbsVersion,
		SerialNumber: tmpl.SerialNumber,
		Subject:      tmpl.Subject,
		Issuer:       issuer,
		NotBefore:    tmpl.NotBefore.UTC().Truncate(time.Second),
		NotAfter:     tmpl.NotAfter.UTC().Truncate(time.Second),
		IsCA:         tmpl.IsCA,
		Prefixes:     prefixesToWire(tmpl.Resources.Prefixes),
		ASRanges:     rangesToWire(tmpl.Resources.ASNs),
		PublicKey:    spki,
	}
	rawTBS, err := asn1.Marshal(tbs)
	if err != nil {
		return nil, fmt.Errorf("cert: encoding TBS: %w", err)
	}
	c := &Certificate{
		SerialNumber: tmpl.SerialNumber,
		Subject:      tmpl.Subject,
		Issuer:       issuer,
		NotBefore:    tbs.NotBefore,
		NotAfter:     tbs.NotAfter,
		IsCA:         tmpl.IsCA,
		Resources:    tmpl.Resources,
		PublicKey:    tmpl.PublicKey,
		Signature:    ed25519.Sign(issuerKey, rawTBS),
		RawTBS:       rawTBS,
	}
	return c, nil
}

// Marshal encodes the certificate to DER: the bytes a CA's manifest
// lists the hash of.
func (c *Certificate) Marshal() ([]byte, error) {
	if len(c.RawTBS) == 0 {
		return nil, errors.New("cert: certificate has no raw TBS (not issued)")
	}
	return asn1.Marshal(asnCert{
		TBS:       asn1.RawValue{FullBytes: c.RawTBS},
		Signature: c.Signature,
	})
}

// CheckPrivateKey reports a signing key of the wrong length as an
// error: ed25519.Sign panics on one.
func CheckPrivateKey(key ed25519.PrivateKey) error {
	if len(key) != ed25519.PrivateKeySize {
		return fmt.Errorf("cert: signing key is %d bytes, want %d", len(key), ed25519.PrivateKeySize)
	}
	return nil
}

// VerifyOptions configures chain validation.
type VerifyOptions struct {
	// Now is the validation time; the zero value means time.Now().
	Now time.Time
	// Signatures, if not nil, is incremented for every signature
	// checked under these options, whether it verifies or not.
	Signatures *int
}

// CheckSignature verifies sig over msg under pub and counts it in
// o.Signatures. A key of the wrong length does not verify: it is
// reported as an error, where ed25519.Verify would panic.
func (o VerifyOptions) CheckSignature(pub ed25519.PublicKey, msg, sig []byte) error {
	if o.Signatures != nil {
		*o.Signatures++
	}
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("public key is %d bytes, want %d", len(pub), ed25519.PublicKeySize)
	}
	if !ed25519.Verify(pub, msg, sig) {
		return errors.New("signature does not verify")
	}
	return nil
}

func (o VerifyOptions) now() time.Time {
	if o.Now.IsZero() {
		return time.Now()
	}
	return o.Now
}

// Verify checks c against its issuer: signature, validity window, CA
// linkage (issuer must be a CA) and resource containment. Only a
// self-signed trust anchor, handed as its own issuer (issuer == c),
// skips the last two; a child that repeats its issuer's subject and
// serial is not self-signed.
func (c *Certificate) Verify(issuer *Certificate, opts VerifyOptions) error {
	now := opts.now()
	if now.Before(c.NotBefore) {
		return fmt.Errorf("cert: %q not yet valid (notBefore %v)", c.Subject, c.NotBefore)
	}
	if now.After(c.NotAfter) {
		return fmt.Errorf("cert: %q expired (notAfter %v)", c.Subject, c.NotAfter)
	}
	if c.Issuer != issuer.Subject {
		return fmt.Errorf("cert: %q names issuer %q, got certificate for %q", c.Subject, c.Issuer, issuer.Subject)
	}
	selfSigned := issuer == c
	if !selfSigned {
		if !issuer.IsCA {
			return fmt.Errorf("cert: issuer %q is not a CA", issuer.Subject)
		}
		if !c.Resources.SubsetOf(issuer.Resources) {
			return fmt.Errorf("cert: %q claims resources beyond issuer %q", c.Subject, issuer.Subject)
		}
	}
	if err := opts.CheckSignature(issuer.PublicKey, c.RawTBS, c.Signature); err != nil {
		return fmt.Errorf("cert: %q against issuer %q: %w", c.Subject, issuer.Subject, err)
	}
	return nil
}
