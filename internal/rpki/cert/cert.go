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
// Cryptography is real: ECDSA over P-256 with SHA-256, via the standard
// library. Objects whose signatures do not verify are discarded by the
// validator, exactly as the paper's methodology requires ("Only
// cryptographically correct ROAs are further used").
package cert

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"encoding/asn1"
	"errors"
	"fmt"
	"io"
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
	PublicKey    *ecdsa.PublicKey

	// Signature is the issuer's ECDSA signature (ASN.1 form) over the
	// SHA-256 digest of RawTBS.
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
	PublicKey    *ecdsa.PublicKey
}

// GenerateKey creates a new P-256 key pair. If r is nil, crypto/rand is
// used.
func GenerateKey(r io.Reader) (*ecdsa.PrivateKey, error) {
	if r == nil {
		r = rand.Reader
	}
	return ecdsa.GenerateKey(elliptic.P256(), r)
}

// Issue creates a certificate from tmpl signed by issuerKey in the name
// of issuer. For self-signed trust anchors pass issuer == tmpl.Subject
// and the anchor's own key.
func Issue(tmpl Template, issuer string, issuerKey *ecdsa.PrivateKey) (*Certificate, error) {
	if tmpl.PublicKey == nil {
		return nil, errors.New("cert: template missing public key")
	}
	if issuerKey == nil {
		return nil, errors.New("cert: missing issuer key")
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
	digest := sha256.Sum256(rawTBS)
	sig, err := ecdsa.SignASN1(rand.Reader, issuerKey, digest[:])
	if err != nil {
		return nil, fmt.Errorf("cert: signing: %w", err)
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
		Signature:    sig,
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

// CheckSignatureFrom verifies that issuer's key signed c.
func (c *Certificate) CheckSignatureFrom(issuer *Certificate) error {
	if issuer.PublicKey == nil {
		return errors.New("cert: issuer has no public key")
	}
	digest := sha256.Sum256(c.RawTBS)
	if !ecdsa.VerifyASN1(issuer.PublicKey, digest[:], c.Signature) {
		return fmt.Errorf("cert: signature on %q does not verify against issuer %q", c.Subject, issuer.Subject)
	}
	return nil
}

// VerifyOptions configures chain validation.
type VerifyOptions struct {
	// Now is the validation time; the zero value means time.Now().
	Now time.Time
}

func (o VerifyOptions) now() time.Time {
	if o.Now.IsZero() {
		return time.Now()
	}
	return o.Now
}

// Verify checks c against its issuer: signature, validity window, CA
// linkage (issuer must be a CA unless self-signed), and resource
// containment. Self-signed trust anchors pass issuer == c.
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
	selfSigned := issuer == c || (issuer.Subject == c.Subject && issuer.SerialNumber == c.SerialNumber)
	if !selfSigned {
		if !issuer.IsCA {
			return fmt.Errorf("cert: issuer %q is not a CA", issuer.Subject)
		}
		if !c.Resources.SubsetOf(issuer.Resources) {
			return fmt.Errorf("cert: %q claims resources beyond issuer %q", c.Subject, issuer.Subject)
		}
	}
	return c.CheckSignatureFrom(issuer)
}
