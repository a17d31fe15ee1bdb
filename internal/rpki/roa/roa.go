// Package roa implements Route Origin Authorizations.
//
// A ROA (RFC 6482) is a signed object stating that an AS is authorised
// to originate a set of IP prefixes, each optionally up to a maximum
// more-specific length. Real ROAs are CMS-wrapped; here the signed
// object carries its one-time end-entity (EE) certificate, the DER
// eContent, and an Ed25519 signature over it made with the EE key, which
// preserves the validation chain: TA → CA → EE cert → ROA payload.
// RFC 7935 profiles RSA-2048 for this; Ed25519 is a stand-in (see
// package cert).
package roa

import (
	"crypto/ed25519"
	"encoding/asn1"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"ripki/internal/netutil"
	"ripki/internal/rpki/cert"
)

// Prefix is one authorised prefix inside a ROA.
type Prefix struct {
	Prefix netip.Prefix
	// MaxLength is the longest more-specific announcement authorised.
	// It must satisfy Prefix.Bits() <= MaxLength <= family bits.
	MaxLength int
}

// ROA is a route origin authorisation, possibly not yet validated.
type ROA struct {
	ASID     uint32
	Prefixes []Prefix

	// EE is the one-time end-entity certificate whose key signed the
	// payload. Its resources must cover every authorised prefix.
	EE *cert.Certificate
	// Signature is the EE key's signature over the DER eContent.
	Signature []byte
	// RawContent is the DER eContent (the signed payload).
	RawContent []byte
}

type asnROAPrefix struct {
	Addr      []byte
	Bits      int
	MaxLength int
}

type asnROAContent struct {
	Version  int
	ASID     int64
	Prefixes []asnROAPrefix
}

type asnROA struct {
	Content   asn1.RawValue
	EECert    []byte
	Signature []byte
}

const contentVersion = 1

// Sign builds and signs a ROA for asID over prefixes, using the provided
// EE certificate and its private key. The EE certificate should already
// be issued by the owning CA; Sign does not check resource containment
// (Validate does).
func Sign(asID uint32, prefixes []Prefix, ee *cert.Certificate, eeKey ed25519.PrivateKey) (*ROA, error) {
	if ee == nil {
		return nil, errors.New("roa: missing EE certificate")
	}
	if err := cert.CheckPrivateKey(eeKey); err != nil {
		return nil, fmt.Errorf("roa: %w", err)
	}
	if len(prefixes) == 0 {
		return nil, errors.New("roa: a ROA must authorise at least one prefix")
	}
	wire := asnROAContent{Version: contentVersion, ASID: int64(asID)}
	for _, p := range prefixes {
		cp, err := netutil.Canonical(p.Prefix)
		if err != nil {
			return nil, fmt.Errorf("roa: %w", err)
		}
		ml := p.MaxLength
		if ml == 0 {
			ml = cp.Bits()
		}
		if ml < cp.Bits() || ml > netutil.FamilyBits(cp.Addr()) {
			return nil, fmt.Errorf("roa: maxLength %d invalid for %v", ml, cp)
		}
		wire.Prefixes = append(wire.Prefixes, asnROAPrefix{
			Addr: cp.Addr().AsSlice(), Bits: cp.Bits(), MaxLength: ml,
		})
	}
	raw, err := asn1.Marshal(wire)
	if err != nil {
		return nil, fmt.Errorf("roa: encoding content: %w", err)
	}
	out := &ROA{ASID: asID, EE: ee, Signature: ed25519.Sign(eeKey, raw), RawContent: raw}
	for _, p := range wire.Prefixes {
		a, _ := netip.AddrFromSlice(p.Addr)
		out.Prefixes = append(out.Prefixes, Prefix{
			Prefix:    netip.PrefixFrom(a, p.Bits).Masked(),
			MaxLength: p.MaxLength,
		})
	}
	return out, nil
}

// Marshal encodes the ROA (content, EE certificate, signature) to DER,
// as a manifest hashes it.
func (r *ROA) Marshal() ([]byte, error) {
	eeDER, err := r.EE.Marshal()
	if err != nil {
		return nil, fmt.Errorf("roa: encoding EE certificate: %w", err)
	}
	return asn1.Marshal(asnROA{
		Content:   asn1.RawValue{FullBytes: r.RawContent},
		EECert:    eeDER,
		Signature: r.Signature,
	})
}

// Validate checks the ROA end to end against the issuing CA certificate:
//
//  1. the EE certificate chains to ca (signature, validity, resources),
//  2. the payload signature verifies under the EE key,
//  3. every authorised prefix is contained in the EE certificate's
//     resources.
//
// This mirrors the steps an RPKI relying party performs before emitting
// VRPs ("Only cryptographically correct ROAs are further used").
func (r *ROA) Validate(ca *cert.Certificate, opts cert.VerifyOptions) error {
	if r.EE == nil {
		return errors.New("roa: missing EE certificate")
	}
	if r.EE.IsCA {
		return errors.New("roa: EE certificate must not be a CA")
	}
	if err := r.EE.Verify(ca, opts); err != nil {
		return fmt.Errorf("roa: EE certificate invalid: %w", err)
	}
	if err := opts.CheckSignature(r.EE.PublicKey, r.RawContent, r.Signature); err != nil {
		return fmt.Errorf("roa: payload: %w", err)
	}
	for _, p := range r.Prefixes {
		if !r.EE.Resources.ContainsPrefix(p.Prefix) {
			return fmt.Errorf("roa: prefix %v outside EE certificate resources", p.Prefix)
		}
	}
	return nil
}

// String renders the ROA in the conventional "AS -> prefixes" form.
func (r *ROA) String() string {
	s := fmt.Sprintf("ROA(AS%d:", r.ASID)
	for _, p := range r.Prefixes {
		s += fmt.Sprintf(" %v-%d", p.Prefix, p.MaxLength)
	}
	return s + ")"
}

// NewEE issues a one-time end-entity certificate for a ROA covering
// exactly the given prefixes, signed by the CA. The returned key signs
// the ROA payload.
func NewEE(serial int64, subject string, prefixes []Prefix, notBefore, notAfter time.Time, caCert *cert.Certificate, caKey ed25519.PrivateKey) (*cert.Certificate, ed25519.PrivateKey, error) {
	pub, key, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("roa: generating EE key: %w", err)
	}
	res := cert.Resources{}
	for _, p := range prefixes {
		res.Prefixes = append(res.Prefixes, p.Prefix.Masked())
	}
	ee, err := cert.Issue(cert.Template{
		SerialNumber: serial,
		Subject:      subject,
		NotBefore:    notBefore,
		NotAfter:     notAfter,
		IsCA:         false,
		Resources:    res,
		PublicKey:    pub,
	}, caCert.Subject, caKey)
	if err != nil {
		return nil, nil, fmt.Errorf("roa: issuing EE certificate: %w", err)
	}
	return ee, key, nil
}
