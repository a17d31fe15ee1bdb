// Package repo models RPKI repositories and the relying-party validator.
//
// The global RPKI is rooted at five trust anchors, one per RIR (APNIC,
// AfriNIC, ARIN, LACNIC, RIPE — §3 step 4 of the paper). Each
// certification authority publishes, at its publication point, a
// manifest, its child CA certificates, and its ROAs. A relying party
// walks the tree from the trust anchors, discards anything that is
// cryptographically incorrect (bad signature, expired, missing from or
// mismatching the manifest, over-claiming resources), and emits the
// surviving ROAs' payloads as VRPs. Nothing here is ever revoked, so
// there are no CRLs: a ROA leaves the RPKI by not being issued.
//
// Certificates, manifests and ROAs are signed with Ed25519, a stand-in
// for RFC 7935's RSA-2048 (see package cert); object hashes are SHA-256,
// as RFC 6486 has them.
package repo

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"time"

	"ripki/internal/rpki/cert"
	"ripki/internal/rpki/roa"
	"ripki/internal/rpki/vrp"
)

// Object is a named, hashed publication-point entry.
type Object struct {
	Name string
	DER  []byte
}

// hash returns the SHA-256 digest of the object bytes.
func (o Object) hash() [32]byte { return sha256.Sum256(o.DER) }

// Manifest lists the objects a CA currently publishes, with hashes, so a
// relying party can detect withheld or substituted objects.
type Manifest struct {
	Issuer     string
	Number     int64
	ThisUpdate time.Time
	NextUpdate time.Time
	Entries    map[string][32]byte
	Signature  []byte
	raw        []byte
}

func manifestTBS(issuer string, number int64, thisUpdate, nextUpdate time.Time, entries map[string][32]byte) []byte {
	names := make([]string, 0, len(entries))
	for n := range entries {
		names = append(names, n)
	}
	sort.Strings(names)
	buf := make([]byte, 0, 64+len(entries)*48)
	buf = append(buf, issuer...)
	buf = append(buf, 0)
	buf = appendInt64(buf, number)
	buf = appendInt64(buf, thisUpdate.Unix())
	buf = appendInt64(buf, nextUpdate.Unix())
	for _, n := range names {
		h := entries[n]
		buf = append(buf, n...)
		buf = append(buf, 0)
		buf = append(buf, h[:]...)
	}
	return buf
}

func appendInt64(b []byte, v int64) []byte {
	for i := 56; i >= 0; i -= 8 {
		b = append(b, byte(v>>uint(i)))
	}
	return b
}

// Verify checks the manifest signature and freshness.
func (m *Manifest) Verify(issuer *cert.Certificate, opts cert.VerifyOptions) error {
	now := opts.Now
	if now.IsZero() {
		now = time.Now()
	}
	if now.After(m.NextUpdate) {
		return fmt.Errorf("repo: manifest %q stale (nextUpdate %v)", m.Issuer, m.NextUpdate)
	}
	if err := opts.CheckSignature(issuer.PublicKey, m.raw, m.Signature); err != nil {
		return fmt.Errorf("repo: manifest from %q: %w", m.Issuer, err)
	}
	return nil
}

// CA is a certification authority with its publication point. Fields are
// exported for inspection; mutate only through the methods to keep the
// manifest consistent (or deliberately, to inject faults in tests).
type CA struct {
	Cert *cert.Certificate
	Key  ed25519.PrivateKey

	Children []*CA
	ROAs     []*roa.ROA
	Manifest *Manifest

	nextSerial int64
}

// Repository is the global RPKI: the five RIR trust anchors and every CA
// beneath them.
type Repository struct {
	Anchors []*CA
	// Clock is the time used when issuing objects; tests pin it.
	Clock time.Time
	// TTL is the validity window for issued objects.
	TTL time.Duration
}

// RIRNames are the five regional Internet registries, i.e. the RPKI
// trust anchors ("ROA data of all trust anchors (APNIC, AfriNIC, ARIN,
// LACNIC, and RIPE) are collected and validated").
var RIRNames = []string{"apnic", "afrinic", "arin", "lacnic", "ripe"}

// New creates a repository with one self-signed trust anchor per name,
// each claiming the whole number space (as the production RPKI TAs do).
func New(names []string, clock time.Time, ttl time.Duration) (*Repository, error) {
	r := &Repository{Clock: clock, TTL: ttl}
	for _, name := range names {
		pub, key, err := ed25519.GenerateKey(nil)
		if err != nil {
			return nil, fmt.Errorf("repo: generating key for %s: %w", name, err)
		}
		c, err := cert.Issue(cert.Template{
			SerialNumber: 1,
			Subject:      "ta-" + name,
			NotBefore:    clock,
			NotAfter:     clock.Add(ttl),
			IsCA:         true,
			Resources:    cert.AllResources(),
			PublicKey:    pub,
		}, "ta-"+name, key)
		if err != nil {
			return nil, fmt.Errorf("repo: issuing TA %s: %w", name, err)
		}
		ca := &CA{Cert: c, Key: key, nextSerial: 2}
		if err := ca.refreshManifest(clock, ttl); err != nil {
			return nil, err
		}
		r.Anchors = append(r.Anchors, ca)
	}
	return r, nil
}

// Anchor returns the trust anchor whose subject is "ta-"+name.
func (r *Repository) Anchor(name string) *CA {
	for _, a := range r.Anchors {
		if a.Cert.Subject == "ta-"+name {
			return a
		}
	}
	return nil
}

// NewCA issues a child CA under parent with the given resources.
func (r *Repository) NewCA(parent *CA, subject string, res cert.Resources) (*CA, error) {
	pub, key, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, fmt.Errorf("repo: generating key for %s: %w", subject, err)
	}
	parent.nextSerial++
	c, err := cert.Issue(cert.Template{
		SerialNumber: parent.nextSerial,
		Subject:      subject,
		NotBefore:    r.Clock,
		NotAfter:     r.Clock.Add(r.TTL),
		IsCA:         true,
		Resources:    res,
		PublicKey:    pub,
	}, parent.Cert.Subject, parent.Key)
	if err != nil {
		return nil, fmt.Errorf("repo: issuing CA %s: %w", subject, err)
	}
	ca := &CA{Cert: c, Key: key, nextSerial: 1}
	if err := ca.refreshManifest(r.Clock, r.TTL); err != nil {
		return nil, err
	}
	parent.Children = append(parent.Children, ca)
	if err := parent.refreshManifest(r.Clock, r.TTL); err != nil {
		return nil, err
	}
	return ca, nil
}

// ROASpec is one ROA to issue: the AS it authorises and the prefixes
// that AS may originate.
type ROASpec struct {
	ASID     uint32
	Prefixes []roa.Prefix
}

// AddROAs signs one ROA per spec under ca, in order, and then ca's
// manifest once over all of them. It publishes what as many AddROA calls
// would, for one manifest signature instead of one per ROA. On an error
// no ROA of the batch is published. An empty batch signs nothing.
func (r *Repository) AddROAs(ca *CA, specs []ROASpec) ([]*roa.ROA, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	held := len(ca.ROAs)
	for _, s := range specs {
		ro, err := r.issueROA(ca, s)
		if err != nil {
			ca.ROAs = ca.ROAs[:held]
			return nil, err
		}
		ca.ROAs = append(ca.ROAs, ro)
	}
	if err := ca.refreshManifest(r.Clock, r.TTL); err != nil {
		ca.ROAs = ca.ROAs[:held]
		return nil, err
	}
	return ca.ROAs[held:len(ca.ROAs):len(ca.ROAs)], nil
}

// issueROA signs one ROA under ca with a fresh EE certificate; it does
// not publish it.
func (r *Repository) issueROA(ca *CA, s ROASpec) (*roa.ROA, error) {
	ca.nextSerial++
	ee, eeKey, err := roa.NewEE(ca.nextSerial, fmt.Sprintf("%s-roa-%d", ca.Cert.Subject, ca.nextSerial), s.Prefixes, r.Clock, r.Clock.Add(r.TTL), ca.Cert, ca.Key)
	if err != nil {
		return nil, err
	}
	return roa.Sign(s.ASID, s.Prefixes, ee, eeKey)
}

// objects returns the CA's current publication-point content (children
// and ROAs), excluding the manifest itself.
func (ca *CA) objects() ([]Object, error) {
	var objs []Object
	for i, child := range ca.Children {
		der, err := child.Cert.Marshal()
		if err != nil {
			return nil, err
		}
		objs = append(objs, Object{Name: fmt.Sprintf("ca-%d.cer", i), DER: der})
	}
	for i, ro := range ca.ROAs {
		der, err := ro.Marshal()
		if err != nil {
			return nil, err
		}
		objs = append(objs, Object{Name: fmt.Sprintf("roa-%d.roa", i), DER: der})
	}
	return objs, nil
}

// refreshManifest re-signs the manifest over the current objects. Its
// number is one past the CA's previous manifest's, so equal issuance
// gives equal numbers.
func (ca *CA) refreshManifest(clock time.Time, ttl time.Duration) error {
	if err := cert.CheckPrivateKey(ca.Key); err != nil {
		return fmt.Errorf("repo: manifest of %q: %w", ca.Cert.Subject, err)
	}
	objs, err := ca.objects()
	if err != nil {
		return err
	}
	entries := make(map[string][32]byte, len(objs))
	for _, o := range objs {
		entries[o.Name] = o.hash()
	}
	number := int64(1)
	if ca.Manifest != nil {
		number = ca.Manifest.Number + 1
	}
	m := &Manifest{
		Issuer:     ca.Cert.Subject,
		Number:     number,
		ThisUpdate: clock,
		NextUpdate: clock.Add(ttl),
		Entries:    entries,
	}
	m.raw = manifestTBS(m.Issuer, m.Number, m.ThisUpdate, m.NextUpdate, entries)
	m.Signature = ed25519.Sign(ca.Key, m.raw)
	ca.Manifest = m
	return nil
}

// ValidationProblem records one discarded object during validation.
type ValidationProblem struct {
	CA     string
	Object string
	Err    error
}

func (p ValidationProblem) String() string {
	return fmt.Sprintf("%s/%s: %v", p.CA, p.Object, p.Err)
}

// ValidationResult is the relying party's output: the VRP set plus an
// audit trail of everything discarded.
type ValidationResult struct {
	VRPs     *vrp.Set
	Problems []ValidationProblem
	// ROAsSeen and ROAsValid count processed vs accepted ROAs.
	ROAsSeen  int
	ROAsValid int

	// signatures counts the signatures checked: a trust anchor's own,
	// a manifest's, a child CA certificate's, and a ROA's two (its EE
	// certificate's and its payload's), each once.
	signatures int
	// anchors is what Validate found under each trust anchor, by RIR
	// name (see AnchorVRPs).
	anchors map[string][]vrp.VRP
}

// AnchorVRPs returns the payloads validated beneath the named trust
// anchor, in VRP order — what validating that anchor's subtree alone
// finds, from the
// walk Validate made anyway. The slice is shared and read-only; it is
// nil for an unknown anchor and on a result Validate did not produce.
func (res *ValidationResult) AnchorVRPs(name string) []vrp.VRP { return res.anchors[name] }

// Validate walks the repository from its trust anchors and returns the
// validated ROA payloads. Invalid objects are recorded and skipped, not
// fatal — mirroring deployed relying-party behaviour. The walk is one
// anchor after another, each validated alone, and the result
// their union, so every signature is verified once and what each anchor
// contributed is kept beside the whole.
func (r *Repository) Validate(at time.Time) *ValidationResult {
	res := &ValidationResult{VRPs: vrp.NewSet(), anchors: make(map[string][]vrp.VRP, len(r.Anchors))}
	for _, ta := range r.Anchors {
		sub := r.validateAnchor(ta, at)
		payloads := sub.VRPs.All()
		for _, v := range payloads {
			// The anchor's own set accepted v, so this one does.
			_ = res.VRPs.Add(v)
		}
		res.anchors[strings.TrimPrefix(ta.Cert.Subject, "ta-")] = payloads
		res.Problems = append(res.Problems, sub.Problems...)
		res.ROAsSeen += sub.ROAsSeen
		res.ROAsValid += sub.ROAsValid
		res.signatures += sub.signatures
	}
	return res
}

// validateAnchor walks only one trust anchor's subtree and returns its
// validated payloads — what the RPKI loses when one RIR's publication
// point goes dark.
func (r *Repository) validateAnchor(ta *CA, at time.Time) *ValidationResult {
	res := &ValidationResult{VRPs: vrp.NewSet()}
	opts := cert.VerifyOptions{Now: at, Signatures: &res.signatures}
	if err := ta.Cert.Verify(ta.Cert, opts); err != nil {
		res.Problems = append(res.Problems, ValidationProblem{CA: ta.Cert.Subject, Object: "ta.cer", Err: err})
		return res
	}
	r.validateCA(ta, opts, res)
	return res
}

func (r *Repository) validateCA(ca *CA, opts cert.VerifyOptions, res *ValidationResult) {
	// Manifest gate: a missing or invalid manifest voids the whole
	// publication point.
	if ca.Manifest == nil {
		res.Problems = append(res.Problems, ValidationProblem{CA: ca.Cert.Subject, Object: "manifest", Err: fmt.Errorf("repo: missing manifest")})
		return
	}
	if err := ca.Manifest.Verify(ca.Cert, opts); err != nil {
		res.Problems = append(res.Problems, ValidationProblem{CA: ca.Cert.Subject, Object: "manifest", Err: err})
		return
	}
	objs, err := ca.objects()
	if err != nil {
		res.Problems = append(res.Problems, ValidationProblem{CA: ca.Cert.Subject, Object: "publication point", Err: err})
		return
	}
	listed := make(map[string]bool, len(ca.Manifest.Entries))
	for name := range ca.Manifest.Entries {
		listed[name] = true
	}
	bad := make(map[string]bool)
	for _, o := range objs {
		want, ok := ca.Manifest.Entries[o.Name]
		if !ok {
			res.Problems = append(res.Problems, ValidationProblem{CA: ca.Cert.Subject, Object: o.Name, Err: fmt.Errorf("repo: object not in manifest")})
			bad[o.Name] = true
			continue
		}
		delete(listed, o.Name)
		if o.hash() != want {
			res.Problems = append(res.Problems, ValidationProblem{CA: ca.Cert.Subject, Object: o.Name, Err: fmt.Errorf("repo: manifest hash mismatch")})
			bad[o.Name] = true
			continue
		}
	}
	for name := range listed {
		res.Problems = append(res.Problems, ValidationProblem{CA: ca.Cert.Subject, Object: name, Err: fmt.Errorf("repo: manifest lists missing object")})
	}

	for i, ro := range ca.ROAs {
		res.ROAsSeen++
		name := fmt.Sprintf("roa-%d.roa", i)
		if bad[name] {
			continue // already reported above
		}
		if err := ro.Validate(ca.Cert, opts); err != nil {
			res.Problems = append(res.Problems, ValidationProblem{CA: ca.Cert.Subject, Object: name, Err: err})
			continue
		}
		res.ROAsValid++
		for _, p := range ro.Prefixes {
			if err := res.VRPs.Add(vrp.VRP{Prefix: p.Prefix, MaxLength: p.MaxLength, ASN: ro.ASID}); err != nil {
				res.Problems = append(res.Problems, ValidationProblem{CA: ca.Cert.Subject, Object: name, Err: err})
			}
		}
	}

	for i, child := range ca.Children {
		name := fmt.Sprintf("ca-%d.cer", i)
		if bad[name] {
			continue
		}
		if err := child.Cert.Verify(ca.Cert, opts); err != nil {
			res.Problems = append(res.Problems, ValidationProblem{CA: ca.Cert.Subject, Object: name, Err: err})
			continue
		}
		r.validateCA(child, opts, res)
	}
}
