package repo

import (
	"crypto/ed25519"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"ripki/internal/netutil"
	"ripki/internal/rpki/cert"
	"ripki/internal/rpki/roa"
	"ripki/internal/rpki/vrp"
)

type pfx = netip.Prefix

var (
	clock = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	ttl   = 365 * 24 * time.Hour
	at    = clock.Add(30 * 24 * time.Hour)
)

func newRepo(t *testing.T) *Repository {
	t.Helper()
	r, err := New([]string{"ripe", "arin"}, clock, ttl)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// addROA signs one ROA under ca, as a batch of one.
func addROA(r *Repository, ca *CA, asID uint32, prefixes []roa.Prefix) (*roa.ROA, error) {
	ros, err := r.AddROAs(ca, []ROASpec{{ASID: asID, Prefixes: prefixes}})
	if err != nil {
		return nil, err
	}
	return ros[0], nil
}

func TestNewHasAnchors(t *testing.T) {
	r, err := New(RIRNames, clock, ttl)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Anchors) != 5 {
		t.Fatalf("anchors = %d, want 5", len(r.Anchors))
	}
	if r.Anchor("ripe") == nil || r.Anchor("arin") == nil {
		t.Error("Anchor lookup failed")
	}
	if r.Anchor("nosuch") != nil {
		t.Error("Anchor('nosuch') != nil")
	}
}

func TestValidateCleanRepo(t *testing.T) {
	r := newRepo(t)
	ripe := r.Anchor("ripe")
	isp, err := r.NewCA(ripe, "isp-1", cert.Resources{
		Prefixes: []pfx{netutil.MustPrefix("193.0.0.0/16")},
		ASNs:     []cert.ASRange{{Min: 3333, Max: 3333}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := addROA(r, isp, 3333, []roa.Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24"), MaxLength: 24}}); err != nil {
		t.Fatal(err)
	}
	res := r.Validate(at)
	if len(res.Problems) != 0 {
		t.Fatalf("problems: %v", res.Problems)
	}
	if res.ROAsSeen != 1 || res.ROAsValid != 1 {
		t.Fatalf("ROAs seen/valid = %d/%d", res.ROAsSeen, res.ROAsValid)
	}
	if res.VRPs.Len() != 1 {
		t.Fatalf("VRPs = %d, want 1", res.VRPs.Len())
	}
	if got := res.VRPs.Validate(netutil.MustPrefix("193.0.6.0/24"), 3333); got != vrp.Valid {
		t.Errorf("origin validation = %v, want valid", got)
	}
}

func TestValidateMultiLevelHierarchy(t *testing.T) {
	r := newRepo(t)
	ripe := r.Anchor("ripe")
	nir, err := r.NewCA(ripe, "nir", cert.Resources{
		Prefixes: []pfx{netutil.MustPrefix("80.0.0.0/8")},
		ASNs:     []cert.ASRange{{Min: 1000, Max: 1999}},
	})
	if err != nil {
		t.Fatal(err)
	}
	lir, err := r.NewCA(nir, "lir", cert.Resources{
		Prefixes: []pfx{netutil.MustPrefix("80.1.0.0/16")},
		ASNs:     []cert.ASRange{{Min: 1500, Max: 1500}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := addROA(r, lir, 1500, []roa.Prefix{{Prefix: netutil.MustPrefix("80.1.2.0/24"), MaxLength: 25}}); err != nil {
		t.Fatal(err)
	}
	res := r.Validate(at)
	if len(res.Problems) != 0 {
		t.Fatalf("problems: %v", res.Problems)
	}
	if res.VRPs.Len() != 1 {
		t.Fatalf("VRPs = %d, want 1", res.VRPs.Len())
	}
	if got := res.VRPs.Validate(netutil.MustPrefix("80.1.2.0/25"), 1500); got != vrp.Valid {
		t.Errorf("deep-chain VRP not usable: %v", got)
	}
}

func TestValidateDiscardsOverclaimingCA(t *testing.T) {
	r := newRepo(t)
	ripe := r.Anchor("ripe")
	isp, err := r.NewCA(ripe, "isp", cert.Resources{
		Prefixes: []pfx{netutil.MustPrefix("193.0.0.0/16")},
		ASNs:     []cert.ASRange{{Min: 3333, Max: 3333}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Forge: replace the child CA's certificate with one that claims more
	// than RIPE delegated, signed by RIPE's real key (a malicious or
	// buggy parent could do this; resource check must still reject it at
	// verification because SubsetOf fails).
	pub, _, _ := ed25519.GenerateKey(nil)
	big, err := cert.Issue(cert.Template{
		SerialNumber: 99, Subject: "isp", NotBefore: clock, NotAfter: clock.Add(ttl),
		IsCA:      true,
		Resources: cert.Resources{Prefixes: []pfx{netutil.MustPrefix("0.0.0.0/1")}},
		PublicKey: pub,
	}, ripe.Cert.Subject, ripe.Key)
	if err != nil {
		t.Fatal(err)
	}
	// Over-claiming relative to nothing: RIPE holds 0/0 so /1 is a
	// subset; instead test a child of isp over-claiming beyond isp.
	_ = big
	sub, err := r.NewCA(isp, "sub", cert.Resources{Prefixes: []pfx{netutil.MustPrefix("193.0.0.0/24")}})
	if err != nil {
		t.Fatal(err)
	}
	forgedPub, forgedKey, _ := ed25519.GenerateKey(nil)
	forged, err := cert.Issue(cert.Template{
		SerialNumber: 100, Subject: "sub", NotBefore: clock, NotAfter: clock.Add(ttl),
		IsCA:      true,
		Resources: cert.Resources{Prefixes: []pfx{netutil.MustPrefix("200.0.0.0/8")}},
		PublicKey: forgedPub,
	}, isp.Cert.Subject, isp.Key)
	if err != nil {
		t.Fatal(err)
	}
	sub.Cert = forged
	sub.Key = forgedKey
	if err := isp.refreshManifest(r.Clock, r.TTL); err != nil {
		t.Fatal(err)
	}
	res := r.Validate(at)
	if len(res.Problems) == 0 {
		t.Fatal("over-claiming child CA not reported")
	}
}

func TestValidateDiscardsTamperedROA(t *testing.T) {
	r := newRepo(t)
	ripe := r.Anchor("ripe")
	isp, _ := r.NewCA(ripe, "isp", cert.Resources{
		Prefixes: []pfx{netutil.MustPrefix("193.0.0.0/16")},
		ASNs:     []cert.ASRange{{Min: 3333, Max: 3333}},
	})
	ro, err := addROA(r, isp, 3333, []roa.Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24"), MaxLength: 24}})
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the signed content after publication.
	ro.Signature[0] ^= 0xff
	if err := isp.refreshManifest(r.Clock, r.TTL); err != nil {
		t.Fatal(err)
	}
	res := r.Validate(at)
	if res.VRPs.Len() != 0 {
		t.Fatalf("tampered ROA produced VRPs: %v", res.VRPs.All())
	}
	if res.ROAsValid != 0 || res.ROAsSeen != 1 {
		t.Fatalf("seen/valid = %d/%d", res.ROAsSeen, res.ROAsValid)
	}
	if len(res.Problems) == 0 {
		t.Fatal("no problem recorded for tampered ROA")
	}
}

func TestValidateManifestHashMismatch(t *testing.T) {
	r := newRepo(t)
	ripe := r.Anchor("ripe")
	isp, _ := r.NewCA(ripe, "isp", cert.Resources{
		Prefixes: []pfx{netutil.MustPrefix("193.0.0.0/16")},
		ASNs:     []cert.ASRange{{Min: 3333, Max: 3333}},
	})
	if _, err := addROA(r, isp, 3333, []roa.Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24"), MaxLength: 24}}); err != nil {
		t.Fatal(err)
	}
	// Substitute the ROA without refreshing the manifest: hash mismatch.
	ro2ee, ro2key, _ := roa.NewEE(500, "evil", []roa.Prefix{{Prefix: netutil.MustPrefix("193.0.7.0/24")}}, clock, clock.Add(ttl), isp.Cert, isp.Key)
	ro2, _ := roa.Sign(3333, []roa.Prefix{{Prefix: netutil.MustPrefix("193.0.7.0/24")}}, ro2ee, ro2key)
	isp.ROAs[0] = ro2
	res := r.Validate(at)
	if res.VRPs.Len() != 0 {
		t.Fatalf("substituted ROA accepted: %v", res.VRPs.All())
	}
	found := false
	for _, p := range res.Problems {
		if p.Object == "roa-0.roa" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected hash-mismatch problem, got %v", res.Problems)
	}
}

func TestValidateStaleManifestVoidsPP(t *testing.T) {
	r := newRepo(t)
	ripe := r.Anchor("ripe")
	isp, _ := r.NewCA(ripe, "isp", cert.Resources{
		Prefixes: []pfx{netutil.MustPrefix("193.0.0.0/16")},
		ASNs:     []cert.ASRange{{Min: 3333, Max: 3333}},
	})
	if _, err := addROA(r, isp, 3333, []roa.Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24"), MaxLength: 24}}); err != nil {
		t.Fatal(err)
	}
	// Validate after the manifest expired.
	res := r.Validate(clock.Add(ttl + time.Hour))
	if res.VRPs.Len() != 0 {
		t.Fatal("stale publication point still produced VRPs")
	}
}

func TestMissingManifestVoidsPP(t *testing.T) {
	r := newRepo(t)
	ripe := r.Anchor("ripe")
	isp, _ := r.NewCA(ripe, "isp", cert.Resources{
		Prefixes: []pfx{netutil.MustPrefix("193.0.0.0/16")},
		ASNs:     []cert.ASRange{{Min: 3333, Max: 3333}},
	})
	if _, err := addROA(r, isp, 3333, []roa.Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24"), MaxLength: 24}}); err != nil {
		t.Fatal(err)
	}
	isp.Manifest = nil
	res := r.Validate(at)
	if res.VRPs.Len() != 0 {
		t.Fatal("publication point without manifest accepted")
	}
}

func TestValidateAnchorIsolatesSubtree(t *testing.T) {
	r := newRepo(t)
	ripe := r.Anchor("ripe")
	arin := r.Anchor("arin")
	ispEU, err := r.NewCA(ripe, "isp-eu", cert.Resources{
		Prefixes: []pfx{netutil.MustPrefix("193.0.0.0/16")},
		ASNs:     []cert.ASRange{{Min: 3333, Max: 3333}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := addROA(r, ispEU, 3333, []roa.Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24"), MaxLength: 24}}); err != nil {
		t.Fatal(err)
	}
	ispUS, err := r.NewCA(arin, "isp-us", cert.Resources{
		Prefixes: []pfx{netutil.MustPrefix("8.8.0.0/16")},
		ASNs:     []cert.ASRange{{Min: 15169, Max: 15169}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := addROA(r, ispUS, 15169, []roa.Prefix{{Prefix: netutil.MustPrefix("8.8.8.0/24"), MaxLength: 24}}); err != nil {
		t.Fatal(err)
	}

	full := r.Validate(at)
	if full.VRPs.Len() != 2 {
		t.Fatalf("full validation: %d VRPs, want 2", full.VRPs.Len())
	}
	ripeOnly := r.validateAnchor(r.Anchor("ripe"), at)
	if ripeOnly.VRPs.Len() != 1 {
		t.Fatalf("ripe subtree: %d VRPs, want 1", ripeOnly.VRPs.Len())
	}
	if got := ripeOnly.VRPs.Validate(netutil.MustPrefix("193.0.6.0/24"), 3333); got != vrp.Valid {
		t.Errorf("ripe VRP missing from subtree validation: %v", got)
	}
	if got := ripeOnly.VRPs.Validate(netutil.MustPrefix("8.8.8.0/24"), 15169); got != vrp.NotFound {
		t.Errorf("arin VRP leaked into ripe subtree: %v", got)
	}
}

// TestValidateRecordsEachAnchor: Validate is the union of validateAnchor
// over the anchors, and keeps the parts. For every RIR the payloads it
// recorded are that anchor's own validation, in the same order — on a
// repository where one anchor's publication point is voided by a missing
// manifest, one holds a tampered ROA, two sign the very same payload and
// two hold nothing — and the audit trail and counters are the per-anchor
// ones, concatenated and summed in anchor order.
func TestValidateRecordsEachAnchor(t *testing.T) {
	r, err := New(RIRNames, clock, ttl)
	if err != nil {
		t.Fatal(err)
	}
	shared := []roa.Prefix{{Prefix: netutil.MustPrefix("203.0.113.0/24"), MaxLength: 24}}
	for i, rir := range []string{"ripe", "arin", "apnic"} {
		ca, err := r.NewCA(r.Anchor(rir), "isp-"+rir, cert.Resources{
			Prefixes: []pfx{netutil.MustPrefix(fmt.Sprintf("%d.0.0.0/8", 60+i)), netutil.MustPrefix("203.0.113.0/24")},
			ASNs:     []cert.ASRange{{Min: 64500, Max: 64600}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			p := netutil.MustPrefix(fmt.Sprintf("%d.%d.0.0/16", 60+i, 9-j))
			if _, err := addROA(r, ca, uint32(64500+j), []roa.Prefix{{Prefix: p, MaxLength: 16 + j}}); err != nil {
				t.Fatal(err)
			}
		}
		switch rir {
		case "ripe", "arin": // the same payload under two anchors
			if _, err := addROA(r, ca, 64555, shared); err != nil {
				t.Fatal(err)
			}
		case "apnic": // voided: nothing beneath it counts
			ca.Manifest = nil
		}
		if rir == "arin" {
			// Tampered after publication, then listed again: the manifest
			// passes and the signature does not.
			ca.ROAs[1].Signature[0] ^= 0xff
			if err := ca.refreshManifest(r.Clock, r.TTL); err != nil {
				t.Fatal(err)
			}
		}
	}

	full := r.Validate(at)
	union := vrp.NewSet()
	var problems []string
	seen, valid := 0, 0
	for _, rir := range RIRNames {
		part := r.validateAnchor(r.Anchor(rir), at)
		if got, want := full.AnchorVRPs(rir), part.VRPs.All(); !slices.Equal(got, want) {
			t.Errorf("%s: Validate recorded %v, validateAnchor finds %v", rir, got, want)
		}
		for _, v := range part.VRPs.All() {
			union.Add(v)
		}
		for _, p := range part.Problems {
			problems = append(problems, p.String())
		}
		seen, valid = seen+part.ROAsSeen, valid+part.ROAsValid
	}
	if got, want := full.VRPs.All(), union.All(); !slices.Equal(got, want) {
		t.Errorf("Validate found %v, the anchors' union is %v", got, want)
	}
	var got []string
	for _, p := range full.Problems {
		got = append(got, p.String())
	}
	if !slices.Equal(got, problems) {
		t.Errorf("Validate's problems %q, the anchors' in order %q", got, problems)
	}
	if full.ROAsSeen != seen || full.ROAsValid != valid {
		t.Errorf("Validate saw %d ROAs, %d valid; the anchors sum to %d, %d", full.ROAsSeen, full.ROAsValid, seen, valid)
	}

	// The fixture is what the comment says it is.
	if n := len(full.AnchorVRPs("ripe")); n != 4 {
		t.Errorf("ripe: %d payloads, want 4", n)
	}
	if n := len(full.AnchorVRPs("arin")); n != 3 {
		t.Errorf("arin: %d payloads, want 3 (one ROA tampered)", n)
	}
	if n := len(full.AnchorVRPs("apnic")); n != 0 {
		t.Errorf("apnic: %d payloads under a voided publication point", n)
	}
	if full.VRPs.Len() != 6 || len(problems) < 2 {
		t.Errorf("%d VRPs and %d problems, want 6 (one shared) and at least 2", full.VRPs.Len(), len(problems))
	}
	if full.AnchorVRPs("nosuch") != nil || r.validateAnchor(r.Anchor("ripe"), at).AnchorVRPs("ripe") != nil {
		t.Error("AnchorVRPs answers for an unknown anchor, or on a single-anchor result")
	}
}

// ispWithROA returns a repository with one CA under RIPE, holding
// 193.0.0.0/16 and one ROA for 193.0.6.0/24 that validates.
func ispWithROA(t *testing.T) (*Repository, *CA) {
	t.Helper()
	r := newRepo(t)
	isp, err := r.NewCA(r.Anchor("ripe"), "isp", cert.Resources{
		Prefixes: []pfx{netutil.MustPrefix("193.0.0.0/16")},
		ASNs:     []cert.ASRange{{Min: 3333, Max: 3333}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := addROA(r, isp, 3333, []roa.Prefix{{Prefix: netutil.MustPrefix("193.0.6.0/24"), MaxLength: 24}}); err != nil {
		t.Fatal(err)
	}
	if res := r.Validate(at); res.VRPs.Len() != 1 || len(res.Problems) != 0 {
		t.Fatalf("fixture: %d VRPs, problems %v", res.VRPs.Len(), res.Problems)
	}
	return r, isp
}

// discarded fails unless Validate finds no VRP and reports object of
// ca among its problems.
func discarded(t *testing.T, r *Repository, ca, object string) {
	t.Helper()
	res := r.Validate(at)
	if res.VRPs.Len() != 0 {
		t.Errorf("Validate kept %v", res.VRPs.All())
	}
	for _, p := range res.Problems {
		if p.CA == ca && p.Object == object {
			return
		}
	}
	t.Errorf("no problem for %s/%s in %v", ca, object, res.Problems)
}

// TestValidateDiscardsTamperedManifestSignature: a manifest whose
// signature does not verify voids its publication point, though it is
// fresh and lists every object with the right hash.
func TestValidateDiscardsTamperedManifestSignature(t *testing.T) {
	r, isp := ispWithROA(t)
	isp.Manifest.Signature[5] ^= 0x10
	discarded(t, r, "isp", "manifest")
}

// TestValidateDiscardsCertificatesSignedByAnotherKey: a child CA
// certificate and a ROA's EE certificate that name the right issuer,
// claim only what it holds and are listed on its manifest, but were
// signed with a key other than the issuer's, are discarded.
func TestValidateDiscardsCertificatesSignedByAnotherKey(t *testing.T) {
	_, otherKey, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("child CA", func(t *testing.T) {
		r, isp := ispWithROA(t)
		ripe := r.Anchor("ripe")
		c := isp.Cert
		forged, err := cert.Issue(cert.Template{
			SerialNumber: c.SerialNumber, Subject: c.Subject, NotBefore: c.NotBefore, NotAfter: c.NotAfter,
			IsCA: true, Resources: c.Resources, PublicKey: c.PublicKey,
		}, ripe.Cert.Subject, otherKey)
		if err != nil {
			t.Fatal(err)
		}
		isp.Cert = forged
		if err := ripe.refreshManifest(r.Clock, r.TTL); err != nil {
			t.Fatal(err)
		}
		discarded(t, r, "ta-ripe", "ca-0.cer")
	})
	t.Run("EE", func(t *testing.T) {
		r, isp := ispWithROA(t)
		prefixes := []roa.Prefix{{Prefix: netutil.MustPrefix("193.0.7.0/24"), MaxLength: 24}}
		ee, eeKey, err := roa.NewEE(50, "isp-roa-50", prefixes, r.Clock, r.Clock.Add(r.TTL), isp.Cert, otherKey)
		if err != nil {
			t.Fatal(err)
		}
		forged, err := roa.Sign(3333, prefixes, ee, eeKey)
		if err != nil {
			t.Fatal(err)
		}
		isp.ROAs[0] = forged
		if err := isp.refreshManifest(r.Clock, r.TTL); err != nil {
			t.Fatal(err)
		}
		discarded(t, r, "isp", "roa-0.roa")
	})
}

// TestValidateDiscardsChildRepeatingItsIssuersName: a child certificate
// that repeats its issuer's subject and serial is not self-signed — it
// is not its issuer — so its claim to every resource is held against
// what the issuer holds, and the ROA under it yields nothing.
func TestValidateDiscardsChildRepeatingItsIssuersName(t *testing.T) {
	r, isp := ispWithROA(t)
	pub, key, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cert.Issue(cert.Template{
		SerialNumber: isp.Cert.SerialNumber, Subject: isp.Cert.Subject,
		NotBefore: r.Clock, NotAfter: r.Clock.Add(r.TTL),
		IsCA: true, Resources: cert.AllResources(), PublicKey: pub,
	}, isp.Cert.Subject, isp.Key)
	if err != nil {
		t.Fatal(err)
	}
	twin := &CA{Cert: c, Key: key, nextSerial: 1}
	isp.Children = append(isp.Children, twin)
	if err := isp.refreshManifest(r.Clock, r.TTL); err != nil {
		t.Fatal(err)
	}
	google := netutil.MustPrefix("8.8.8.0/24")
	if _, err := addROA(r, twin, 15169, []roa.Prefix{{Prefix: google, MaxLength: 24}}); err != nil {
		t.Fatal(err)
	}
	res := r.Validate(at)
	if got := res.VRPs.Validate(google, 15169); got == vrp.Valid || res.VRPs.Len() != 1 {
		t.Errorf("%v AS15169 is %v; VRPs %v, want only the isp's own", google, got, res.VRPs.All())
	}
	for _, p := range res.Problems {
		if p.CA == "isp" && p.Object == "ca-0.cer" && strings.Contains(p.Err.Error(), "claims resources beyond issuer") {
			return
		}
	}
	t.Errorf("no over-claim recorded for the child: %v", res.Problems)
}

// TestValidateDiscardsKeysOfTheWrongLength: a public key that is not 32
// bytes, on a trust anchor, a CA or an EE certificate, is a problem the
// validator records, not a panic. The certificates' signed bytes are
// untouched, so every manifest still lists them with the right hash.
func TestValidateDiscardsKeysOfTheWrongLength(t *testing.T) {
	for _, size := range []int{0, 31, 33, 64} {
		resize := func(k ed25519.PublicKey) ed25519.PublicKey {
			return append(append(ed25519.PublicKey(nil), k...), make([]byte, 64)...)[:size]
		}
		t.Run(fmt.Sprintf("trust anchor/%d", size), func(t *testing.T) {
			r, _ := ispWithROA(t)
			ripe := r.Anchor("ripe")
			ripe.Cert.PublicKey = resize(ripe.Cert.PublicKey)
			discarded(t, r, "ta-ripe", "ta.cer")
		})
		t.Run(fmt.Sprintf("CA/%d", size), func(t *testing.T) {
			r, isp := ispWithROA(t)
			isp.Cert.PublicKey = resize(isp.Cert.PublicKey)
			discarded(t, r, "isp", "manifest")
		})
		t.Run(fmt.Sprintf("EE/%d", size), func(t *testing.T) {
			r, isp := ispWithROA(t)
			isp.ROAs[0].EE.PublicKey = resize(isp.ROAs[0].EE.PublicKey)
			discarded(t, r, "isp", "roa-0.roa")
		})
	}
}

// TestIssuingWithAKeyOfTheWrongLengthFails: a CA whose signing key is
// not 64 bytes cannot sign a manifest, a child or a ROA; each is an
// error, not a panic, and publishes nothing.
func TestIssuingWithAKeyOfTheWrongLengthFails(t *testing.T) {
	r, isp := ispWithROA(t)
	isp.Key = isp.Key[:32]
	if err := isp.refreshManifest(r.Clock, r.TTL); err == nil {
		t.Error("a manifest signed with a 32-byte key")
	}
	if _, err := r.NewCA(isp, "sub", cert.Resources{Prefixes: []pfx{netutil.MustPrefix("193.0.1.0/24")}}); err == nil {
		t.Error("a child CA issued with a 32-byte key")
	}
	if _, err := addROA(r, isp, 3333, []roa.Prefix{{Prefix: netutil.MustPrefix("193.0.9.0/24")}}); err == nil {
		t.Error("a ROA issued with a 32-byte key")
	}
	if len(isp.Children) != 0 || len(isp.ROAs) != 1 {
		t.Errorf("%d children and %d ROAs published, want 0 and 1", len(isp.Children), len(isp.ROAs))
	}
}

// TestValidateChecksEverySignatureOnce: a clean walk checks each trust
// anchor's own signature, each manifest's, each child certificate's and
// each ROA's two, once apiece — on the shape of a generated world and
// on a deeper tree — and a skipped publication point none of its own.
func TestValidateChecksEverySignatureOnce(t *testing.T) {
	want := func(r *Repository) int {
		n := len(r.Anchors)
		var walk func(*CA)
		walk = func(ca *CA) {
			n += 1 + len(ca.Children) + 2*len(ca.ROAs)
			for _, c := range ca.Children {
				walk(c)
			}
		}
		for _, ta := range r.Anchors {
			walk(ta)
		}
		return n
	}
	world := worldShaped(t)
	if got := world.Validate(at).signatures; got != want(world) || got != 186 {
		t.Errorf("a world-shaped repository: %d signatures checked, want %d (186 in a generated world)", got, want(world))
	}

	r := newRepo(t)
	nir, err := r.NewCA(r.Anchor("ripe"), "nir", cert.Resources{Prefixes: []pfx{netutil.MustPrefix("80.0.0.0/8")}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		lir, err := r.NewCA(nir, fmt.Sprintf("lir-%d", i), cert.Resources{Prefixes: []pfx{netutil.MustPrefix(fmt.Sprintf("80.%d.0.0/16", i))}})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < i; j++ {
			if _, err := addROA(r, lir, 1500, []roa.Prefix{{Prefix: netutil.MustPrefix(fmt.Sprintf("80.%d.%d.0/24", i, j))}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	res := r.Validate(at)
	if len(res.Problems) != 0 || res.signatures != want(r) {
		t.Errorf("a three-level tree: %d signatures checked, want %d; problems %v", res.signatures, want(r), res.Problems)
	}
	// With lir-2's manifest gone, its two ROAs are not looked at: the
	// count loses their four signatures, and the manifest's.
	nir.Children[2].Manifest = nil
	if got := r.Validate(at).signatures; got != want(r)-5 {
		t.Errorf("with a voided publication point: %d signatures checked, want %d", got, want(r)-5)
	}
}

// TestValidateDiscardsStaleManifest: a manifest past its nextUpdate
// voids its publication point while every certificate is still valid.
func TestValidateDiscardsStaleManifest(t *testing.T) {
	r, isp := ispWithROA(t)
	if err := isp.refreshManifest(r.Clock, time.Hour); err != nil {
		t.Fatal(err)
	}
	discarded(t, r, "isp", "manifest")
}

// TestValidateReportsManifestListing: an object the manifest does not
// list is discarded, and an object it lists that is not published is
// reported, each under its own reason.
func TestValidateReportsManifestListing(t *testing.T) {
	reason := func(r *Repository, object string) string {
		for _, p := range r.Validate(at).Problems {
			if p.CA == "isp" && p.Object == object {
				return p.Err.Error()
			}
		}
		return ""
	}
	r, isp := ispWithROA(t)
	extra, err := r.issueROA(isp, ROASpec{ASID: 3333, Prefixes: []roa.Prefix{{Prefix: netutil.MustPrefix("193.0.7.0/24")}}})
	if err != nil {
		t.Fatal(err)
	}
	isp.ROAs = append(isp.ROAs, extra)
	if got := reason(r, "roa-1.roa"); got != "repo: object not in manifest" {
		t.Errorf("an unlisted ROA: problem %q", got)
	}
	if res := r.Validate(at); res.VRPs.Len() != 1 || res.ROAsValid != 1 {
		t.Errorf("an unlisted ROA: %d VRPs from %d valid ROAs, want the listed one's alone", res.VRPs.Len(), res.ROAsValid)
	}

	isp.ROAs = isp.ROAs[:0]
	if got := reason(r, "roa-0.roa"); got != "repo: manifest lists missing object" {
		t.Errorf("a withheld ROA: problem %q", got)
	}
}
