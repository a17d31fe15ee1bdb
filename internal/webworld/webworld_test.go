package webworld

import (
	"math"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"ripki/internal/dns"
	"ripki/internal/netutil"
	"ripki/internal/rpki/cert"
	"ripki/internal/rpki/repo"
	"ripki/internal/rpki/vrp"
)

// smallWorld generates a modest world once per test binary.
var smallWorldCache *World

func smallWorld(t *testing.T) *World {
	t.Helper()
	if smallWorldCache != nil {
		return smallWorldCache
	}
	w, err := Generate(Config{Seed: 1, Domains: 30000})
	if err != nil {
		t.Fatal(err)
	}
	smallWorldCache = w
	return w
}

func TestGenerateDeterministic(t *testing.T) {
	w1, err := Generate(Config{Seed: 7, Domains: 2000})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(Config{Seed: 7, Domains: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if w1.List.Len() != w2.List.Len() {
		t.Fatal("list lengths differ")
	}
	for i, e := range w1.List.Entries() {
		if w2.List.Entries()[i].Domain != e.Domain {
			t.Fatalf("rank %d: %q vs %q", e.Rank, e.Domain, w2.List.Entries()[i].Domain)
		}
	}
	if w1.RIB.Len() != w2.RIB.Len() || w1.Registry.Len() != w2.Registry.Len() {
		t.Error("infrastructure differs between identical seeds")
	}
	if w1.Stats != w2.Stats {
		t.Errorf("stats differ: %+v vs %+v", w1.Stats, w2.Stats)
	}
}

// TestManifestNumbersRepeat: world generation reads no wall clock, so
// two worlds of one seed give every CA the same manifest number (the
// signatures still differ: they draw from crypto/rand).
func TestManifestNumbersRepeat(t *testing.T) {
	numbers := func() map[string]int64 {
		w, err := Generate(Config{Seed: 7, Domains: 2000})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int64)
		var walk func(*repo.CA)
		walk = func(ca *repo.CA) {
			out[ca.Cert.Subject] = ca.Manifest.Number
			for _, c := range ca.Children {
				walk(c)
			}
		}
		for _, ta := range w.Repo.Anchors {
			walk(ta)
		}
		return out
	}
	a, b := numbers(), numbers()
	if len(a) != len(b) || len(a) < 6 {
		t.Fatalf("%d CAs, then %d", len(a), len(b))
	}
	moved := 0
	for ca, n := range a {
		if b[ca] != n {
			t.Errorf("CA %s: manifest %d, then %d", ca, n, b[ca])
		}
		if n > 1 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no manifest was re-signed: every number is 1")
	}
}

// TestGenerateDomains: a negative size is refused before anything is
// built, naming the field.
func TestGenerateDomains(t *testing.T) {
	for _, c := range []struct {
		domains int
		ok      bool
	}{{-5, false}, {-1, false}, {1, true}, {300, true}} {
		w, err := Generate(Config{Seed: 1, Domains: c.domains})
		switch {
		case !c.ok && (err == nil || !strings.Contains(err.Error(), "domains")):
			t.Errorf("Domains %d: err = %v, want one naming domains", c.domains, err)
		case c.ok && err != nil:
			t.Errorf("Domains %d: %v", c.domains, err)
		case c.ok && w.List.Len() != c.domains:
			t.Errorf("Domains %d: list of %d", c.domains, w.List.Len())
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	w1, _ := Generate(Config{Seed: 1, Domains: 1000})
	w2, _ := Generate(Config{Seed: 2, Domains: 1000})
	same := 0
	for i := range w1.List.Entries() {
		if w1.List.Entries()[i].Domain == w2.List.Entries()[i].Domain {
			same++
		}
	}
	// Fixtures coincide; generated names should mostly differ.
	if same > w1.List.Len()/2 {
		t.Errorf("%d of %d domains identical across seeds", same, w1.List.Len())
	}
}

func TestRPKIRepositoryValidates(t *testing.T) {
	w := smallWorld(t)
	res := w.Repo.Validate(w.MeasureTime())
	if len(res.Problems) != 0 {
		t.Fatalf("validation problems: %v", res.Problems[:min(5, len(res.Problems))])
	}
	if res.ROAsValid != res.ROAsSeen || res.ROAsSeen == 0 {
		t.Fatalf("ROAs seen/valid = %d/%d", res.ROAsSeen, res.ROAsValid)
	}
	if res.VRPs.Len() == 0 {
		t.Fatal("no VRPs")
	}
	if w.Stats.ROAsIssued != res.ROAsSeen {
		t.Errorf("issued %d ROAs, validator saw %d", w.Stats.ROAsIssued, res.ROAsSeen)
	}
}

// A world signs each CA's ROAs as one batch under one manifest. Replayed
// into a fresh repository one AddROA at a time — a manifest per ROA — the
// same tree validates to the same payloads, problems and counts, and
// every manifest of the batched tree verifies.
func TestBatchedROAsValidateAsOneAtATime(t *testing.T) {
	w := smallWorld(t)
	replay, err := repo.New(repo.RIRNames, w.Repo.Clock, w.Repo.TTL)
	if err != nil {
		t.Fatal(err)
	}
	opts := cert.VerifyOptions{Now: w.MeasureTime()}
	var copyCA func(from, to *repo.CA)
	copyCA = func(from, to *repo.CA) {
		if err := from.Manifest.Verify(from.Cert, opts); err != nil {
			t.Errorf("%s: manifest: %v", from.Cert.Subject, err)
		}
		for _, ro := range from.ROAs {
			if _, err := replay.AddROAs(to, []repo.ROASpec{{ASID: ro.ASID, Prefixes: ro.Prefixes}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, child := range from.Children {
			c, err := replay.NewCA(to, child.Cert.Subject, child.Cert.Resources)
			if err != nil {
				t.Fatal(err)
			}
			copyCA(child, c)
		}
	}
	for i, ta := range w.Repo.Anchors {
		copyCA(ta, replay.Anchors[i])
	}

	got, want := w.Validation(), replay.Validate(w.MeasureTime())
	if got.ROAsSeen != want.ROAsSeen || got.ROAsValid != want.ROAsValid || got.ROAsSeen != w.Stats.ROAsIssued {
		t.Errorf("ROAs seen/valid %d/%d, one at a time %d/%d, issued %d", got.ROAsSeen, got.ROAsValid, want.ROAsSeen, want.ROAsValid, w.Stats.ROAsIssued)
	}
	if !slices.Equal(got.VRPs.All(), want.VRPs.All()) {
		t.Errorf("VRPs differ: %d batched, %d one at a time", got.VRPs.Len(), want.VRPs.Len())
	}
	problems := func(res *repo.ValidationResult) (out []string) {
		for _, p := range res.Problems {
			out = append(out, p.String())
		}
		return out
	}
	if !slices.Equal(problems(got), problems(want)) {
		t.Errorf("problems differ:\n%v\n%v", problems(got), problems(want))
	}
}

func TestCDNASRegistryShape(t *testing.T) {
	w := smallWorld(t)
	// §4.2: keyword spotting over the AS registry must find 199 CDN
	// ASes for the default roster.
	cdnASes := 0
	internapASes := 0
	for _, info := range w.ASRegistry {
		for _, spec := range CDNs() {
			if strings.Contains(info.Name, strings.ToUpper(spec.Name)) {
				cdnASes++
				if spec.Name == "internap" {
					internapASes++
				}
				break
			}
		}
	}
	if cdnASes != 199 {
		t.Errorf("CDN ASes = %d, want 199", cdnASes)
	}
	if internapASes != 41 {
		t.Errorf("internap ASes = %d, want 41", internapASes)
	}
}

func TestInternapExceptionInVRPs(t *testing.T) {
	w := smallWorld(t)
	res := w.Repo.Validate(w.MeasureTime())
	var internap *Org
	for _, o := range w.Orgs {
		if o.CDN != nil && o.CDN.Name == "internap" {
			internap = o
		}
	}
	if internap == nil {
		t.Fatal("no internap org")
	}
	asnSet := make(map[uint32]bool)
	for _, asn := range internap.ASNs {
		asnSet[asn] = true
	}
	prefixes := make(map[netip.Prefix]bool)
	origins := make(map[uint32]bool)
	for _, v := range res.VRPs.All() {
		if asnSet[v.ASN] {
			prefixes[v.Prefix] = true
			origins[v.ASN] = true
		}
	}
	if len(prefixes) != 4 {
		t.Errorf("internap RPKI prefixes = %d, want 4", len(prefixes))
	}
	if len(origins) != 3 {
		t.Errorf("internap origin ASes = %d, want 3", len(origins))
	}
	// No other CDN appears in the RPKI.
	inRPKI := make(map[uint32]bool)
	for _, v := range res.VRPs.All() {
		inRPKI[v.ASN] = true
	}
	for _, o := range w.Orgs {
		if o.Kind != KindCDN || o == internap {
			continue
		}
		for _, asn := range o.ASNs {
			if inRPKI[asn] {
				t.Errorf("CDN %s AS%d appears in the RPKI", o.Name, asn)
			}
		}
	}
}

func TestFixtureFacebookFullCoverage(t *testing.T) {
	w := smallWorld(t)
	res := w.Repo.Validate(w.MeasureTime())
	check := func(name string, wantAddrs int, wantValid int) {
		t.Helper()
		r, err := dns.RegistryResolver{Registry: w.Registry}.LookupWeb(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Addrs) != wantAddrs {
			t.Fatalf("%s resolved to %d addresses, want %d", name, len(r.Addrs), wantAddrs)
		}
		valid := 0
		for _, a := range r.Addrs {
			for _, po := range w.RIB.OriginPairs(a) {
				if res.VRPs.Validate(po.Prefix, po.Origin) == vrp.Valid {
					valid++
				}
			}
		}
		if valid != wantValid {
			t.Errorf("%s: %d valid pairs, want %d", name, valid, wantValid)
		}
	}
	check("www.facebook.com", 3, 3)
	check("facebook.com", 2, 2)
	check("www.google.com", 4, 0)
	check("google.com", 4, 0)
	check("www.booking.com", 4, 4)
	check("booking.com", 2, 2)
}

func TestFixtureCDNPartialCoverage(t *testing.T) {
	w := smallWorld(t)
	res := w.Repo.Validate(w.MeasureTime())
	r, err := dns.RegistryResolver{Registry: w.Registry}.LookupWeb("www.huffingtonpost.com")
	if err != nil {
		t.Fatal(err)
	}
	if r.CNAMECount() != 2 {
		t.Errorf("www.huffingtonpost.com CNAMEs = %d, want 2", r.CNAMECount())
	}
	if len(r.Addrs) != 3 {
		t.Fatalf("www.huffingtonpost.com addrs = %d, want 3", len(r.Addrs))
	}
	covered := 0
	for _, a := range r.Addrs {
		for _, po := range w.RIB.OriginPairs(a) {
			if res.VRPs.Validate(po.Prefix, po.Origin) != vrp.NotFound {
				covered++
			}
		}
	}
	if covered != 1 {
		t.Errorf("www.huffingtonpost.com covered pairs = %d, want 1", covered)
	}
	// Apex: no CNAMEs, no coverage.
	r, err = dns.RegistryResolver{Registry: w.Registry}.LookupWeb("huffingtonpost.com")
	if err != nil {
		t.Fatal(err)
	}
	if r.CNAMECount() != 0 {
		t.Errorf("apex CNAMEs = %d", r.CNAMECount())
	}
	covered = 0
	for _, a := range r.Addrs {
		for _, po := range w.RIB.OriginPairs(a) {
			if res.VRPs.Validate(po.Prefix, po.Origin) != vrp.NotFound {
				covered++
			}
		}
	}
	if covered != 0 {
		t.Errorf("apex covered pairs = %d, want 0", covered)
	}
	// The noWWW fixture really has no www.
	r, _ = dns.RegistryResolver{Registry: w.Registry}.LookupWeb("www.cdncache1-a.akamaihd.net")
	if !r.NXDomain {
		t.Error("www.cdncache1-a.akamaihd.net exists")
	}
}

func TestCDNShareDecreasesWithRank(t *testing.T) {
	w := smallWorld(t)
	if w.cdnShare(1) < w.cdnShare(w.Cfg.Domains) {
		t.Error("CDN share not decreasing")
	}
	if math.Abs(w.cdnShare(1)-cdnShareTop) > 0.01 {
		t.Errorf("top share = %v", w.cdnShare(1))
	}
	if math.Abs(w.cdnShare(w.Cfg.Domains)-cdnShareTail) > 0.01 {
		t.Errorf("tail share = %v", w.cdnShare(w.Cfg.Domains))
	}
}

func TestMostResolvedAddressesAreRouted(t *testing.T) {
	w := smallWorld(t)
	resolver := dns.RegistryResolver{Registry: w.Registry}
	routed, unrouted, special := 0, 0, 0
	for _, e := range w.List.Entries()[:2000] {
		for _, name := range []string{e.Domain, "www." + e.Domain} {
			r, err := resolver.LookupWeb(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range r.Addrs {
				switch {
				case netutil.IsSpecialPurpose(a):
					special++
				case w.RIB.Reachable(a):
					routed++
				default:
					unrouted++
				}
			}
		}
	}
	if routed == 0 {
		t.Fatal("no routed addresses at all")
	}
	if frac := float64(unrouted) / float64(routed+unrouted); frac > 0.01 {
		t.Errorf("unrouted fraction = %v, want < 1%%", frac)
	}
}

func TestSignedPrefixShareNearPolicy(t *testing.T) {
	w := smallWorld(t)
	// Only count non-fixture hoster/ISP organisations.
	signed, total := 0, 0
	for _, o := range w.Orgs {
		if o.fixture || (o.Kind != KindHoster && o.Kind != KindISP) {
			continue
		}
		total++
		if o.SignsROAs {
			signed++
		}
	}
	frac := float64(signed) / float64(total)
	if frac < 0.01 || frac > 0.15 {
		t.Errorf("signing org share = %v (want around %v)", frac, hosterROAProb)
	}
}

func TestStatsPlausible(t *testing.T) {
	w := smallWorld(t)
	s := w.Stats
	if s.PrefixesTotal == 0 || s.ROAsIssued == 0 || s.DomainsCDN == 0 {
		t.Fatalf("stats look empty: %+v", s)
	}
	// CDN adoption overall should sit between the tail and top anchors.
	frac := float64(s.DomainsCDN) / float64(w.Cfg.Domains)
	if frac < cdnShareTail || frac > cdnShareTop {
		t.Errorf("CDN domain share = %v", frac)
	}
	// Third-party cache placement near the configured share.
	tp := float64(s.CacheInThirdParty) / float64(s.CacheInThirdParty+s.CacheInCDNNetwork)
	if math.Abs(tp-thirdPartyCacheShare) > 0.05 {
		t.Errorf("third-party cache share = %v, want ≈ %v", tp, thirdPartyCacheShare)
	}
}

// TestOrgOfPrefix: the map the generator keeps its prefixes unique by
// holds each organisation's prefixes, each owned by that organisation,
// and nothing else.
func TestOrgOfPrefix(t *testing.T) {
	w := smallWorld(t)
	n := 0
	for _, o := range w.Orgs {
		for _, p := range o.Prefixes {
			if w.prefixOrg[p] != o {
				t.Fatalf("prefixOrg[%v] wrong", p)
			}
			n++
		}
	}
	if len(w.prefixOrg) != n {
		t.Errorf("prefixOrg holds %d prefixes, the organisations %d", len(w.prefixOrg), n)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
