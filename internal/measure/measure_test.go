package measure

import (
	"math"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"ripki/internal/alexa"
	"ripki/internal/bgp"
	"ripki/internal/dns"
	"ripki/internal/httparchive"
	"ripki/internal/netutil"
	"ripki/internal/rib"
	"ripki/internal/rpki/vrp"
	"ripki/internal/stats"
	"ripki/internal/webworld"
)

// tinyFixture builds a minimal hand-crafted universe with known
// outcomes, independent of the webworld generator.
type tinyFixture struct {
	list *alexa.List
	cfg  Config
}

func newTinyFixture(t *testing.T) *tinyFixture {
	t.Helper()
	reg := dns.NewRegistry()
	table := rib.New()
	p0 := table.AddPeer(rib.Peer{BGPID: netip.MustParseAddr("10.0.0.1"), Addr: netip.MustParseAddr("10.0.0.1"), ASN: 100})
	vrps := vrp.NewSet()

	seq := func(asns ...uint32) []ribSegment {
		return []ribSegment{{Type: 2, ASNs: asns}}
	}
	insert := func(prefix string, origin uint32) {
		if _, err := table.Insert(rib.Route{
			Prefix: netutil.MustPrefix(prefix), PeerIndex: p0,
			Path: seq(100, origin), NextHop: netip.MustParseAddr("10.0.0.1"),
		}); err != nil {
			t.Fatal(err)
		}
	}

	// secure.example: one address, covered and valid.
	reg.Add(dns.RR{Name: "secure.example", Type: dns.TypeA, TTL: 60, Addr: netip.MustParseAddr("193.0.6.10")})
	reg.Add(dns.RR{Name: "www.secure.example", Type: dns.TypeA, TTL: 60, Addr: netip.MustParseAddr("193.0.6.10")})
	insert("193.0.6.0/24", 3333)
	vrps.Add(vrp.VRP{Prefix: netutil.MustPrefix("193.0.6.0/24"), MaxLength: 24, ASN: 3333})

	// hijacked.example: covered, wrong origin → invalid.
	reg.Add(dns.RR{Name: "hijacked.example", Type: dns.TypeA, TTL: 60, Addr: netip.MustParseAddr("198.51.0.10")})
	reg.Add(dns.RR{Name: "www.hijacked.example", Type: dns.TypeA, TTL: 60, Addr: netip.MustParseAddr("198.51.0.10")})
	insert("198.51.0.0/16", 666)
	vrps.Add(vrp.VRP{Prefix: netutil.MustPrefix("198.51.0.0/16"), MaxLength: 16, ASN: 3333})

	// plain.example: routed, not covered.
	reg.Add(dns.RR{Name: "plain.example", Type: dns.TypeA, TTL: 60, Addr: netip.MustParseAddr("203.0.114.10")})
	reg.Add(dns.RR{Name: "www.plain.example", Type: dns.TypeA, TTL: 60, Addr: netip.MustParseAddr("203.0.114.10")})
	insert("203.0.114.0/24", 64500)

	// cdnstyle.example: www via 2 CNAMEs to a different prefix; apex
	// separate → unequal prefix sets, CDN by chain.
	reg.Add(dns.RR{Name: "cdnstyle.example", Type: dns.TypeA, TTL: 60, Addr: netip.MustParseAddr("203.0.114.20")})
	reg.Add(dns.RR{Name: "www.cdnstyle.example", Type: dns.TypeCNAME, TTL: 60, Target: "cust.fastcdn.wld"})
	reg.Add(dns.RR{Name: "cust.fastcdn.wld", Type: dns.TypeCNAME, TTL: 60, Target: "e1.a.fastcdn.wld"})
	reg.Add(dns.RR{Name: "e1.a.fastcdn.wld", Type: dns.TypeA, TTL: 30, Addr: netip.MustParseAddr("151.101.1.10")})
	insert("151.101.0.0/16", 54113)

	// bogus.example: only special-purpose answers → excluded.
	reg.Add(dns.RR{Name: "bogus.example", Type: dns.TypeA, TTL: 60, Addr: netip.MustParseAddr("127.0.0.1")})
	reg.Add(dns.RR{Name: "www.bogus.example", Type: dns.TypeA, TTL: 60, Addr: netip.MustParseAddr("10.1.2.3")})

	// dark.example: resolves to un-announced public space → unreachable.
	reg.Add(dns.RR{Name: "dark.example", Type: dns.TypeA, TTL: 60, Addr: netip.MustParseAddr("203.0.112.10")})
	reg.Add(dns.RR{Name: "www.dark.example", Type: dns.TypeA, TTL: 60, Addr: netip.MustParseAddr("203.0.112.10")})

	// ghost.example: NXDOMAIN everywhere (in the list but unregistered).

	list := alexa.FromDomains([]string{
		"secure.example", "hijacked.example", "plain.example",
		"cdnstyle.example", "bogus.example", "dark.example", "ghost.example",
	})
	ha := httparchive.New(map[string][]string{"fastcdn": {"fastcdn.wld"}})
	return &tinyFixture{
		list: list,
		cfg: Config{
			Resolver:    dns.RegistryResolver{Registry: reg},
			RIB:         table,
			VRPs:        vrps,
			HTTPArchive: ha,
			BinWidth:    10,
		},
	}
}

type ribSegment = bgp.Segment

func TestRunTinyUniverse(t *testing.T) {
	f := newTinyFixture(t)
	ds, err := Run(f.list, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Results) != 7 {
		t.Fatalf("results = %d", len(ds.Results))
	}
	byName := map[string]*DomainResult{}
	for i := range ds.Results {
		byName[ds.Results[i].Name] = &ds.Results[i]
	}

	sec := byName["secure.example"]
	if sec.WWW.ValidPairs != 1 || sec.WWW.Pairs != 1 {
		t.Errorf("secure www: %+v", sec.WWW)
	}
	if sec.WWW.StateProb(vrp.Valid) != 1 || sec.WWW.CoverageProb() != 1 {
		t.Errorf("secure probabilities wrong: %+v", sec.WWW)
	}
	if sec.EqualPrefixShare != 1 {
		t.Errorf("secure equal share = %v", sec.EqualPrefixShare)
	}
	if sec.CDNByChain {
		t.Error("secure flagged as CDN")
	}

	hij := byName["hijacked.example"]
	if hij.WWW.InvalidPairs != 1 || hij.WWW.ValidPairs != 0 {
		t.Errorf("hijacked www: %+v", hij.WWW)
	}
	if hij.WWW.CoverageProb() != 1 || hij.WWW.StateProb(vrp.Invalid) != 1 {
		t.Errorf("hijacked probabilities: %+v", hij.WWW)
	}

	plain := byName["plain.example"]
	if plain.WWW.Pairs-plain.WWW.ValidPairs-plain.WWW.InvalidPairs != 1 || plain.WWW.CoverageProb() != 0 {
		t.Errorf("plain www: %+v", plain.WWW)
	}

	cdn := byName["cdnstyle.example"]
	if !cdn.CDNByChain {
		t.Error("cdnstyle not detected by chain")
	}
	if !cdn.CDNByPattern || !cdn.PatternCovered {
		t.Error("cdnstyle not detected by pattern")
	}
	if cdn.WWW.CNAMEs != 2 {
		t.Errorf("cdnstyle CNAMEs = %d", cdn.WWW.CNAMEs)
	}
	if cdn.EqualPrefixShare != 0 {
		t.Errorf("cdnstyle equal share = %v", cdn.EqualPrefixShare)
	}

	bog := byName["bogus.example"]
	if !bog.WWW.Excluded || !bog.Apex.Excluded {
		t.Errorf("bogus not excluded: %+v / %+v", bog.WWW, bog.Apex)
	}

	dark := byName["dark.example"]
	if dark.WWW.UnreachableAddrs != 1 || dark.WWW.Pairs != 0 {
		t.Errorf("dark www: %+v", dark.WWW)
	}

	ghost := byName["ghost.example"]
	if !ghost.WWW.NXDomain || !ghost.Apex.NXDomain {
		t.Errorf("ghost not NXDOMAIN: %+v", ghost.WWW)
	}

	// Totals.
	if ds.Totals.SpecialAddrs != 2 {
		t.Errorf("special addrs = %d", ds.Totals.SpecialAddrs)
	}
	if ds.Totals.UnreachableAddrs != 2 {
		t.Errorf("unreachable addrs = %d", ds.Totals.UnreachableAddrs)
	}
	if ds.Totals.ExcludedDNSFraction() <= 0 || ds.Totals.UnreachableFraction() <= 0 {
		t.Error("fractions not positive")
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(alexa.FromDomains([]string{"a.b"}), Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestTable1Cells(t *testing.T) {
	f := newTinyFixture(t)
	ds, err := Run(f.list, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := ds.Table1(10)
	// secure (full 1/1) and hijacked (covered incorrectly → still
	// "part of the RPKI") must appear; plain and others must not.
	var names []string
	for _, row := range tbl.Rows {
		names = append(names, row[1])
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "secure.example") || !strings.Contains(joined, "hijacked.example") {
		t.Errorf("Table1 rows = %v", names)
	}
	if strings.Contains(joined, "plain.example") || strings.Contains(joined, "ghost.example") {
		t.Errorf("uncovered domain in Table1: %v", names)
	}
	for _, row := range tbl.Rows {
		if row[1] == "secure.example" && !strings.HasPrefix(row[2], "full (1/1)") {
			t.Errorf("secure cell = %q", row[2])
		}
	}
}

func TestFiguresFromTinyUniverse(t *testing.T) {
	f := newTinyFixture(t)
	ds, err := Run(f.list, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f1 := ds.Figure1()
	if len(f1.Series) != 1 || len(f1.Series[0].Points) == 0 {
		t.Error("Figure1 empty")
	}
	f2 := ds.Figure2(VariantWWW)
	if len(f2.Series) != 3 {
		t.Error("Figure2 series != 3")
	}
	// valid+invalid+notfound must sum to 1 per bin.
	sum := f2.Series[0].Points[0].Y + f2.Series[1].Points[0].Y + f2.Series[2].Points[0].Y
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("state probabilities sum to %v", sum)
	}
	f3 := ds.Figure3()
	if len(f3.Series) != 2 {
		t.Error("Figure3 series != 2")
	}
	f4 := ds.Figure4(VariantWWW)
	if len(f4.Series) != 2 {
		t.Error("Figure4 series != 2")
	}
}

func TestCDNStudyCounts(t *testing.T) {
	registry := []ASRegistryEntry{
		{ASN: 1, Name: "AKAMAI-AS1"},
		{ASN: 2, Name: "AKAMAI-AS2"},
		{ASN: 3, Name: "INTERNAP-BLK"},
		{ASN: 4, Name: "SOMEISP-AS"},
	}
	vrps := vrp.NewSet()
	vrps.Add(vrp.VRP{Prefix: netutil.MustPrefix("10.0.0.0/16"), MaxLength: 16, ASN: 3})
	vrps.Add(vrp.VRP{Prefix: netutil.MustPrefix("10.1.0.0/16"), MaxLength: 16, ASN: 3})
	vrps.Add(vrp.VRP{Prefix: netutil.MustPrefix("10.2.0.0/16"), MaxLength: 16, ASN: 4})
	rows := CDNStudy([]string{"akamai", "internap"}, registry, vrps)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		switch r.CDN {
		case "akamai":
			if r.ASes != 2 || r.RPKIPrefix != 0 {
				t.Errorf("akamai row = %+v", r)
			}
		case "internap":
			if r.ASes != 1 || r.RPKIPrefix != 2 || r.RPKIASes != 1 {
				t.Errorf("internap row = %+v", r)
			}
		}
	}
	tbl := CDNStudyTable(rows)
	if len(tbl.Rows) != 3 { // 2 CDNs + TOTAL
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
}

// TestPaperFindingsEmerge is the headline integration test: generate a
// mid-sized world and verify the four findings hold in the measured
// dataset.
func TestPaperFindingsEmerge(t *testing.T) {
	if testing.Short() {
		t.Skip("world generation in -short mode")
	}
	w, err := webworld.Generate(webworld.Config{Seed: 42, Domains: 60000})
	if err != nil {
		t.Fatal(err)
	}
	res := w.Repo.Validate(w.MeasureTime())
	if len(res.Problems) != 0 {
		t.Fatalf("RPKI problems: %v", res.Problems[:1])
	}
	ha := httparchive.New(w.CDNSuffixes)
	ha.Limit = 18000 // scale the 300k corpus to the 60k world
	ds, err := Run(w.List, Config{
		Resolver:    dns.RegistryResolver{Registry: w.Registry},
		RIB:         w.RIB,
		VRPs:        res.VRPs,
		HTTPArchive: ha,
		BinWidth:    6000, // 10 bins over 60k, mirroring 10k over 1M... scaled
	})
	if err != nil {
		t.Fatal(err)
	}

	// Finding 1: less popular websites are better secured. Compare the
	// first and last fifth of ranks by mean coverage.
	f4 := ds.Figure4(VariantWWW)
	overall := f4.Series[0].Points
	head := (overall[0].Y + overall[1].Y) / 2
	tail := (overall[len(overall)-1].Y + overall[len(overall)-2].Y) / 2
	if !(tail > head) {
		t.Errorf("finding 1 violated: head coverage %v, tail %v", head, tail)
	}

	// Finding 2/4: CDN-hosted domains are far less covered, about an
	// order of magnitude. Paper: CDN-hosted "fluctuates around 0.9%";
	// the world: 0.70% against 5.86% overall, 8.4× apart.
	cdnMean, allMean := seriesMean(f4.Series[1].Points), seriesMean(overall)
	if !(cdnMean < allMean/5) {
		t.Errorf("finding 2 violated: cdn coverage %v vs overall %v", cdnMean, allMean)
	}
	if cdnMean <= 0 {
		t.Error("finding 3 violated: no CDN content inherits third-party coverage at all")
	}
	if cdnMean < 0.004 || cdnMean > 0.011 || allMean < 0.05 || allMean > 0.07 {
		t.Errorf("figure 4 magnitudes: cdn-hosted %v, overall %v; want ≈0.7%% and ≈5.9%%", cdnMean, allMean)
	}

	// Figure 2 magnitudes. Paper: valid ≈4.0% in the head rising to
	// ≈5.5%, invalid ≈0.09%, not found 93–96%. The world's valid share is
	// flat (5.60% in the first bin, 5.73% in the last) and its invalid
	// share 0.053%.
	f2 := ds.Figure2(VariantWWW)
	valid := f2.Series[0].Points
	validHead, validTail := valid[0].Y, valid[len(valid)-1].Y
	invalidMean := seriesMean(f2.Series[1].Points)
	nfMean := seriesMean(f2.Series[2].Points)
	if validHead < 0.05 || validHead > 0.065 || math.Abs(validTail-validHead) > 0.005 {
		t.Errorf("figure 2 valid: head %v, tail %v; want ≈5.7%% in both", validHead, validTail)
	}
	if invalidMean < 0.0003 || invalidMean > 0.0009 {
		t.Errorf("figure 2 invalid mean = %v, want ≈0.05%%", invalidMean)
	}
	if nfMean < 0.93 || nfMean > 0.96 {
		t.Errorf("figure 2 not-found mean = %v, want the paper's 93–96%%", nfMean)
	}

	// Figure 1: high everywhere, lower at the top ranks. Paper: >76% in
	// the head, >94% beyond; the world: 81.7% in the first bin and 92.7%
	// in the last, just under the paper's tail.
	f1 := ds.Figure1()
	eq := f1.Series[0].Points
	eqHead, eqTail := eq[0].Y, eq[len(eq)-1].Y
	if !(eqHead < eqTail) {
		t.Errorf("figure 1 shape: head %v, tail %v", eqHead, eqTail)
	}
	if eqHead < 0.76 || eqHead > 0.87 || eqTail < 0.905 || eqTail > 0.945 {
		t.Errorf("figure 1 magnitudes: head %v, tail %v; want ≈82%% and ≈93%%", eqHead, eqTail)
	}

	// Figure 3: both heuristics decay with rank; pattern ≥ chain.
	f3 := ds.Figure3()
	pattern, chain := f3.Series[0].Points, f3.Series[1].Points
	if !(chain[0].Y > chain[len(chain)-1].Y) {
		t.Error("figure 3: chain heuristic not decaying")
	}
	if !(pattern[0].Y > chain[0].Y) {
		t.Errorf("figure 3: pattern (%v) not above chain (%v) at the top", pattern[0].Y, chain[0].Y)
	}

	// §4.2 CDN study: 199 ASes, all RPKI prefixes belong to one CDN.
	var names []string
	for _, spec := range webworld.CDNs() {
		names = append(names, spec.Name)
	}
	reg := make([]ASRegistryEntry, 0, len(w.ASRegistry))
	for _, e := range w.ASRegistry {
		reg = append(reg, ASRegistryEntry{ASN: e.ASN, Name: e.Name})
	}
	rows := CDNStudy(names, reg, res.VRPs)
	totalASes, totalPrefixes, signers := 0, 0, 0
	for _, r := range rows {
		totalASes += r.ASes
		totalPrefixes += r.RPKIPrefix
		if r.RPKIPrefix > 0 {
			signers++
			if r.CDN != "internap" {
				t.Errorf("unexpected CDN signer: %+v", r)
			}
			if r.RPKIPrefix != 4 || r.RPKIASes != 3 {
				t.Errorf("internap deployment = %+v, want 4 prefixes / 3 ASes", r)
			}
		}
	}
	if totalASes != 199 {
		t.Errorf("CDN ASes = %d, want 199", totalASes)
	}
	if signers != 1 || totalPrefixes != 4 {
		t.Errorf("CDN RPKI entries: %d signers, %d prefixes", signers, totalPrefixes)
	}

	// Table 1: facebook.com full, huffingtonpost partial www/none apex.
	tbl := ds.Table1(10)
	var sawFacebook, sawHuff bool
	for _, row := range tbl.Rows {
		switch row[1] {
		case "facebook.com":
			sawFacebook = true
			if !strings.HasPrefix(row[2], "full (3/3)") || !strings.HasPrefix(row[3], "full (2/2)") {
				t.Errorf("facebook row = %v", row)
			}
		case "huffingtonpost.com":
			sawHuff = true
			if !strings.HasPrefix(row[2], "partial (1/3)") || !strings.HasPrefix(row[3], "none (0/3)") {
				t.Errorf("huffingtonpost row = %v", row)
			}
		}
	}
	if !sawFacebook || !sawHuff {
		t.Errorf("Table 1 missing fixtures: %v", tbl.Rows)
	}

	// Headline fractions in the right decades.
	if f := ds.Totals.ExcludedDNSFraction(); f < 0.0001 || f > 0.01 {
		t.Errorf("excluded DNS fraction = %v", f)
	}
	if f := ds.Totals.UnreachableFraction(); f <= 0 || f > 0.01 {
		t.Errorf("unreachable fraction = %v", f)
	}

	// The CNAME-indirection cutoff. The paper argues ≥2 under-estimates
	// CDN hosting on purpose and ≥1 sweeps in plain aliases; the world
	// flags 35.3% of domains at ≥1, 4.9% at ≥2 and none at ≥3.
	flagged := func(threshold int) float64 {
		n := 0
		for i := range ds.Results {
			if r := &ds.Results[i]; r.WWW.Usable() && r.WWW.CNAMEs >= threshold {
				n++
			}
		}
		return float64(n) / float64(len(ds.Results))
	}
	if s1, s2, s3 := flagged(1), flagged(2), flagged(3); s1 < 0.30 || s1 > 0.40 || s2 < 0.04 || s2 > 0.06 || s3 != 0 {
		t.Errorf("CNAME threshold ≥1/≥2/≥3 flags %v/%v/%v of domains, want ≈35%%/≈5%%/0", s1, s2, s3)
	}

	// §5.2: the business relations the RPKI exposes are exactly the
	// planted standby arrangements, each with both organisations.
	orgOf := make(map[uint32]string, len(w.ASRegistry))
	for _, e := range w.ASRegistry {
		orgOf[e.ASN] = e.Org
	}
	rels := ExposedRelations(res.VRPs, reg, func(asn uint32) (string, bool) {
		org, ok := orgOf[asn]
		return org, ok
	})
	found := make(map[string][]string, len(rels))
	for _, r := range rels {
		found[r.Prefix] = r.Orgs
	}
	if len(rels) != 3 || len(w.PlantedBackups) != 3 {
		t.Errorf("exposed %d relations for %d planted, want 3 of 3", len(rels), len(w.PlantedBackups))
	}
	for _, b := range w.PlantedBackups {
		if orgs := found[b.Prefix.String()]; !slices.Contains(orgs, b.OwnerOrg) || !slices.Contains(orgs, b.StandbyOrg) {
			t.Errorf("planted %+v exposed as %v", b, orgs)
		}
	}

	// "Every RPKI-enabled CDN-content is served by a third party
	// network": each covered pair of a covered CDN-hosted domain sits in
	// an ISP's prefix or in the one CDN that signs ROAs. The world puts a
	// few inside internap's own network; the paper saw none.
	resolver := dns.RegistryResolver{Registry: w.Registry}
	owner := make(map[netip.Prefix]*webworld.Org)
	for _, o := range w.Orgs {
		for _, p := range o.Prefixes {
			owner[p] = o
		}
	}
	viaISP, viaSigner := 0, 0
	for i := range ds.Results {
		r := &ds.Results[i]
		if !r.CDNByChain || r.WWW.CoveredPrefixes == 0 {
			continue
		}
		ans, err := resolver.LookupWeb("www." + r.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range ans.Addrs {
			for _, po := range w.RIB.OriginPairs(a) {
				if res.VRPs.Validate(po.Prefix, po.Origin) == vrp.NotFound {
					continue
				}
				switch org := owner[po.Prefix]; {
				case org == nil:
					t.Errorf("%s is covered by %v, which no organisation owns", r.Name, po.Prefix)
				case org.Kind == webworld.KindISP:
					viaISP++
				case org.CDN != nil && org.CDN.Name == "internap":
					viaSigner++
				default:
					t.Errorf("%s is covered by %v inside %s %s", r.Name, po.Prefix, org.Kind, org.Name)
				}
			}
		}
	}
	if viaISP == 0 || viaSigner == 0 {
		t.Errorf("covered CDN-hosted pairs: %d via an ISP, %d via internap; want both", viaISP, viaSigner)
	}
}

func seriesMean(ps []stats.Point) float64 {
	var sum, n float64
	for _, p := range ps {
		if !math.IsNaN(p.Y) {
			sum += p.Y
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / n
}
