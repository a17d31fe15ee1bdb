package measure

import (
	"testing"

	"ripki/internal/dns"
	"ripki/internal/netutil"
	"ripki/internal/rpki/vrp"
	"ripki/internal/webworld"
)

func TestExposedRelationsSynthetic(t *testing.T) {
	vrps := vrp.NewSet()
	add := func(prefix string, asn uint32) {
		if err := vrps.Add(vrp.VRP{Prefix: netutil.MustPrefix(prefix), MaxLength: 24, ASN: asn}); err != nil {
			t.Fatal(err)
		}
	}
	// 10.0.0.0/24: owner AS 1 (org-a) plus standby AS 2 (org-b) → exposed.
	add("10.0.0.0/24", 1)
	add("10.0.0.0/24", 2)
	// 10.0.1.0/24: two ASes, same org → not exposed.
	add("10.0.1.0/24", 3)
	add("10.0.1.0/24", 4)
	// 10.0.2.0/24: one AS → not exposed.
	add("10.0.2.0/24", 1)
	// 10.0.3.0/24: unknown ASN mixed with known → the unknown is
	// ignored, single org remains → not exposed.
	add("10.0.3.0/24", 1)
	add("10.0.3.0/24", 999)

	orgOf := func(asn uint32) (string, bool) {
		switch asn {
		case 1:
			return "org-a", true
		case 2:
			return "org-b", true
		case 3, 4:
			return "org-c", true
		}
		return "", false
	}
	rels := ExposedRelations(vrps, nil, orgOf)
	if len(rels) != 1 {
		t.Fatalf("relations = %+v, want exactly 1", rels)
	}
	r := rels[0]
	if r.Prefix != "10.0.0.0/24" {
		t.Errorf("prefix = %s", r.Prefix)
	}
	if len(r.Orgs) != 2 || r.Orgs[0] != "org-a" || r.Orgs[1] != "org-b" {
		t.Errorf("orgs = %v", r.Orgs)
	}
	if len(r.ASNs) != 2 || r.ASNs[0] != 1 || r.ASNs[1] != 2 {
		t.Errorf("asns = %v", r.ASNs)
	}
	tbl := ExposureTable(rels)
	if len(tbl.Rows) != 1 {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
}

func TestExposedRelationsRegistryFallback(t *testing.T) {
	vrps := vrp.NewSet()
	vrps.Add(vrp.VRP{Prefix: netutil.MustPrefix("10.0.0.0/24"), MaxLength: 24, ASN: 1})
	vrps.Add(vrp.VRP{Prefix: netutil.MustPrefix("10.0.0.0/24"), MaxLength: 24, ASN: 2})
	registry := []ASRegistryEntry{{ASN: 1, Name: "ALPHA-AS1"}, {ASN: 2, Name: "BETA-AS1"}}
	rels := ExposedRelations(vrps, registry, nil)
	if len(rels) != 1 {
		t.Fatalf("relations = %+v", rels)
	}
}

// TestExposedRelationsFindPlantedBackups generates a world with planted
// standby arrangements and checks the analysis recovers every one.
func TestExposedRelationsFindPlantedBackups(t *testing.T) {
	w, err := webworld.Generate(webworld.Config{Seed: 17, Domains: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.PlantedBackups) == 0 {
		t.Fatal("no backups planted")
	}
	res := w.Repo.Validate(w.MeasureTime())
	if len(res.Problems) != 0 {
		t.Fatalf("validation problems: %v", res.Problems[:1])
	}
	byASN := make(map[uint32]string)
	for _, e := range w.ASRegistry {
		byASN[e.ASN] = e.Org
	}
	rels := ExposedRelations(res.VRPs, nil, func(asn uint32) (string, bool) {
		org, ok := byASN[asn]
		return org, ok
	})
	found := make(map[string][]string)
	for _, r := range rels {
		found[r.Prefix] = r.Orgs
	}
	for _, pb := range w.PlantedBackups {
		orgs, ok := found[pb.Prefix.String()]
		if !ok {
			t.Errorf("planted backup on %v not exposed", pb.Prefix)
			continue
		}
		hasOwner, hasStandby := false, false
		for _, o := range orgs {
			if o == pb.OwnerOrg {
				hasOwner = true
			}
			if o == pb.StandbyOrg {
				hasStandby = true
			}
		}
		if !hasOwner || !hasStandby {
			t.Errorf("backup %v: exposed orgs %v missing %s/%s", pb.Prefix, orgs, pb.OwnerOrg, pb.StandbyOrg)
		}
	}
	// And the exposure count matches the planted count (no spurious
	// cross-org attestations elsewhere in the world).
	if len(rels) != len(w.PlantedBackups) {
		t.Errorf("exposed %d relations, planted %d: %+v", len(rels), len(w.PlantedBackups), rels)
	}
}

// TestVantageIndependence checks the paper's §3 claim that the headline
// results do not depend on the DNS vantage point: a resolver that
// returns a rotated subset of each answer set (emulating DNS-based
// server selection) yields the same conclusions.
func TestVantageIndependence(t *testing.T) {
	w, err := webworld.Generate(webworld.Config{Seed: 23, Domains: 20000})
	if err != nil {
		t.Fatal(err)
	}
	res := w.Repo.Validate(w.MeasureTime())
	base := Config{
		Resolver: registryLookuper{w: w},
		RIB:      w.RIB,
		VRPs:     res.VRPs,
		BinWidth: 2000,
	}
	ds1, err := Run(w.List, base)
	if err != nil {
		t.Fatal(err)
	}
	alt := base
	alt.Resolver = rotatingLookuper{w: w}
	ds2, err := Run(w.List, alt)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(ds *Dataset, v Variant) float64 {
		var sum, n float64
		for i := range ds.Results {
			vd := ds.Results[i].variant(v)
			if vd.Usable() && vd.Pairs > 0 {
				sum += vd.CoverageProb()
				n++
			}
		}
		return sum / n
	}
	m1, m2 := mean(ds1, VariantWWW), mean(ds2, VariantWWW)
	if diff := m1 - m2; diff < -0.01 || diff > 0.01 {
		t.Errorf("coverage differs across vantages: %v vs %v", m1, m2)
	}
}

type registryLookuper struct{ w *webworld.World }

func (r registryLookuper) LookupWeb(name string) (dns.Result, error) {
	return dns.RegistryResolver{Registry: r.w.Registry}.LookupWeb(name)
}

type rotatingLookuper struct{ w *webworld.World }

// LookupWeb emulates a geographically distinct vantage: when a name has
// several addresses, only one (rank-rotated) is returned.
func (r rotatingLookuper) LookupWeb(name string) (dns.Result, error) {
	res, err := dns.RegistryResolver{Registry: r.w.Registry}.LookupWeb(name)
	if err != nil || len(res.Addrs) <= 1 {
		return res, err
	}
	idx := len(name) % len(res.Addrs)
	res.Addrs = res.Addrs[idx : idx+1]
	return res, nil
}
