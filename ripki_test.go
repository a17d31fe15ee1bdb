package ripki

import (
	"strings"
	"testing"

	"ripki/internal/measure"
	"ripki/internal/serve"
	"ripki/internal/stats"
)

func TestStudyEndToEnd(t *testing.T) {
	s, err := NewStudy(StudyConfig{Domains: 12000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ds := s.Dataset
	if ds.Totals.Domains != 12000 {
		t.Fatalf("domains = %d", ds.Totals.Domains)
	}
	if ds.BinWidth != 120 {
		t.Errorf("bin width = %d, want the world's size / 100", ds.BinWidth)
	}
	if len(s.Validation.Problems) != 0 {
		t.Fatalf("validation problems: %v", s.Validation.Problems[:1])
	}
	// The study's validation is the world's memo: whatever asks the world
	// later (sim, serve) does not validate the repository a second time.
	if s.Validation != s.World.Validation() {
		t.Fatal("the study validated the repository beside the world's memo")
	}
	for _, fig := range []*stats.Figure{ds.Figure1(), ds.Figure2(measure.VariantWWW), ds.Figure3(), ds.Figure4(measure.VariantApex)} {
		if len(fig.Series) == 0 || len(fig.Series[0].Points) == 0 {
			t.Errorf("figure %q empty", fig.Title)
		}
		var sb strings.Builder
		if err := fig.WriteTSV(&sb); err != nil {
			t.Errorf("figure %q TSV: %v", fig.Title, err)
		}
	}
	rows := s.CDNStudy()
	if len(rows) != 16 {
		t.Errorf("CDN study rows = %d", len(rows))
	}
	if tbl := measure.CDNStudyTable(rows); len(tbl.Rows) != 17 {
		t.Errorf("CDN study table rows = %d", len(tbl.Rows))
	}
	if rels := s.ExposedRelations(); len(rels) != len(s.World.PlantedBackups) || len(rels) == 0 {
		t.Errorf("exposed %d relations for %d planted", len(rels), len(s.World.PlantedBackups))
	}
}

func TestStudyServeService(t *testing.T) {
	s, err := NewStudy(StudyConfig{Domains: 6000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dt, err := serve.BuildDomainTable(s.World)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.New(dt)
	if _, err := svc.PublishSet(s.VRPs, "world", 0); err != nil {
		t.Fatal(err)
	}
	sn := svc.Current()
	if sn == nil || sn.Index.Len() != s.VRPs.Len() {
		t.Fatalf("service snapshot does not match the study's VRPs: %+v", sn)
	}
	if sn.Domains.Len() != 6000 {
		t.Fatalf("domain table has %d domains, want 6000", sn.Domains.Len())
	}
	// The snapshot's lock-free index agrees with the study's set.
	v := s.VRPs.All()[0]
	if res := sn.ValidateRoute(v.Prefix, v.ASN); res.State != "valid" {
		t.Fatalf("ValidateRoute = %+v, want valid", res)
	}
	// Its aggregate exposure matches the study's measured coverage in
	// direction: partially covered, far from fully covered.
	if sn.Exposure.Coverage <= 0 || sn.Exposure.Coverage >= 0.5 {
		t.Fatalf("exposure coverage = %v, want small but positive", sn.Exposure.Coverage)
	}
	// The domain endpoint agrees with the dataset for a measured domain.
	name := s.World.List.Entries()[0].Domain
	verdict, ok := sn.Domain(name)
	if !ok {
		t.Fatalf("domain %q missing from the service", name)
	}
	if verdict.Rank != 1 {
		t.Fatalf("rank = %d, want 1", verdict.Rank)
	}
}
