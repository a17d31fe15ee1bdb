package ripki

import (
	"net"
	"strings"
	"testing"

	"ripki/internal/netutil"
	"ripki/internal/rtr"
)

func newStudy(t *testing.T) *Study {
	t.Helper()
	s, err := NewStudy(StudyConfig{Domains: 12000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStudyEndToEnd(t *testing.T) {
	s := newStudy(t)
	if s.Dataset.Totals.Domains != 12000 {
		t.Fatalf("domains = %d", s.Dataset.Totals.Domains)
	}
	if len(s.Validation.Problems) != 0 {
		t.Fatalf("validation problems: %v", s.Validation.Problems[:1])
	}
	for _, fig := range []*Figure{s.Figure1(), s.Figure2(VariantWWW), s.Figure3(), s.Figure4(VariantApex)} {
		if len(fig.Series) == 0 || len(fig.Series[0].Points) == 0 {
			t.Errorf("figure %q empty", fig.Title)
		}
		var sb strings.Builder
		if err := fig.WriteTSV(&sb); err != nil {
			t.Errorf("figure %q TSV: %v", fig.Title, err)
		}
	}
	tbl := s.Table1(10)
	if len(tbl.Rows) == 0 {
		t.Error("Table1 empty")
	}
	if got := s.Summary(); len(got.Rows) == 0 {
		t.Error("Summary empty")
	}
	rows := s.CDNStudy()
	if len(rows) != 16 {
		t.Errorf("CDN study rows = %d", len(rows))
	}
	if tbl := CDNStudyTable(rows); len(tbl.Rows) != 17 {
		t.Errorf("CDN study table rows = %d", len(tbl.Rows))
	}
}

func TestStudyValidateAndRTR(t *testing.T) {
	s := newStudy(t)
	// Find one VRP and validate through the public API.
	all := s.VRPs.All()
	if len(all) == 0 {
		t.Fatal("no VRPs")
	}
	v := all[0]
	if got := s.Validate(v.Prefix, v.ASN); got != StateValid {
		t.Errorf("Validate(%v, %d) = %v", v.Prefix, v.ASN, got)
	}
	if got := s.Validate(v.Prefix, v.ASN+1); got != StateInvalid {
		t.Errorf("wrong-origin Validate = %v", got)
	}
	if got := s.Validate(netutil.MustPrefix("192.0.2.0/24"), 1); got != StateNotFound {
		t.Errorf("uncovered Validate = %v", got)
	}

	// Serve the VRPs over RTR and sync a client.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := s.ServeRTR(ln)
	defer srv.Close()
	c, err := rtr.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != s.VRPs.Len() {
		t.Errorf("RTR client has %d VRPs, study has %d", c.Len(), s.VRPs.Len())
	}
	got := c.Set()
	if st := got.Validate(v.Prefix, v.ASN); st != StateValid {
		t.Errorf("via RTR: Validate = %v", st)
	}
}

func TestStudyServeService(t *testing.T) {
	s, err := NewStudy(StudyConfig{Domains: 6000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := s.ServeStudy()
	if err != nil {
		t.Fatal(err)
	}
	// The study's validation is the world's memo: the service, which
	// asks the world, does not validate the repository a second time.
	if s.Validation != s.World.Validation() {
		t.Fatal("the study validated the repository beside the world's memo")
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
