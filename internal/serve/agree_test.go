package serve

import (
	"math/rand"
	"testing"
	"time"

	"ripki/internal/dns"
	"ripki/internal/measure"
	"ripki/internal/rpki/vrp"
	"ripki/internal/sim"
	"ripki/internal/webworld"
)

// TestThreeAnswersAgree asks one world the paper's question three ways
// — the study (measure.Run + measure.Snapshot), the service
// (/v1/snapshot's exposure and /v1/domain's verdicts) and a sim probe
// over the full list — and requires the same floats, bit for bit: all
// three go through measure's kernel, state mix and accumulator, in rank
// order. Once at t=0 and once after a seeded batch of VRP issues and
// revokes, which the probe takes through its incremental refresh.
func TestThreeAnswersAgree(t *testing.T) {
	w, err := webworld.Generate(webworld.Config{Seed: 11, Domains: 3000})
	if err != nil {
		t.Fatal(err)
	}
	dt, err := BuildDomainTable(w)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(dt)
	if _, err := svc.PublishSet(w.Validation().VRPs, "world", 0); err != nil {
		t.Fatal(err)
	}
	sm, err := sim.New(sim.Config{
		Scenario:      "baseline",
		Seed:          11,
		World:         w,
		Tick:          10 * time.Second,
		Duration:      time.Minute,
		SampleEvery:   1,
		SampleDomains: w.Cfg.Domains,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()

	check := func(step string, row int) {
		t.Helper()
		ds, err := measure.Run(w.List, measure.Config{
			Resolver: dns.RegistryResolver{Registry: w.Registry},
			RIB:      w.RIB,
			VRPs:     sm.TruthSet(),
		})
		if err != nil {
			t.Fatal(err)
		}
		study := measure.Snapshot(ds, 0)
		if study.Domains == 0 || study.Valid == 0 || study.HeadValid == 0 || study.TailValid == 0 {
			t.Fatalf("%s: the study's answer is degenerate: %+v", step, study)
		}
		sn := svc.Current()
		if sn.Exposure != study {
			t.Errorf("%s: exposure\nserved %+v\nstudy  %+v", step, sn.Exposure, study)
		}
		for _, col := range []struct {
			name string
			want float64
		}{
			{"valid", study.Valid}, {"invalid", study.Invalid}, {"notfound", study.NotFound},
			{"coverage", study.Coverage}, {"head_valid", study.HeadValid}, {"tail_valid", study.TailValid},
		} {
			if got := sm.Series.Column(col.name)[row]; got != col.want {
				t.Errorf("%s: the probe's %s is %v, the study's %v", step, col.name, got, col.want)
			}
		}
		for i := range ds.Results {
			r := &ds.Results[i]
			dv, ok := sn.Domain(r.Name)
			if !ok {
				t.Fatalf("%s: %s is not served", step, r.Name)
			}
			if dv.Rank != r.Rank || dv.CDN != r.CDNByChain {
				t.Errorf("%s: %s: served rank %d cdn %v, study rank %d cdn %v", step, r.Name, dv.Rank, dv.CDN, r.Rank, r.CDNByChain)
			}
			for _, v := range []struct {
				served VariantVerdict
				study  measure.VariantData
			}{{dv.WWW, r.WWW}, {dv.Apex, r.Apex}} {
				if v.served.Resolved != v.study.Usable() || len(v.served.Routes) != v.study.Pairs ||
					v.served.Valid != v.study.StateProb(vrp.Valid) ||
					v.served.Invalid != v.study.StateProb(vrp.Invalid) ||
					v.served.NotFound != v.study.StateProb(vrp.NotFound) ||
					v.served.Coverage != v.study.CoverageProb() {
					t.Errorf("%s: %s\nserved %+v\nstudy  %+v", step, v.served.Name, v.served, v.study)
				}
			}
		}
	}

	sm.Step()
	check("t=0", 0)

	rnd := rand.New(rand.NewSource(5))
	routed := w.RoutedV4Prefixes()
	for i := 0; i < 200; i++ {
		p := routed[rnd.Intn(len(routed))]
		origin, ok := w.PinnedOriginOf(p)
		if !ok {
			origin = 64512
		}
		if rnd.Intn(3) == 0 {
			origin++ // a ROA for somebody else: the route turns invalid
		}
		v := vrp.VRP{Prefix: p, MaxLength: p.Bits(), ASN: origin}
		if sm.HasVRP(v) {
			sm.RevokeVRP(v, "test")
		} else {
			sm.IssueVRP(v, "test")
		}
	}
	before := svc.Current().Exposure
	if _, err := svc.PublishSet(sm.TruthSet(), "sim", 1); err != nil {
		t.Fatal(err)
	}
	if svc.Current().Exposure == before {
		t.Fatal("the batch moved nothing")
	}
	sm.Step()
	check("after the batch", 1)
}
