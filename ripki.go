// Package ripki reproduces "RiPKI: The Tragic Story of RPKI Deployment
// in the Web Ecosystem" (Wählisch et al., ACM HotNets 2015).
//
// The paper measures how much of the web's hosting infrastructure is
// protected by RPKI prefix origin validation, and finds that popular,
// CDN-hosted websites are *less* protected than obscure ones. This
// module rebuilds the full measurement stack — DNS, BGP as a collector's
// routing table (held in process; internal/bgp says where in git history
// the session layer, message framing and MRT dump writer are), RPKI
// (certificates, ROAs, relying-party validation), the RPKI-to-Router
// protocol, and a synthetic web ecosystem standing in for the live
// Internet — and re-runs the paper's methodology end to end.
//
// This package holds only what joins those packages: a Study generates a
// world, validates its RPKI and measures it, and answers the two
// analyses that need the world and the dataset together. Everything
// else is called in the package that does the work:
//
//	study, err := ripki.NewStudy(ripki.StudyConfig{Domains: 100000, Seed: 1})
//	...
//	study.Dataset.Figure2(measure.VariantWWW).WriteTSV(os.Stdout)
//
// The time-evolving scenario engine is internal/sim (sim.New,
// sim.RunScenarioContext), parameter sweeps over it internal/sweep and
// internal/distsweep, and the query service internal/serve.
package ripki

import (
	"fmt"

	"ripki/internal/dns"
	"ripki/internal/httparchive"
	"ripki/internal/measure"
	"ripki/internal/rpki/repo"
	"ripki/internal/rpki/vrp"
	"ripki/internal/webworld"
)

// StudyConfig configures an end-to-end reproduction run.
type StudyConfig struct {
	// Domains is the ranked-list size (default 1,000,000 — the paper's
	// scale; use less for quick runs).
	Domains int
	// Seed drives the deterministic world generation.
	Seed int64
	// BinWidth groups ranks in figures (default: the world's size / 100,
	// the paper's 10,000 of 1M).
	BinWidth int
	// DNSSEC additionally measures DNSSEC zone signing per domain (the
	// paper's stated future-work comparison).
	DNSSEC bool
}

// Study is a completed end-to-end run: the generated world, the
// validated RPKI payloads, and the measured dataset, whose methods
// render the paper's figures and tables.
type Study struct {
	World      *webworld.World
	VRPs       *vrp.Set
	Validation *repo.ValidationResult
	Dataset    *measure.Dataset
}

// NewStudy generates a world, validates its RPKI repository, and runs
// the paper's four-step methodology over the ranked domain list.
func NewStudy(cfg StudyConfig) (*Study, error) {
	world, err := webworld.Generate(webworld.Config{Seed: cfg.Seed, Domains: cfg.Domains})
	if err != nil {
		return nil, fmt.Errorf("ripki: generating world: %w", err)
	}
	validation := world.Validation()
	ha := httparchive.New(world.CDNSuffixes)
	// Scale the paper's 300k-of-1M corpus to this world.
	ha.Limit = world.Cfg.Domains * 3 / 10
	binWidth := cfg.BinWidth
	if binWidth == 0 {
		// Scale the paper's 10k-of-1M binning to this world.
		binWidth = max(world.Cfg.Domains/100, 1)
	}
	ds, err := measure.Run(world.List, measure.Config{
		Resolver:    dns.RegistryResolver{Registry: world.Registry},
		RIB:         world.RIB,
		VRPs:        validation.VRPs,
		HTTPArchive: ha,
		BinWidth:    binWidth,
		DNSSEC:      cfg.DNSSEC,
	})
	if err != nil {
		return nil, fmt.Errorf("ripki: measuring: %w", err)
	}
	return &Study{
		World:      world,
		VRPs:       validation.VRPs,
		Validation: validation,
		Dataset:    ds,
	}, nil
}

// asRegistry is the world's AS assignment list as the measure package
// reads it.
func (s *Study) asRegistry() []measure.ASRegistryEntry {
	reg := make([]measure.ASRegistryEntry, 0, len(s.World.ASRegistry))
	for _, e := range s.World.ASRegistry {
		reg = append(reg, measure.ASRegistryEntry{ASN: e.ASN, Name: e.Name})
	}
	return reg
}

// CDNStudy runs the §4.2 keyword-spotting analysis; measure.CDNStudyTable
// renders it.
func (s *Study) CDNStudy() []measure.CDNStudyRow {
	cdns := webworld.CDNs()
	names := make([]string, 0, len(cdns))
	for _, spec := range cdns {
		names = append(names, spec.Name)
	}
	return measure.CDNStudy(names, s.asRegistry(), s.VRPs)
}

// ExposedRelations runs the §5.2 analysis: which business relations
// does the public RPKI disclose? (One of the paper's explanations for
// why operators hesitate to deploy.) measure.ExposureTable renders it.
func (s *Study) ExposedRelations() []measure.ExposedRelation {
	orgOf := make(map[uint32]string, len(s.World.ASRegistry))
	for _, e := range s.World.ASRegistry {
		orgOf[e.ASN] = e.Org
	}
	return measure.ExposedRelations(s.VRPs, s.asRegistry(), func(asn uint32) (string, bool) {
		org, ok := orgOf[asn]
		return org, ok
	})
}
