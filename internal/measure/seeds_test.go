package measure

import (
	"testing"

	"ripki/internal/dns"
	"ripki/internal/webworld"
)

// TestFindingsStableAcrossSeeds re-derives the paper's two headline
// findings on several independently generated worlds: the calibration
// shapes the magnitudes, but the *directions* must never depend on the
// random draw.
func TestFindingsStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-world generation in -short mode")
	}
	for _, seed := range []int64{101, 202, 303} {
		seed := seed
		t.Run(string(rune('A'+seed%26)), func(t *testing.T) {
			w, err := webworld.Generate(webworld.Config{Seed: seed, Domains: 25000})
			if err != nil {
				t.Fatal(err)
			}
			res := w.Repo.Validate(w.MeasureTime())
			if len(res.Problems) != 0 {
				t.Fatalf("seed %d: validation problems: %v", seed, res.Problems[:1])
			}
			ds, err := Run(w.List, Config{
				Resolver: dns.RegistryResolver{Registry: w.Registry},
				RIB:      w.RIB,
				VRPs:     res.VRPs,
				BinWidth: 2500,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Finding 1: the first fifth of ranks is less covered than
			// the last fifth.
			var headSum, headN, tailSum, tailN float64
			var cdnSum, cdnN, allSum, allN float64
			fifth := len(ds.Results) / 5
			for i := range ds.Results {
				r := &ds.Results[i]
				if !r.WWW.Usable() || r.WWW.Pairs == 0 {
					continue
				}
				c := r.WWW.CoverageProb()
				allSum += c
				allN++
				if i < fifth {
					headSum += c
					headN++
				}
				if i >= len(ds.Results)-fifth {
					tailSum += c
					tailN++
				}
				if r.CDNByChain {
					cdnSum += c
					cdnN++
				}
			}
			head, tail := headSum/headN, tailSum/tailN
			if !(tail > head) {
				t.Errorf("seed %d: finding 1 violated (head %v, tail %v)", seed, head, tail)
			}
			// Finding 2/4: CDN-hosted coverage is far below overall.
			cdn, all := cdnSum/cdnN, allSum/allN
			if !(cdn < all/2) {
				t.Errorf("seed %d: finding 2 violated (cdn %v, overall %v)", seed, cdn, all)
			}
			// §4.2 invariant: only the Internap-like CDN in the RPKI.
			inRPKI := make(map[uint32]bool)
			for _, v := range res.VRPs.All() {
				inRPKI[v.ASN] = true
			}
			for _, o := range w.Orgs {
				if o.Kind != webworld.KindCDN || (o.CDN != nil && o.CDN.SignsROAs) {
					continue
				}
				for _, asn := range o.ASNs {
					if inRPKI[asn] {
						t.Errorf("seed %d: CDN %s AS%d appears in the RPKI", seed, o.Name, asn)
					}
				}
			}
		})
	}
}
