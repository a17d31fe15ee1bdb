// CDN audit reproduces the paper's §4.2 analysis as a standalone tool
// flow: keyword-spot CDN operators in an AS assignment registry, then
// check which of their ASes appear in the validated RPKI data — and
// split the CDN-delivered content that is protected by where the
// covering prefix sits: a third-party ISP hosting a cache, or the CDN's
// own network.
//
//	go run ./examples/cdnaudit
package main

import (
	"fmt"
	"log"
	"net/netip"
	"os"

	"ripki"
	"ripki/internal/dns"
	"ripki/internal/measure"
	"ripki/internal/rpki/vrp"
	"ripki/internal/webworld"
)

func main() {
	log.SetFlags(0)

	study, err := ripki.NewStudy(ripki.StudyConfig{Domains: 30000, Seed: 4})
	if err != nil {
		log.Fatal(err)
	}

	rows := study.CDNStudy()
	if err := measure.CDNStudyTable(rows).WriteAligned(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// The paper's reading of this table, recomputed live.
	totalASes, signers := 0, 0
	var signerRow measure.CDNStudyRow
	for _, r := range rows {
		totalASes += r.ASes
		if r.RPKIPrefix > 0 {
			signers++
			signerRow = r
		}
	}
	fmt.Println()
	fmt.Printf("We discover %d ASes operated by these CDNs. From these, we find\n", totalASes)
	fmt.Printf("only %d prefixes in the RPKI, tied to %d origin ASes, all belonging\n",
		signerRow.RPKIPrefix, signerRow.RPKIASes)
	fmt.Printf("to %s. %d of the %d CDNs made any deployment.\n", signerRow.CDN, signers, len(rows))

	// "Every RPKI-enabled CDN-content is served by a third party
	// network": for each CDN-hosted domain with coverage, check who owns
	// the covered prefixes.
	resolver := dns.RegistryResolver{Registry: study.World.Registry}
	owner := make(map[netip.Prefix]*webworld.Org)
	for _, o := range study.World.Orgs {
		for _, p := range o.Prefixes {
			owner[p] = o
		}
	}
	covered, viaThirdParty := 0, 0
	var inside []string // domains covered inside their CDN's own network
	for i := range study.Dataset.Results {
		r := &study.Dataset.Results[i]
		if !r.CDNByChain || r.WWW.CoveredPrefixes == 0 {
			continue
		}
		covered++
		res, err := resolver.LookupWeb("www." + r.Name)
		if err != nil {
			continue
		}
		thirdParty, own := false, ""
		for _, a := range res.Addrs {
			for _, po := range study.World.RIB.OriginPairs(a) {
				if study.VRPs.Validate(po.Prefix, po.Origin) == vrp.NotFound {
					continue
				}
				org := owner[po.Prefix]
				switch {
				case org == nil:
				case org.Kind == webworld.KindISP:
					thirdParty = true
				case org.CDN != nil:
					own = fmt.Sprintf("%s: %s's %v, AS%d", r.Name, org.CDN.Name, po.Prefix, po.Origin)
				}
			}
		}
		if thirdParty {
			viaThirdParty++
		} else if own != "" {
			inside = append(inside, own)
		}
	}
	fmt.Println()
	fmt.Printf("CDN-hosted domains with some RPKI coverage: %d. %d owe their\n", covered, viaThirdParty)
	fmt.Printf("protection to a third-party ISP hosting the CDN's cache, %d to\n", len(inside))
	fmt.Println("the CDN's own network:")
	for _, line := range inside {
		fmt.Println("  " + line)
	}
}
