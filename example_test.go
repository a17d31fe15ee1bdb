package ripki_test

import (
	"fmt"

	"ripki"
)

// ExampleNewStudy reproduces the paper's §4.2 headline on a small
// world: sixteen CDNs, 199 ASes, four RPKI prefixes — all Internap's.
func ExampleNewStudy() {
	study, err := ripki.NewStudy(ripki.StudyConfig{Domains: 5000, Seed: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rows := study.CDNStudy()
	totalASes, totalPrefixes := 0, 0
	var signer string
	for _, r := range rows {
		totalASes += r.ASes
		totalPrefixes += r.RPKIPrefix
		if r.RPKIPrefix > 0 {
			signer = r.CDN
		}
	}
	fmt.Printf("CDNs: %d\n", len(rows))
	fmt.Printf("CDN ASes: %d\n", totalASes)
	fmt.Printf("RPKI prefixes: %d (all %s)\n", totalPrefixes, signer)
	// Output:
	// CDNs: 16
	// CDN ASes: 199
	// RPKI prefixes: 4 (all internap)
}

// ExampleStudy shows RFC 6811 origin validation against a study's
// validated ROA payloads.
func ExampleStudy() {
	study, err := ripki.NewStudy(ripki.StudyConfig{Domains: 5000, Seed: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	v := study.VRPs.All()[0]
	fmt.Println("authorised origin:", study.VRPs.Validate(v.Prefix, v.ASN))
	fmt.Println("wrong origin:     ", study.VRPs.Validate(v.Prefix, v.ASN+1))
	// Output:
	// authorised origin: valid
	// wrong origin:      invalid
}
