// Quickstart: generate a small synthetic web ecosystem, run the paper's
// measurement methodology over it, and print the headline results.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"ripki"
	"ripki/internal/measure"
)

func main() {
	log.SetFlags(0)

	// A 20k-domain world runs in a couple of seconds; the full paper
	// scale is Domains: 1000000.
	study, err := ripki.NewStudy(ripki.StudyConfig{Domains: 20000, Seed: 2015})
	if err != nil {
		log.Fatal(err)
	}
	ds := study.Dataset

	fmt.Println("== Dataset ==")
	if err := ds.Summary().WriteAligned(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("== Figure 2: RPKI validation outcome by popularity ==")
	fmt.Print(ds.Figure2(measure.VariantWWW).ASCIIPlot(72, 12))

	fmt.Println()
	fmt.Println("== Figure 4: overall vs CDN-hosted RPKI deployment ==")
	fmt.Print(ds.Figure4(measure.VariantWWW).ASCIIPlot(72, 12))

	fmt.Println()
	if err := ds.Table1(10).WriteAligned(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("The perverse trend in one sentence: popular sites lean on CDNs,")
	fmt.Println("CDNs do not create ROAs, so the most visited websites end up the")
	fmt.Println("least protected against prefix hijacks.")
}
