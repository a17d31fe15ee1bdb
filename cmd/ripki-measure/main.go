// Command ripki-measure runs the paper's measurement methodology over a
// generated world and prints any of the paper's figures and tables as
// TSV (or a rough terminal plot with -plot).
//
//	ripki-measure -domains 100000 -fig 2
//	ripki-measure -domains 100000 -table1
//	ripki-measure -domains 100000 -cdnstudy
//	ripki-measure -domains 100000 -all > results.tsv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ripki"
	"ripki/internal/measure"
	"ripki/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ripki-measure: ")
	var (
		domains  = flag.Int("domains", 100000, "size of the ranked domain list")
		seed     = flag.Int64("seed", 1, "world generation seed")
		bin      = flag.Int("bin", 0, "bin width (default: the world's size/100, the paper's 10k-of-1M ratio)")
		variant  = flag.String("variant", "www", `name variant: "www" or "apex"`)
		fig      = flag.Int("fig", 0, "print figure N (1-4)")
		table1   = flag.Bool("table1", false, "print Table 1")
		topN     = flag.Int("top", 10, "rows for Table 1")
		cdnstudy = flag.Bool("cdnstudy", false, "print the §4.2 CDN study")
		exposure = flag.Bool("exposure", false, "print the §5.2 business-relation exposure analysis")
		dnssec   = flag.Bool("dnssec", false, "print the DNSSEC-vs-RPKI extension figure")
		summary  = flag.Bool("summary", false, "print dataset headline counts")
		all      = flag.Bool("all", false, "print everything")
		dump     = flag.String("dump", "", "write the full per-domain dataset to this TSV file (the paper's data release)")
		plot     = flag.Bool("plot", false, "render figures as terminal plots instead of TSV")
	)
	flag.Parse()

	v := measure.VariantWWW
	switch *variant {
	case "www":
	case "apex", "w/o www":
		v = measure.VariantApex
	default:
		log.Fatalf("unknown variant %q", *variant)
	}
	if *topN < 1 {
		log.Fatalf("-top %d: Table 1 needs at least one row", *topN)
	}

	study, err := ripki.NewStudy(ripki.StudyConfig{
		Domains:  *domains,
		Seed:     *seed,
		BinWidth: *bin,
		DNSSEC:   *dnssec || *all,
	})
	if err != nil {
		log.Fatal(err)
	}
	ds := study.Dataset

	emitFig := func(f *stats.Figure) {
		if *plot {
			fmt.Print(f.ASCIIPlot(72, 16))
			return
		}
		if err := f.WriteTSV(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	emitTable := func(t *stats.Table) {
		if *plot {
			if err := t.WriteAligned(os.Stdout); err != nil {
				log.Fatal(err)
			}
		} else if err := t.WriteTSV(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	printed := false
	if *all || *summary {
		emitTable(ds.Summary())
		printed = true
	}
	if *all || *fig == 1 {
		emitFig(ds.Figure1())
		printed = true
	}
	if *all || *fig == 2 {
		emitFig(ds.Figure2(v))
		printed = true
	}
	if *all || *fig == 3 {
		emitFig(ds.Figure3())
		printed = true
	}
	if *all || *fig == 4 {
		emitFig(ds.Figure4(v))
		printed = true
	}
	if *all || *table1 {
		emitTable(ds.Table1(*topN))
		printed = true
	}
	if *all || *cdnstudy {
		emitTable(measure.CDNStudyTable(study.CDNStudy()))
		printed = true
	}
	if *all || *exposure {
		emitTable(measure.ExposureTable(study.ExposedRelations()))
		printed = true
	}
	if *all || *dnssec {
		emitFig(ds.FigureDNSSEC(v))
		printed = true
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			log.Fatal(err)
		}
		if err := ds.WriteTSV(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d domains)\n", *dump, ds.Totals.Domains)
		printed = true
	}
	if !printed {
		log.Fatal("nothing to do: pass -fig N, -table1, -cdnstudy, -exposure, -summary, -dump FILE, or -all")
	}
}
