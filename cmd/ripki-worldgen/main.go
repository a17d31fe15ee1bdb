// Command ripki-worldgen generates a synthetic web ecosystem and writes
// the two artifacts the other commands read back:
//
//	vrps.csv   validated ROA payloads ("prefix,maxLength,ASN"), read by
//	           ripki-rtrd -vrps, ripki-served -vrps and ripki-validate -vrps
//	zones.tsv  every DNS record ("name type TTL value"; with -zones), read
//	           by ripki-dnsd -zones
//
// The ranked list, the collector table and the AS registry are not
// written: a tool that takes -seed/-domains regenerates the same world.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ripki/internal/webworld"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ripki-worldgen: ")
	var (
		domains = flag.Int("domains", 100000, "size of the ranked domain list")
		seed    = flag.Int64("seed", 1, "world generation seed")
		out     = flag.String("out", "world", "output directory")
		zones   = flag.Bool("zones", false, "also dump every DNS record (large)")
	)
	flag.Parse()

	w, err := webworld.Generate(webworld.Config{Seed: *seed, Domains: *domains})
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	write := func(name string, fn func(f *os.File) error) {
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := fn(f); err != nil {
			f.Close()
			log.Fatalf("writing %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	res := w.Validation()
	if len(res.Problems) != 0 {
		log.Fatalf("RPKI validation produced %d problems; first: %v", len(res.Problems), res.Problems[0])
	}
	write("vrps.csv", func(f *os.File) error { return res.VRPs.WriteCSV(f) })
	if *zones {
		write("zones.tsv", func(f *os.File) error { return w.Registry.WriteZoneTSV(f) })
	}
	fmt.Printf("world: %d domains, %d orgs, %d prefixes (%d signed), %d VRPs, %d RIB prefixes\n",
		w.Cfg.Domains, len(w.Orgs), w.Stats.PrefixesTotal, w.Stats.PrefixesSigned, res.VRPs.Len(), w.RIB.Len())
}
