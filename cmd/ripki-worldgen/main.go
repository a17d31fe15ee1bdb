// Command ripki-worldgen generates a synthetic web ecosystem and writes
// its artifacts to disk in the formats the real study consumed:
//
//	alexa.csv       ranked domain list ("rank,domain")
//	rib.mrt         collector routing table (MRT TABLE_DUMP_V2)
//	vrps.csv        validated ROA payloads ("prefix,maxLength,ASN")
//	asregistry.tsv  AS assignment list for keyword spotting
//	zones.tsv       every DNS record ("name type value"; with -zones)
//
// Two of them are read back: vrps.csv by ripki-rtrd -vrps, ripki-served
// -vrps and ripki-validate -vrps, and zones.tsv by ripki-dnsd -zones.
// The other three are written for inspection and pinned byte for byte;
// a tool that takes -seed/-domains regenerates the same world instead.
package main

import (
	"bufio"
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

	write("alexa.csv", func(f *os.File) error { return w.List.WriteCSV(f) })
	write("rib.mrt", func(f *os.File) error {
		// Stamped when the world's objects were issued.
		return w.RIB.DumpMRT(f, w.RIB.Peers()[0].BGPID, "rrc-ripki", w.Repo.Clock)
	})
	res := w.Repo.Validate(w.MeasureTime())
	if len(res.Problems) != 0 {
		log.Fatalf("RPKI validation produced %d problems; first: %v", len(res.Problems), res.Problems[0])
	}
	write("vrps.csv", func(f *os.File) error { return res.VRPs.WriteCSV(f) })
	write("asregistry.tsv", func(f *os.File) error {
		bw := bufio.NewWriter(f)
		fmt.Fprintln(bw, "asn\tname\torg")
		for _, e := range w.ASRegistry {
			fmt.Fprintf(bw, "%d\t%s\t%s\n", e.ASN, e.Name, e.Org)
		}
		return bw.Flush()
	})
	if *zones {
		write("zones.tsv", func(f *os.File) error { return w.Registry.WriteZoneTSV(f) })
	}
	fmt.Printf("world: %d domains, %d orgs, %d prefixes (%d signed), %d VRPs, %d RIB prefixes\n",
		w.Cfg.Domains, len(w.Orgs), w.Stats.PrefixesTotal, w.Stats.PrefixesSigned, res.VRPs.Len(), w.RIB.Len())
}
