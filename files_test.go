package ripki

// This file proves the pipeline runs the same on the two artefacts a
// command reads back from disk — validated ROA payloads (vrps.csv:
// ripki-rtrd, ripki-served, ripki-validate) and the zone dump (zones.tsv:
// ripki-dnsd) — as on the live world they were written from. The ranked
// list and the routing table come from the live world: ripki-worldgen
// writes them too, but nothing reads them back.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ripki/internal/dns"
	"ripki/internal/measure"
	"ripki/internal/rpki/vrp"
	"ripki/internal/webworld"
)

func TestPipelineFromArtifacts(t *testing.T) {
	world, err := webworld.Generate(webworld.Config{Seed: 77, Domains: 8000})
	if err != nil {
		t.Fatal(err)
	}
	validation := world.Repo.Validate(world.MeasureTime())
	if len(validation.Problems) != 0 {
		t.Fatalf("validation: %v", validation.Problems[:1])
	}

	// Write the two read-back artefacts the way ripki-worldgen does.
	dir := t.TempDir()
	writeFile := func(name string, fn func(f *os.File) error) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	vrpPath := writeFile("vrps.csv", func(f *os.File) error { return validation.VRPs.WriteCSV(f) })
	zonePath := writeFile("zones.tsv", func(f *os.File) error { return world.Registry.WriteZoneTSV(f) })

	// Reload them from bytes alone.
	readBack := func(path string) *os.File {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	vrps, err := vrp.ReadCSV(readBack(vrpPath))
	if err != nil {
		t.Fatal(err)
	}
	registry, err := dns.LoadZoneTSV(readBack(zonePath))
	if err != nil {
		t.Fatal(err)
	}

	// Run the methodology over the reloaded inputs and over the live
	// world; the headline outcomes must agree.
	run := func(reg *dns.Registry, vs *vrp.Set) *measure.Dataset {
		t.Helper()
		ds, err := measure.Run(world.List, measure.Config{
			Resolver: dns.RegistryResolver{Registry: reg},
			RIB:      world.RIB,
			VRPs:     vs,
			BinWidth: 800,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	fromFiles := run(registry, vrps)
	inMemory := run(world.Registry, validation.VRPs)

	if fromFiles.Totals != inMemory.Totals {
		t.Errorf("headline totals diverge:\n files: %+v\n live:  %+v", fromFiles.Totals, inMemory.Totals)
	}
	meanCoverage := func(ds *measure.Dataset) float64 {
		var sum, n float64
		for i := range ds.Results {
			if ds.Results[i].WWW.Pairs > 0 {
				sum += ds.Results[i].WWW.CoverageProb()
				n++
			}
		}
		return sum / n
	}
	a, b := meanCoverage(fromFiles), meanCoverage(inMemory)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("coverage differs: files %v vs live %v", a, b)
	}

	// Figure output must be byte-identical.
	var f1, f2 bytes.Buffer
	if err := fromFiles.Figure2(measure.VariantWWW).WriteTSV(&f1); err != nil {
		t.Fatal(err)
	}
	if err := inMemory.Figure2(measure.VariantWWW).WriteTSV(&f2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1.Bytes(), f2.Bytes()) {
		t.Error("Figure 2 differs between file-loaded and live inputs")
	}
}
