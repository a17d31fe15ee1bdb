package main

import (
	"bufio"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ripki/internal/dns"
	"ripki/internal/webworld"
)

// TestServesAZoneDump: started on a 200-domain zones.tsv — the file
// ripki-worldgen -zones writes — the daemon answers a www name over UDP
// with what the world's own registry resolves it to: the CNAME chain
// and the addresses of the pipeline's step 2, through the wire.
func TestServesAZoneDump(t *testing.T) {
	w, err := webworld.Generate(webworld.Config{Seed: 5, Domains: 200})
	if err != nil {
		t.Fatal(err)
	}
	zones := filepath.Join(t.TempDir(), "zones.tsv")
	f, err := os.Create(zones)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Registry.WriteZoneTSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stdout, banner := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-zones", zones, "-listen", "127.0.0.1:0"}, banner, io.Discard)
		banner.Close()
	}()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("no banner: %v (run: %v)", err, <-done)
	}
	_, addr, ok := strings.Cut(strings.TrimSpace(line), " on ")
	if !ok || !strings.HasPrefix(line, "serving ") {
		t.Fatalf("banner %q", line)
	}

	client, local := dns.NewClient(addr), dns.RegistryResolver{Registry: w.Registry}
	resolved := 0
	for _, e := range w.List.Entries()[:20] {
		name := "www." + e.Domain
		got, err := client.LookupWeb(name)
		if err != nil {
			t.Fatalf("%s over UDP: %v", name, err)
		}
		want, err := local.LookupWeb(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: over UDP %+v, from the registry %+v", name, got, want)
		}
		resolved += len(got.Addrs)
	}
	if resolved == 0 {
		t.Error("twenty www names resolved to no address at all")
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("run after cancel: %v", err)
	}
}
