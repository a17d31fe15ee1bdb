package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ripki/internal/dns"
	"ripki/internal/webworld"
)

// TestServesAZoneDump: started on a 200-domain zones.tsv — the file
// ripki-worldgen -zones writes — the daemon answers the A and AAAA
// queries for a www name over UDP with what the world's own registry
// answers them with: the CNAME chain and the addresses of the
// pipeline's step 2, through the wire, TTLs included: the dump carries
// each record's own.
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

	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 4096)
	resolved := 0
	for i, e := range w.List.Entries()[:20] {
		for _, typ := range []uint16{dns.TypeA, dns.TypeAAAA} {
			q := dns.Question{Name: "www." + e.Domain, Type: typ, Class: dns.ClassINET}
			query := dns.Message{Header: dns.Header{ID: uint16(i), RecursionDesired: true}, Questions: []dns.Question{q}}
			wire, err := query.Pack()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(wire); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("%s type %d over UDP: %v", q.Name, typ, err)
			}
			var resp dns.Message
			if err := resp.Unpack(buf[:n]); err != nil {
				t.Fatal(err)
			}
			if !resp.Header.Response || resp.Header.ID != query.Header.ID {
				t.Fatalf("%s type %d: reply header %+v", q.Name, typ, resp.Header)
			}
			want, rcode := w.Registry.Query(q)
			if resp.Header.RCode != rcode || !reflect.DeepEqual(resp.Answers, want) {
				t.Errorf("%s type %d: over UDP rcode %d %+v, from the registry rcode %d %+v", q.Name, typ, resp.Header.RCode, resp.Answers, rcode, want)
			}
			for _, rr := range resp.Answers {
				if rr.Type == typ {
					resolved++
				}
			}
		}
	}
	if resolved == 0 {
		t.Error("twenty www names resolved to no address at all")
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("run after cancel: %v", err)
	}
}
