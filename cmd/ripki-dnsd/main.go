// Command ripki-dnsd serves a generated world's DNS zones over UDP, so
// the measurement pipeline (or plain dig/host) can resolve the
// synthetic web through a real resolver hop — one of the "several
// public resolvers" of the paper's methodology. It is the wire form of
// the pipeline's step 2: the one program that drives dns.Server, and the
// reader of the zones.tsv that ripki-worldgen -zones writes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"

	"ripki/internal/dns"
	"ripki/internal/webworld"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "ripki-dnsd: %v\n", err)
		os.Exit(1)
	}
}

// run serves until ctx ends. Once it listens it prints one line to
// stdout, "serving N names on ADDR"; diagnostics go to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ripki-dnsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", "127.0.0.1:5354", "UDP listen address")
		domains  = fs.Int("domains", 20000, "world size")
		seed     = fs.Int64("seed", 1, "world generation seed")
		zoneFile = fs.String("zones", "", "serve a zones.tsv dump instead of generating a world")
		verbose  = fs.Bool("v", false, "log queries")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var registry *dns.Registry
	if *zoneFile != "" {
		f, err := os.Open(*zoneFile)
		if err != nil {
			return err
		}
		registry, err = dns.LoadZoneTSV(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("reading %s: %w", *zoneFile, err)
		}
	} else {
		w, err := webworld.Generate(webworld.Config{Seed: *seed, Domains: *domains})
		if err != nil {
			return err
		}
		registry = w.Registry
	}
	conn, err := net.ListenPacket("udp", *listen)
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Fprintf(stdout, "serving %d names on %s\n", registry.Len(), conn.LocalAddr())
	srv := dns.NewServer(registry)
	if *verbose {
		srv.Logf = log.New(stderr, "ripki-dnsd: ", 0).Printf
	}
	stop := context.AfterFunc(ctx, func() { srv.Close() })
	defer stop()
	return srv.Serve(conn)
}
