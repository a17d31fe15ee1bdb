// Command ripki-rtrd serves validated ROA payloads to routers over the
// RPKI-to-Router protocol (RFC 6810), like a relying-party cache
// (rpki-client + stayrtr, or routinator).
//
// The VRPs come either from a CSV export (-vrps, the format
// ripki-worldgen writes) or from validating a freshly generated world
// (-domains/-seed).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"ripki/internal/obs"
	"ripki/internal/rpki/vrp"
	"ripki/internal/rtr"
	"ripki/internal/webworld"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ripki-rtrd: ")
	var (
		listen    = flag.String("listen", "127.0.0.1:8282", "RTR listen address")
		vrpFile   = flag.String("vrps", "", "VRP CSV file to serve (instead of generating a world)")
		domains   = flag.Int("domains", 20000, "world size when generating")
		seed      = flag.Int64("seed", 1, "world generation seed")
		session   = flag.Uint("session", 911, "RTR session ID")
		pprofAt   = flag.String("pprof", "", `serve the runtime profiles (/debug/pprof/) over HTTP on this address (e.g. "127.0.0.1:6060"); off when empty`)
		metricsAt = flag.String("metrics", "", `serve Prometheus metrics (/metrics: build info, uptime, serial, VRP count) over HTTP on this address; off when empty`)
	)
	flag.Parse()

	if *pprofAt != "" {
		ln, err := obs.ServePprof(*pprofAt)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", ln.Addr())
	}

	var set *vrp.Set
	if *vrpFile != "" {
		f, err := os.Open(*vrpFile)
		if err != nil {
			log.Fatal(err)
		}
		set, err = vrp.ReadCSV(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		w, err := webworld.Generate(webworld.Config{Seed: *seed, Domains: *domains})
		if err != nil {
			log.Fatal(err)
		}
		res := w.Validation()
		for _, p := range res.Problems {
			log.Printf("validation: %v", p)
		}
		set = res.VRPs
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %d VRPs over RTR on %s (session %d)\n", set.Len(), ln.Addr(), *session)
	srv := rtr.NewServer(set, uint16(*session))
	srv.Logf = log.Printf

	if *metricsAt != "" {
		start := time.Now()
		reg := obs.NewRegistry()
		obs.RegisterBuildInfo(reg)
		reg.GaugeFunc("ripki_rtrd_uptime_seconds", "Seconds since the cache started.",
			func() float64 { return time.Since(start).Seconds() })
		reg.GaugeFunc("ripki_rtrd_serial", "Current RTR serial of the served payload set.",
			func() float64 { return float64(srv.Serial()) })
		vrps := set.Len()
		reg.GaugeFunc("ripki_rtrd_vrps", "VRPs in the served payload set.",
			func() float64 { return float64(vrps) })
		mln, err := obs.StartHTTP(*metricsAt, metricsHandler(reg))
		if err != nil {
			log.Fatal(err)
		}
		defer mln.Close()
		fmt.Printf("metrics on http://%s/metrics\n", mln.Addr())
	}
	if err := srv.Serve(ln); err != nil {
		log.Fatal(err)
	}
}

// metricsHandler is the -metrics listener's surface: reg at GET /metrics.
func metricsHandler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	return mux
}
