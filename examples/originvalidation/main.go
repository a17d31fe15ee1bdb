// Origin validation walks the full relying-party chain, the way a
// network operator would deploy it, with the VRPs carried over a real
// RTR session:
//
//	RPKI repository ──validate──▶ VRPs ──RTR/TCP──▶ router
//	                                                  │
//	web visitor ──▶ resolver ──▶ IP ──────────────────┴─▶ valid/invalid/not found
//
// A synthetic world provides the repository, the zones, and the routing
// table. The names resolve in process against the world's zones, as the
// commands resolve them (ripki-dnsd serves the same zones over UDP);
// the RTR wire format and RFC 6811 validation are the real protocol
// machinery.
//
//	go run ./examples/originvalidation
package main

import (
	"fmt"
	"log"
	"net"

	"ripki/internal/dns"
	"ripki/internal/rpki/vrp"
	"ripki/internal/rtr"
	"ripki/internal/webworld"
)

func main() {
	log.SetFlags(0)

	world, err := webworld.Generate(webworld.Config{Seed: 11, Domains: 8000})
	if err != nil {
		log.Fatal(err)
	}

	// Relying party: validate the repository, serve VRPs over RTR.
	result := world.Repo.Validate(world.MeasureTime())
	fmt.Printf("relying party: %d/%d ROAs valid -> %d VRPs\n",
		result.ROAsValid, result.ROAsSeen, result.VRPs.Len())
	rtrLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	cache := rtr.NewServer(result.VRPs, 7)
	go cache.Serve(rtrLn)
	defer cache.Close()

	// Router: sync the full VRP set over the wire.
	rc, err := rtr.Dial(rtrLn.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer rc.Close()
	if err := rc.Reset(); err != nil {
		log.Fatal(err)
	}
	vrps := rc.Set()
	fmt.Printf("router: synced %d VRPs over RTR from %s\n", vrps.Len(), rtrLn.Addr())

	// Resolver: the world's zones, in process.
	resolver := dns.RegistryResolver{Registry: world.Registry}

	// Validate the web presence of a handful of domains through the
	// whole chain.
	for _, e := range world.List.Entries()[:8] {
		for _, name := range []string{"www." + e.Domain, e.Domain} {
			res, err := resolver.LookupWeb(name)
			if err != nil {
				log.Fatal(err)
			}
			if res.NXDomain || len(res.Addrs) == 0 {
				continue
			}
			a := res.Addrs[0]
			pairs := world.RIB.OriginPairs(a)
			if len(pairs) == 0 {
				fmt.Printf("%-34s %-16v (unreachable from vantage)\n", name, a)
				continue
			}
			for _, po := range pairs {
				state := vrps.Validate(po.Prefix, po.Origin)
				marker := map[vrp.State]string{
					vrp.Valid: "✔", vrp.Invalid: "✘", vrp.NotFound: "·",
				}[state]
				fmt.Printf("%-34s %-16v %-18v AS%-7d %s %s\n",
					name, a, po.Prefix, po.Origin, marker, state)
			}
		}
	}
}
