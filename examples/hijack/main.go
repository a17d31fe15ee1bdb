// Hijack demonstrates the paper's §2.3 attacker model end to end, over
// real sockets:
//
//  1. a content owner signs a ROA for its web prefix; the RPKI
//     repository is validated and the resulting VRPs are served by an
//     RTR cache (RFC 6810) over TCP;
//  2. two BGP routers come up, both speaking RFC 4271 to an upstream;
//     one enforces origin validation fed by the RTR session, one does
//     not ("RPKI is not deployed");
//  3. the legitimate origin announces the prefix, then an attacker
//     announces a more-specific hijack of the website's prefix.
//
// The protected router drops the hijack and keeps routing user traffic
// to the real web server; the unprotected router prefers the attacker's
// more-specific route — the YouTube/Pakistan-Telecom scenario the paper
// opens with.
package main

import (
	"fmt"
	"log"
	"net"
	"net/netip"
	"time"

	"ripki/internal/bgp"
	"ripki/internal/netutil"
	"ripki/internal/router"
	"ripki/internal/rpki/cert"
	"ripki/internal/rpki/repo"
	"ripki/internal/rpki/roa"
	"ripki/internal/rtr"
)

const (
	victimAS   = 64500
	attackerAS = 64666
)

func main() {
	log.SetFlags(0)

	victimPrefix := netutil.MustPrefix("203.0.112.0/22")
	hijackPrefix := netutil.MustPrefix("203.0.112.0/24")
	userAddr := netip.MustParseAddr("203.0.112.80") // a visitor hits the website here

	// --- 1. The content owner creates a ROA. ---------------------------
	clock := time.Now().Add(-time.Hour)
	rpki, err := repo.New([]string{"ripe"}, clock, 90*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	owner, err := rpki.NewCA(rpki.Anchor("ripe"), "victim-hosting", cert.Resources{
		Prefixes: []netip.Prefix{victimPrefix},
		ASNs:     []cert.ASRange{{Min: victimAS, Max: victimAS}},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := rpki.AddROAs(owner, []repo.ROASpec{{ASID: victimAS, Prefixes: []roa.Prefix{{Prefix: victimPrefix, MaxLength: victimPrefix.Bits()}}}}); err != nil {
		log.Fatal(err)
	}
	result := rpki.Validate(time.Now())
	fmt.Printf("RPKI: %d ROA validated, %d VRPs\n", result.ROAsValid, result.VRPs.Len())

	// --- 2. Serve the VRPs over RTR; a router client syncs. ------------
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	cache := rtr.NewServer(result.VRPs, 1)
	go cache.Serve(ln)
	defer cache.Close()

	client, err := rtr.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	if err := client.Reset(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RTR: router synced %d VRPs from %s\n", client.Len(), ln.Addr())

	protected := router.NewWithPolicy(client, router.PolicyDropInvalid)
	unprotected := router.NewWithPolicy(router.StaticVRPs{VRPs: result.VRPs}, router.PolicyAcceptAll)

	// --- 3. Announcements arrive. ---------------------------------------
	legitimate := bgp.RouteEvent{
		PeerAS: 3333, PeerID: netip.MustParseAddr("10.0.0.1"),
		Prefix:  victimPrefix,
		Path:    []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: []uint32{3333, victimAS}}},
		NextHop: netip.MustParseAddr("10.0.0.1"),
	}
	hijack := bgp.RouteEvent{
		PeerAS: 3333, PeerID: netip.MustParseAddr("10.0.0.1"),
		Prefix:  hijackPrefix,
		Path:    []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: []uint32{3333, attackerAS}}},
		NextHop: netip.MustParseAddr("10.0.0.66"),
	}
	for _, r := range []*router.Router{protected, unprotected} {
		for _, ev := range []bgp.RouteEvent{legitimate, hijack} {
			d, err := r.Process(ev)
			if err != nil {
				log.Fatal(err)
			}
			// The route is in use when the router now forwards its
			// prefix over it.
			verdict := "accepted"
			if best, _ := r.Forward(ev.Prefix.Addr()); best.Prefix != ev.Prefix {
				verdict = "REJECTED"
			}
			fmt.Printf("%s: %v from AS%d -> %s (%s)\n", r, ev.Prefix, ev.Path[0].ASNs[1], d.State, verdict)
		}
	}

	// Where does user traffic for the website go now?
	show := func(name string, r *router.Router) {
		best, _ := r.Forward(userAddr)
		owner := "the website (AS64500)"
		if best.Origin == attackerAS {
			owner = "THE ATTACKER (AS64666)"
		}
		fmt.Printf("%-22s traffic for %v follows %v and reaches %s\n", name+":", userAddr, best.Prefix, owner)
	}
	fmt.Println()
	show("protected router", protected)
	show("unprotected router", unprotected)
}
