//go:build linux

package main

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"ripki/internal/alexa"
	"ripki/internal/bgp"
	"ripki/internal/dns"
	"ripki/internal/measure"
	"ripki/internal/rib"
	"ripki/internal/router"
	"ripki/internal/rpki/vrp"
	"ripki/internal/rtr"
	"ripki/internal/webworld"
)

// rtrCache hosts an RTR cache on loopback, as sim.New and serve-churn's
// bench-side cache both do.
type rtrCache struct {
	*rtr.Server
	addr string
	done chan struct{}
}

func startRTRCache(set *vrp.Set, session uint16) (*rtrCache, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &rtrCache{Server: rtr.NewServer(set, session), addr: ln.Addr().String(), done: make(chan struct{})}
	c.Logf = func(string, ...any) {} // connection teardown noise
	go func() {
		defer close(c.done)
		c.Serve(ln)
	}()
	return c, nil
}

// stop closes the cache and waits for its accept loop to end.
func (c *rtrCache) stop() {
	c.Close()
	<-c.done
}

// timeN returns the mean duration of n calls of fn.
func timeN(n int, fn func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(t0) / time.Duration(n)
}

// resetTime is the mean time of Dial + Client.Reset against a cache
// serving set: the full-sync cost at that VRP count.
func resetTime(set *vrp.Set, n int) (time.Duration, error) {
	cache, err := startRTRCache(set, 1)
	if err != nil {
		return 0, err
	}
	defer cache.stop()
	var firstErr error
	d := timeN(n, func() {
		client, err := rtr.Dial(cache.addr)
		if err == nil {
			err = client.Reset()
			client.Close()
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return d, firstErr
}

// layerTimings times, on one generated world, the layers that sit below
// sim.New and sim.Step and cannot be told apart from outside those
// calls: each is called through its public functions, alone.
func layerTimings(w *webworld.World, m map[string]float64) error {
	set := w.Validation().VRPs

	m["dns.registry_clone_ms"] = ms(timeN(5, func() { w.Registry.Clone() }))

	d, err := resetTime(set, 5)
	if err != nil {
		return fmt.Errorf("rtr.reset: %w", err)
	}
	m["rtr.reset_ms"] = ms(d)

	// router.seed: the world's routing table replayed through one
	// validating router, as sim.New does per relying party.
	peers := w.RIB.Peers()
	var prefixes []netip.Prefix
	w.RIB.WalkRoutes(func(r rib.Route) bool {
		prefixes = append(prefixes, r.Prefix)
		return true
	})
	var rt *router.Router
	var seedErr error
	m["router.seed_ms"] = ms(timeN(3, func() {
		rt = router.NewWithPolicy(router.StaticVRPs{VRPs: set}, router.PolicyDropInvalid)
		w.RIB.WalkRoutes(func(r rib.Route) bool {
			_, seedErr = rt.Process(bgp.RouteEvent{
				PeerAS: peers[r.PeerIndex].ASN, PeerID: peers[r.PeerIndex].BGPID,
				Prefix: r.Prefix, Path: r.Path, NextHop: r.NextHop,
			})
			return seedErr == nil
		})
	}))
	if seedErr != nil {
		return fmt.Errorf("router.seed: %w", seedErr)
	}
	m["rib.routes"] = float64(len(prefixes))

	// router.revalidate_affected: one changed prefix at a time.
	i := 0
	m["router.revalidate_affected_us"] = us(timeN(2000, func() {
		rt.RevalidateAffected([]netip.Prefix{prefixes[i%len(prefixes)]})
		i++
	}))

	// rtr.delta_poll: one VRP announced or withdrawn, then polled.
	cache, err := startRTRCache(set, 2)
	if err != nil {
		return err
	}
	defer cache.stop()
	client, err := rtr.Dial(cache.addr)
	if err != nil {
		return err
	}
	defer client.Close()
	if err := client.Reset(); err != nil {
		return err
	}
	extra := vrp.VRP{Prefix: netip.MustParsePrefix("198.51.100.0/24"), MaxLength: 24, ASN: 64999}
	var pollErr error
	i = 0
	m["rtr.delta_poll_us"] = us(timeN(400, func() {
		if i%2 == 0 {
			cache.UpdateDelta([]vrp.VRP{extra}, nil)
		} else {
			cache.UpdateDelta(nil, []vrp.VRP{extra})
		}
		i++
		if err := client.Poll(); err != nil && pollErr == nil {
			pollErr = err
		}
	}))
	if pollErr != nil {
		return fmt.Errorf("rtr.delta_poll: %w", pollErr)
	}

	// measure: the probe's incremental dataset over the sim's default
	// 1 500-domain sample, then one dirty prefix per refresh.
	entries := w.List.Entries()
	list := alexa.FromEntries(entries[:min(1500, len(entries))])
	cfg := measure.Config{
		Resolver: dns.RegistryResolver{Registry: w.Registry},
		RIB:      w.RIB, VRPs: set, BinWidth: max(1, len(entries)/10),
	}
	var inc *measure.Incremental
	var incErr error
	m["measure.new_incremental_ms"] = ms(timeN(3, func() { inc, incErr = measure.NewIncremental(list, cfg) }))
	if incErr != nil {
		return fmt.Errorf("measure.new_incremental: %w", incErr)
	}
	i = 0
	m["measure.refresh_us"] = us(timeN(1000, func() {
		inc.DirtyVRP(prefixes[i%len(prefixes)])
		if err := inc.Refresh(); err != nil && incErr == nil {
			incErr = err
		}
		i++
	}))
	if incErr != nil {
		return fmt.Errorf("measure.refresh: %w", incErr)
	}
	return nil
}
