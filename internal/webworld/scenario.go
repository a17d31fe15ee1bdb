package webworld

import (
	"net/netip"

	"ripki/internal/dns"
)

// This file is the scenario surface of a generated world: the accessors
// discrete-event scenarios (internal/sim) use to mutate the ecosystem
// over virtual time — re-point delivery hosts, look up who announces a
// prefix, enumerate the attackable address space — without reaching into
// generation internals.

// HostAddr returns the i-th usable host address inside a prefix, the
// same addressing scheme world generation uses. Scenarios use it to mint
// victim and migration addresses that stay inside an organisation's
// announced space.
func HostAddr(p netip.Prefix, i int) netip.Addr { return hostAddr(p, i) }

// CDNOrg returns the CDN organisation with the given spec name, or nil.
func (w *World) CDNOrg(name string) *Org {
	for _, o := range w.Orgs {
		if o.Kind == KindCDN && o.CDN != nil && o.CDN.Name == name {
			return o
		}
	}
	return nil
}

// PinnedOriginOf returns the AS announcing prefix p in this world, if p
// was announced during generation.
func (w *World) PinnedOriginOf(p netip.Prefix) (uint32, bool) {
	asn, ok := w.pinnedOrigin[p]
	return asn, ok
}

// RoutedV4Prefixes returns every announced IPv4 prefix in deterministic
// (organisation, allocation) order — the candidate pool for ROA churn
// and hijack target selection.
func (w *World) RoutedV4Prefixes() []netip.Prefix {
	var out []netip.Prefix
	for _, o := range w.Orgs {
		for _, p := range o.Prefixes {
			if p.Addr().Is4() {
				out = append(out, p)
			}
		}
	}
	return out
}

// CacheHosts returns the delivery hostnames of the named CDN, sorted:
// every registry owner name under one of the CDN's service suffixes that
// carries an address record. CDN-migration scenarios walk this list and
// re-home each host into another provider's address space. The registry
// is ranged once and only the names under a suffix are sorted and looked
// up, so the cost follows the CDN's few hundred hosts, not the world.
func (w *World) CacheHosts(cdnName string) []string {
	suffixes := w.CDNSuffixes[cdnName]
	if len(suffixes) == 0 {
		return nil
	}
	var out []string
	for _, name := range w.Registry.NamesUnder(suffixes...) {
		if len(w.Registry.Lookup(name, dns.TypeA)) > 0 {
			out = append(out, name)
		}
	}
	return out
}
