package dns

import "net/netip"

// Result is the outcome of a full web-oriented lookup of one name: all
// terminal addresses plus the CNAME chain traversed.
type Result struct {
	// Name is the queried name (canonical form).
	Name string
	// Addrs are the A and AAAA records reached, in response order.
	Addrs []netip.Addr
	// Chain is the sequence of CNAME targets traversed, in order.
	Chain []string
	// NXDomain is true when the name does not exist.
	NXDomain bool
}

// CNAMECount returns the number of DNS indirections observed — the
// quantity the paper's CDN heuristic thresholds ("two or more CNAMEs").
func (r Result) CNAMECount() int { return len(r.Chain) }

// Lookuper is anything that can perform the combined A+AAAA lookup.
// RegistryResolver is the one the commands use; tests supply others.
type Lookuper interface {
	LookupWeb(name string) (Result, error)
}

// DNSSECChecker reports whether a zone apex publishes a DNSKEY — the
// adoption signal for the RPKI-vs-DNSSEC comparison the paper names as
// future work.
type DNSSECChecker interface {
	HasDNSKEY(name string) (bool, error)
}

// RegistryResolver answers Lookuper and DNSSECChecker from a Registry
// in process, without a wire round trip.
type RegistryResolver struct {
	Registry *Registry
}

// HasDNSKEY checks for a DNSKEY record directly in the registry.
func (rr RegistryResolver) HasDNSKEY(name string) (bool, error) {
	return len(rr.Registry.Lookup(name, TypeDNSKEY)) > 0, nil
}

// LookupWeb resolves name directly against the registry.
func (rr RegistryResolver) LookupWeb(name string) (Result, error) {
	var res Result
	rr.LookupWebInto(&res, name)
	res.Name = CanonicalName(name)
	return res, nil
}

// LookupWebInto is LookupWeb into a Result the caller keeps across
// calls: Addrs and Chain are truncated and refilled, so a worker
// resolving many names allocates only until the two have grown to the
// longest answer it meets. Name is left empty: the caller has it, and
// not retaining it is what lets the caller build names in a buffer it
// reuses. The registry cannot fail, so there is no error.
func (rr RegistryResolver) LookupWebInto(res *Result, name string) {
	rr.Registry.resolveWeb(res, name)
}
