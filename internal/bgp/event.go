package bgp

import "net/netip"

// RouteEvent is one announcement or withdrawal received by a collector,
// flattened to the granularity the RIB consumes.
type RouteEvent struct {
	// Peer identifies the session that delivered the route.
	PeerAS uint32
	PeerID netip.Addr
	// Prefix is the affected route.
	Prefix netip.Prefix
	// Withdraw is true for withdrawals; Path and NextHop are then empty.
	Withdraw bool
	// Path is the AS_PATH as received.
	Path []Segment
	// NextHop is the protocol next hop (IPv4 or IPv6).
	NextHop netip.Addr
}
