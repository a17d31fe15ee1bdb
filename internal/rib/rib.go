// Package rib implements a BGP Routing Information Base in the style of
// a route collector's view: every peer's path for every prefix.
//
// The measurement pipeline uses it for methodology step (3): "we take
// dumps of the active tables of the RIPE RIS route servers. For each IP
// address of a domain name, we extract all covering prefixes and derive
// the origin AS from the AS path (i.e., the right most ASN in the AS
// path). Entries with an AS_SET are excluded."
package rib

import (
	"cmp"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sync"

	"ripki/internal/bgp"
	"ripki/internal/netutil"
	"ripki/internal/radix"
)

// Route is one peer's path to a prefix.
type Route struct {
	Prefix    netip.Prefix
	PeerIndex uint16
	Path      []bgp.Segment
	NextHop   netip.Addr
}

// Peer is one collector peer, the session its routes were heard on.
type Peer struct {
	BGPID netip.Addr // IPv4 router ID
	Addr  netip.Addr // peer address (IPv4 or IPv6)
	ASN   uint32
}

// PrefixOrigin is the unit of analysis in the paper: a routed prefix
// together with one origin AS observed for it.
type PrefixOrigin struct {
	Prefix netip.Prefix
	Origin uint32
}

// Table is a collector RIB. It is safe for concurrent use.
type Table struct {
	mu      sync.RWMutex
	peers   []Peer
	peerIdx map[peerKey]uint16
	// tree maps each routed prefix to its routes, sorted by peer index.
	// A stored slice is never written again — Insert and Withdraw build
	// the next one and replace it — because after Clone other tables
	// reach the same slice through the nodes they share. Storing a route
	// the table already holds, field for field, builds nothing: the tree
	// is not written, so nothing shared with a clone is copied.
	tree radix.Tree[[]Route]
}

type peerKey struct {
	asn uint32
	id  netip.Addr
}

// New creates an empty table.
func New() *Table {
	return &Table{peerIdx: make(map[peerKey]uint16)}
}

// Clone returns an independent table with the same peers and routes in
// O(peers): the prefix tree is forked copy-on-write (radix.Tree.Clone),
// so the two tables share every route until one of them writes under a
// prefix — storing a route already held is not a write (see Insert) —
// and a write on either is never visible in the other.
func (t *Table) Clone() *Table {
	// The write lock: forking the tree retags the receiver's side too.
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Table{
		peers:   slices.Clip(t.peers),
		peerIdx: maps.Clone(t.peerIdx),
		tree:    *t.tree.Clone(),
	}
}

// AddPeer registers a collector peer and returns its index. Registering
// the same (ASN, BGP ID) again returns the existing index.
func (t *Table) AddPeer(p Peer) uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addPeerLocked(p)
}

func (t *Table) addPeerLocked(p Peer) uint16 {
	k := peerKey{asn: p.ASN, id: p.BGPID}
	if i, ok := t.peerIdx[k]; ok {
		return i
	}
	i := uint16(len(t.peers))
	t.peers = append(t.peers, p)
	t.peerIdx[k] = i
	return i
}

// Peers returns a copy of the registered peer table.
func (t *Table) Peers() []Peer {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return slices.Clone(t.peers)
}

// Len returns the number of distinct prefixes in the table.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tree.Len()
}

// byPeer orders a prefix's routes for binary search.
func byPeer(r Route, peer uint16) int { return cmp.Compare(r.PeerIndex, peer) }

// sameRoute reports whether two routes are equal field for field, the
// path by its contents.
func sameRoute(a, b Route) bool {
	return a.Prefix == b.Prefix && a.PeerIndex == b.PeerIndex && a.NextHop == b.NextHop &&
		slices.EqualFunc(a.Path, b.Path, func(x, y bgp.Segment) bool {
			return x.Type == y.Type && slices.Equal(x.ASNs, y.ASNs)
		})
}

// Insert stores or replaces the route from the given peer and reports
// whether it is new to the table — the peer had none for the prefix —
// as opposed to replacing or matching one. Inserting a route equal,
// field for field, to the one the peer already has there is a no-op:
// nothing is allocated and the tree is not written.
func (t *Table) Insert(r Route) (added bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(r.PeerIndex) >= len(t.peers) {
		return false, fmt.Errorf("rib: unknown peer index %d", r.PeerIndex)
	}
	cp, err := netutil.Canonical(r.Prefix)
	if err != nil {
		return false, fmt.Errorf("rib: %w", err)
	}
	r.Prefix = cp
	old, _ := t.tree.Lookup(cp)
	i, replace := slices.BinarySearchFunc(old, r.PeerIndex, byPeer)
	if replace && sameRoute(old[i], r) {
		return false, nil
	}
	rest := old[i:]
	if replace {
		rest = rest[1:]
	}
	next := make([]Route, 0, i+1+len(rest))
	next = append(append(append(next, old[:i]...), r), rest...)
	return !replace, t.tree.Insert(cp, next)
}

// Withdraw removes the given peer's route for prefix and reports
// whether there was one.
func (t *Table) Withdraw(peer uint16, prefix netip.Prefix) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	cp, err := netutil.Canonical(prefix)
	if err != nil {
		return false
	}
	old, _ := t.tree.Lookup(cp)
	i, ok := slices.BinarySearchFunc(old, peer, byPeer)
	if !ok {
		return false
	}
	if len(old) == 1 {
		t.tree.Delete(cp)
	} else {
		// cp is canonical and already in the tree: Insert cannot fail.
		_ = t.tree.Insert(cp, slices.Delete(slices.Clone(old), i, i+1))
	}
	return true
}

// Covering returns all routed prefixes containing addr, shortest first.
func (t *Table) Covering(addr netip.Addr) []netip.Prefix {
	t.mu.RLock()
	defer t.mu.RUnlock()
	entries := t.tree.Covering(addr, nil)
	out := make([]netip.Prefix, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Prefix)
	}
	return out
}

// Reachable reports whether at least one routed prefix covers addr —
// the paper's "reachable from our BGP vantage points".
func (t *Table) Reachable(addr netip.Addr) bool {
	return len(t.Covering(addr)) > 0
}

// OriginPairs returns every (covering prefix, origin AS) pair for addr,
// deduplicated, with AS_SET-terminated paths excluded, ordered by
// prefix (netutil.ComparePrefixes) and then origin. This is the paper's
// unit of measurement.
func (t *Table) OriginPairs(addr netip.Addr) []PrefixOrigin {
	return t.AppendOriginPairs(nil, addr)
}

// AppendOriginPairs appends OriginPairs(addr) to dst and returns the
// extended slice; what dst already holds is left as it is. A caller
// that looks up many addresses reuses one buffer and allocates nothing
// once it has grown.
func (t *Table) AppendOriginPairs(dst []PrefixOrigin, addr netip.Addr) []PrefixOrigin {
	t.mu.RLock()
	defer t.mu.RUnlock()
	// An address rarely sits under more than a handful of routed
	// prefixes, so the covering entries fit a buffer on the stack.
	var covering [8]radix.Entry[[]Route]
	// Covering yields the prefixes shortest first, which for prefixes
	// containing one address is ComparePrefixes order already; within a
	// prefix the handful of origins are kept sorted as they arrive.
	for _, e := range t.tree.Covering(addr, covering[:0]) {
		first := len(dst)
		for _, r := range e.Value {
			origin, ok := bgp.OriginAS(r.Path)
			if !ok {
				continue // AS_SET or empty path: excluded
			}
			at, dup := slices.BinarySearchFunc(dst[first:], origin,
				func(po PrefixOrigin, o uint32) int { return cmp.Compare(po.Origin, o) })
			if !dup {
				dst = slices.Insert(dst, first+at, PrefixOrigin{Prefix: e.Prefix, Origin: origin})
			}
		}
	}
	return dst
}

// WalkRoutes visits every route, grouped by prefix in lexical order
// (peer indexes ascending within a prefix).
func (t *Table) WalkRoutes(fn func(Route) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.tree.Walk(eachRoute(fn))
}

// WalkSubtree is WalkRoutes restricted to the routes at p and at the
// prefixes p covers.
func (t *Table) WalkSubtree(p netip.Prefix, fn func(Route) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.tree.WalkSubtree(p, eachRoute(fn))
}

// eachRoute adapts a per-route visitor to the tree's per-prefix walk.
func eachRoute(fn func(Route) bool) func(netip.Prefix, []Route) bool {
	return func(_ netip.Prefix, rs []Route) bool {
		for _, r := range rs {
			if !fn(r) {
				return false
			}
		}
		return true
	}
}
