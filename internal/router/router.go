// Package router implements an RPKI-enabled BGP router's decision
// process: prefix origin validation applied as route policy (RFC 6811 +
// the RFC 7115 guidance of rejecting invalid routes).
//
// The paper's attacker model (§2.3) is a malicious BGP speaker
// advertising a website's prefix to blackhole or intercept its traffic.
// "Rejecting an invalid route announcement helps to suppress incorrectly
// announced prefixes, thus preventing route hijacking of websites" —
// this package is where that rejection happens in the reproduction.
package router

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"ripki/internal/bgp"
	"ripki/internal/netutil"
	"ripki/internal/rib"
	"ripki/internal/rpki/vrp"
)

// Policy selects how origin validation influences route handling
// (RFC 7115 discusses both).
type Policy uint8

const (
	// PolicyAcceptAll ignores validation outcomes — the unprotected
	// configuration most networks ran in 2015.
	PolicyAcceptAll Policy = iota
	// PolicyDropInvalid rejects invalid routes outright.
	PolicyDropInvalid
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyAcceptAll:
		return "accept-all"
	case PolicyDropInvalid:
		return "drop-invalid"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Decision is the policy outcome for one route. Whether the route was
// installed shows in the router's forwarding (Forward).
type Decision struct {
	// State is the origin-validation outcome.
	State vrp.State
}

// VRPSource yields the current validated payload set; StaticVRPs and
// the RTR client both satisfy it.
type VRPSource interface {
	Set() *vrp.Set
}

// StaticVRPs adapts a fixed set to VRPSource.
type StaticVRPs struct{ VRPs *vrp.Set }

// Set returns the fixed set.
func (s StaticVRPs) Set() *vrp.Set { return s.VRPs }

// Router is an origin-validating BGP route processor feeding a local
// RIB.
type Router struct {
	// Policy selects the validation stance.
	Policy Policy

	source VRPSource

	mu sync.Mutex
	// adjIn retains every received (non-withdrawn) announcement — the
	// Adj-RIB-In. Policy filters what reaches the local RIB, but
	// revalidation must reconsider everything ever received: a route
	// dropped as Invalid comes back once the offending ROA is revoked,
	// exactly as RFC 6811 routers re-apply policy to Adj-RIB-In. Its
	// tree is keyed by prefix so that revalidation scoped to a VRP delta
	// finds the affected announcements without scanning all of it: a
	// VRP change at prefix Q can only flip routes announced at Q or
	// below (RFC 6811 consults covering VRPs), and those are exactly the
	// subtree of Q here. Within a prefix the routes are ordered by peer
	// index, the order in which the table first met its peers.
	adjIn *rib.Table
	// table is the local RIB: the Adj-RIB-In's routes that policy
	// accepts. It numbers its peers as adjIn does — every peer is
	// registered in both, in the same order — so a route moves from one
	// to the other as it is.
	table *rib.Table
}

// NewWithPolicy creates a router fed by the given VRP source, applying
// the given validation policy.
func NewWithPolicy(source VRPSource, policy Policy) *Router {
	return &Router{Policy: policy, source: source, adjIn: rib.New(), table: rib.New()}
}

// NewFromTable returns the router NewWithPolicy returns once it has
// processed every route of table. The Adj-RIB-In is a copy-on-write
// clone of table, and so is the local RIB, from which the routes
// rejected against the source's current set are withdrawn: a seed costs
// a walk and a validation per route, and writes — allocates — only for
// the rejected ones. Peers keep table's numbering. Nothing written to
// table afterwards reaches the router, nor the other way round.
func NewFromTable(table *rib.Table, source VRPSource, policy Policy) *Router {
	r := &Router{Policy: policy, source: source, adjIn: table.Clone(), table: table.Clone()}
	if policy == PolicyDropInvalid {
		set := source.Set()
		r.adjIn.WalkRoutes(func(rt rib.Route) bool {
			if validateRoute(set, rt.Prefix, rt.Path, policy) == vrp.Invalid {
				r.table.Withdraw(rt.PeerIndex, rt.Prefix)
			}
			return true
		})
	}
	return r
}

// Fork returns an independent router in the receiver's exact state —
// Adj-RIB-In and local RIB — validating against source from now on, in
// time independent of the table size: both tables are cloned
// copy-on-write (rib.Table.Clone). Nothing either router does
// afterwards is visible in the other. The state forked is only as good
// as the claim that source currently yields the set the receiver last
// validated against; Fork does not revalidate.
func (r *Router) Fork(source VRPSource) *Router {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Router{
		Policy: r.Policy,
		source: source,
		adjIn:  r.adjIn.Clone(),
		table:  r.table.Clone(),
	}
}

// validateRoute classifies one announcement against a VRP set under a
// policy. AS_SET paths cannot be validated; deployed policy treats them
// as invalid (their use is deprecated for exactly this reason).
func validateRoute(set *vrp.Set, prefix netip.Prefix, path []bgp.Segment, policy Policy) vrp.State {
	if origin, ok := bgp.OriginAS(path); ok {
		return set.Validate(prefix, origin)
	}
	if policy != PolicyAcceptAll {
		return vrp.Invalid
	}
	return vrp.NotFound
}

// Process applies origin validation and policy to one route event and
// updates the Adj-RIB-In and the local RIB accordingly. An announcement
// replaces the same peer's previous one for the prefix (RFC 4271
// implicit withdraw), whatever policy then decides about the new route.
func (r *Router) Process(ev bgp.RouteEvent) (Decision, error) {
	var set *vrp.Set
	if !ev.Withdraw {
		set = r.source.Set()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	peer := rib.Peer{BGPID: ev.PeerID, Addr: ev.PeerID, ASN: ev.PeerAS}
	idx := r.adjIn.AddPeer(peer)
	r.table.AddPeer(peer)
	if ev.Withdraw {
		r.adjIn.Withdraw(idx, ev.Prefix)
		r.table.Withdraw(idx, ev.Prefix)
		return Decision{State: vrp.NotFound}, nil
	}
	rt := rib.Route{Prefix: ev.Prefix.Masked(), PeerIndex: idx, Path: ev.Path, NextHop: ev.NextHop}
	if _, err := r.adjIn.Insert(rt); err != nil {
		return Decision{}, err
	}
	d, _, _ := r.applyLocked(set, rt)
	return d, nil
}

// applyLocked runs one Adj-RIB-In route through origin validation
// against set and then policy: under PolicyDropInvalid an Invalid route
// leaves the local RIB (dropped reports whether it was installed), and
// anything else is installed. flipped reports whether that moved a route
// into or out of the local RIB. When nothing moved nothing was written —
// installing a route the local RIB already holds is rib.Table's no-op —
// so re-applying an unchanged decision allocates nothing and leaves a
// forked router sharing its seed. Process and both revalidation passes
// decide every route here, so they cannot drift apart. The route is one
// the Adj-RIB-In holds, so the local RIB knows its peer and its prefix
// is canonical: the install cannot fail. Called with r.mu held.
func (r *Router) applyLocked(set *vrp.Set, rt rib.Route) (d Decision, dropped, flipped bool) {
	d.State = validateRoute(set, rt.Prefix, rt.Path, r.Policy)
	if r.Policy == PolicyDropInvalid && d.State == vrp.Invalid {
		dropped = r.table.Withdraw(rt.PeerIndex, rt.Prefix)
		return d, dropped, dropped
	}
	flipped, _ = r.table.Insert(rt)
	return d, false, flipped
}

// RevalidationResult tallies one Revalidate pass.
type RevalidationResult struct {
	// Routes is the number of routes examined.
	Routes int
	// Valid/Invalid/NotFound count the fresh validation outcomes.
	Valid, Invalid, NotFound int
	// Dropped is how many now-invalid routes PolicyDropInvalid removed
	// from the local RIB.
	Dropped int
	// Flipped is how many of the routes examined the pass dropped from
	// the local RIB or installed back into it. Routes - Flipped
	// re-applications found their decision standing and wrote nothing.
	Flipped int
}

// Revalidate re-applies origin validation and policy to every route in
// the Adj-RIB-In against the source's *current* VRP set. Real routers
// do this whenever their RTR cache delivers new payloads: a route
// accepted as NotFound yesterday may be Invalid today (a ROA was
// issued — the hijack-window case), and a route dropped as Invalid
// comes back once the offending ROA is revoked. Under PolicyDropInvalid
// now-invalid routes are withdrawn from the local RIB and everything
// else is installed. Routes are reconsidered in prefix order
// (IPv4 before IPv6; within a prefix, in the order the Adj-RIB-In first
// met their peers) — the order the Adj-RIB-In walks in — so a pass is
// reproducible run to run.
func (r *Router) Revalidate() RevalidationResult {
	set := r.source.Set()
	r.mu.Lock()
	defer r.mu.Unlock()
	var res RevalidationResult
	r.adjIn.WalkRoutes(func(rt rib.Route) bool {
		r.revalidateLocked(set, rt, &res)
		return true
	})
	return res
}

// RevalidateAffected is Revalidate scoped to the Adj-RIB-In routes
// whose validation outcome may have changed after a VRP delta: those
// announced at one of the changed prefixes or below (RFC 6811 validates
// a route against its covering VRPs, so a VRP change at Q can only flip
// routes at Q or more-specific). Unaffected routes cannot change state
// and are left untouched, so the router ends up exactly where a full
// Revalidate would put it; the per-state tallies cover only the routes
// examined, each once however the changed prefixes nest or repeat.
//
// The affected subtrees are walked in place and a route whose decision
// stands is not written (see applyLocked), so a pass that flips nothing
// costs a tree walk and a validation per route and allocates nothing.
// That holds when changed is canonical and in netutil.ComparePrefixes
// order — what rtr.Client.TakeDelta returns — where a prefix nested
// under an earlier one directly follows that one's subtree and is
// skipped by looking back one step. Any other input is masked and
// sorted into a copy first.
func (r *Router) RevalidateAffected(changed []netip.Prefix) RevalidationResult {
	if !inWalkOrder(changed) {
		changed = slices.Clone(changed)
		for i, p := range changed {
			changed[i] = p.Masked()
		}
		slices.SortFunc(changed, netutil.ComparePrefixes)
	}
	set := r.source.Set()
	r.mu.Lock()
	defer r.mu.Unlock()
	var res RevalidationResult
	visit := func(rt rib.Route) bool {
		r.revalidateLocked(set, rt, &res)
		return true
	}
	var walked netip.Prefix // the last prefix whose subtree was walked
	for _, p := range changed {
		if netutil.Covers(walked, p) {
			continue
		}
		walked = p
		r.adjIn.WalkSubtree(p, visit)
	}
	return res
}

// inWalkOrder reports whether every prefix is canonical and the slice
// ascends in netutil.ComparePrefixes order.
func inWalkOrder(ps []netip.Prefix) bool {
	for i, p := range ps {
		if p != p.Masked() || i > 0 && netutil.ComparePrefixes(ps[i-1], p) > 0 {
			return false
		}
	}
	return true
}

// revalidateLocked applies set to one Adj-RIB-In route and adds the
// outcome to res. Called with r.mu held.
func (r *Router) revalidateLocked(set *vrp.Set, rt rib.Route, res *RevalidationResult) {
	d, dropped, flipped := r.applyLocked(set, rt)
	res.Routes++
	switch d.State {
	case vrp.Valid:
		res.Valid++
	case vrp.Invalid:
		res.Invalid++
	default:
		res.NotFound++
	}
	if dropped {
		res.Dropped++
	}
	if flipped {
		res.Flipped++
	}
}

// Forward resolves where traffic to addr goes: the local RIB's longest
// matching (prefix, origin), the highest origin among a MOAS prefix's.
// ok is false when the address is unrouted.
func (r *Router) Forward(addr netip.Addr) (rib.PrefixOrigin, bool) {
	pairs := r.table.OriginPairs(addr)
	if len(pairs) == 0 {
		return rib.PrefixOrigin{}, false
	}
	return pairs[len(pairs)-1], true
}

// String summarises the router.
func (r *Router) String() string {
	return fmt.Sprintf("router(%s, %d prefixes)", r.Policy, r.table.Len())
}
