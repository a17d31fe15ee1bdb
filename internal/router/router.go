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
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"ripki/internal/bgp"
	"ripki/internal/netutil"
	"ripki/internal/radix"
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
	table  *rib.Table

	mu sync.Mutex
	// adjIn retains every received (non-withdrawn) announcement — the
	// Adj-RIB-In — as one slice per announced prefix, sorted by peer.
	// Policy filters what reaches the local RIB, but revalidation must
	// reconsider everything ever received: a route dropped as Invalid
	// comes back once the offending ROA is revoked, exactly as RFC 6811
	// routers re-apply policy to Adj-RIB-In. Keyed by prefix so that
	// revalidation scoped to a VRP delta finds the affected
	// announcements without scanning all of it: a VRP change at prefix Q
	// can only flip routes announced at Q or below (RFC 6811 consults
	// covering VRPs), and those are exactly the subtree of Q here. A
	// stored slice is never written again (forks share it); a change
	// replaces it.
	adjIn radix.Tree[[]bgp.RouteEvent]
}

// NewWithPolicy creates a router fed by the given VRP source, applying
// the given validation policy.
func NewWithPolicy(source VRPSource, policy Policy) *Router {
	return &Router{Policy: policy, source: source, table: rib.New()}
}

// Fork returns an independent router in the receiver's exact state —
// Adj-RIB-In and local RIB — validating against source from now on, in
// time independent of the table size: both trees are forked
// copy-on-write (radix.Tree.Clone). Nothing either router does
// afterwards is visible in the other. The state forked is only as good
// as the claim that source currently yields the set the receiver last
// validated against; Fork does not revalidate.
func (r *Router) Fork(source VRPSource) *Router {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Router{
		Policy: r.Policy,
		source: source,
		table:  r.table.Clone(),
		adjIn:  *r.adjIn.Clone(),
	}
}

// byPeer orders a prefix's announcements by sending peer.
func byPeer(a, b bgp.RouteEvent) int {
	if c := cmp.Compare(a.PeerAS, b.PeerAS); c != 0 {
		return c
	}
	return a.PeerID.Compare(b.PeerID)
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
	r.mu.Lock()
	r.replaceLocked(ev)
	r.mu.Unlock()
	if ev.Withdraw {
		if err := r.table.Apply(ev); err != nil {
			return Decision{}, err
		}
		return Decision{State: vrp.NotFound}, nil
	}
	set := r.source.Set()
	r.mu.Lock()
	defer r.mu.Unlock()
	d, _, _, err := r.applyLocked(set, ev)
	return d, err
}

// replaceLocked removes the sending peer's previous announcement of
// ev's prefix from the Adj-RIB-In and, unless ev is a withdrawal,
// records ev in its place. Called with r.mu held.
func (r *Router) replaceLocked(ev bgp.RouteEvent) {
	prefix := ev.Prefix.Masked()
	old, _ := r.adjIn.Lookup(prefix)
	i, had := slices.BinarySearchFunc(old, ev, byPeer)
	if !had && ev.Withdraw {
		return
	}
	rest := old[i:]
	if had {
		rest = rest[1:]
	}
	next := make([]bgp.RouteEvent, 0, len(old)+1)
	next = append(next, old[:i]...)
	if !ev.Withdraw {
		next = append(next, ev)
	}
	next = append(next, rest...)
	if len(next) == 0 {
		r.adjIn.Delete(prefix)
	} else {
		// Insert fails only on an invalid prefix, which the local RIB
		// rejects too: Process reports that error.
		_ = r.adjIn.Insert(prefix, next)
	}
}

// applyLocked runs one announcement through origin validation against
// set and then policy: under PolicyDropInvalid an Invalid route leaves
// the local RIB (dropped reports whether it was installed), and anything
// else is installed. flipped reports whether that moved a route into or
// out of the local RIB. When nothing moved nothing was written —
// installing a route the local RIB already holds is rib.Table's no-op —
// so re-applying an unchanged decision allocates nothing and leaves a
// forked router sharing its seed. Process and both revalidation passes
// decide every route here, so they cannot drift apart. Called with r.mu
// held.
func (r *Router) applyLocked(set *vrp.Set, ev bgp.RouteEvent) (d Decision, dropped, flipped bool, err error) {
	d.State = validateRoute(set, ev.Prefix, ev.Path, r.Policy)
	if r.Policy == PolicyDropInvalid && d.State == vrp.Invalid {
		dropped = r.table.WithdrawEvent(ev)
		return d, dropped, dropped, nil
	}
	flipped, err = r.table.AnnounceEvent(ev)
	return d, false, flipped, err
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
// (IPv4 before IPv6, peers ascending within a prefix) — the order the
// Adj-RIB-In tree walks in — so a pass is reproducible run to run.
func (r *Router) Revalidate() RevalidationResult {
	set := r.source.Set()
	r.mu.Lock()
	defer r.mu.Unlock()
	var res RevalidationResult
	r.adjIn.Walk(func(_ netip.Prefix, evs []bgp.RouteEvent) bool {
		r.revalidateLocked(set, evs, &res)
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
	visit := func(_ netip.Prefix, evs []bgp.RouteEvent) bool {
		r.revalidateLocked(set, evs, &res)
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

// revalidateLocked applies set to one prefix's Adj-RIB-In entries and
// adds the outcome to res. Called with r.mu held.
func (r *Router) revalidateLocked(set *vrp.Set, evs []bgp.RouteEvent, res *RevalidationResult) {
	for _, ev := range evs {
		// An entry is in the Adj-RIB-In because Process already applied
		// it, so the only error applyLocked can return — a malformed
		// prefix — was reported then.
		d, dropped, flipped, _ := r.applyLocked(set, ev)
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
