package dns

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// maxChase bounds CNAME chain length, defending against loops. Real
// resolvers use similar limits.
const maxChase = 16

// Registry is an in-memory DNS database: the union of all zones the
// synthetic world publishes. It acts as the backing store for
// authoritative servers and supports in-process resolution through the
// same CNAME-chasing logic the wire path uses.
type Registry struct {
	mu      sync.RWMutex
	records map[string][]RR // canonical name → records
	// shared is set while another registry may alias records (see
	// Clone): nobody writes an aliased map, the first writer copies it.
	shared bool
	hook   func(name string)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{records: make(map[string][]RR)}
}

// NewRegistrySized creates an empty registry with space for about n
// owner names, so web-scale worlds (a million domains, two-plus names
// each) fill it without rehashing the map a dozen times.
func NewRegistrySized(n int) *Registry {
	return &Registry{records: make(map[string][]RR, n)}
}

// SetMutationHook registers fn to observe every record mutation (nil
// disables it). It is called with the canonical owner name after the
// mutation, outside the registry lock; a batched insert invokes it once
// per record. Clones do not inherit the hook. Incremental measurement
// uses it to mark the domains whose resolution touched a changed name
// as dirty.
func (r *Registry) SetMutationHook(fn func(name string)) {
	r.mu.Lock()
	r.hook = fn
	r.mu.Unlock()
}

// Add inserts a record. The owner name is canonicalised.
func (r *Registry) Add(rr RR) {
	rr.Name = CanonicalName(rr.Name)
	if rr.Type == TypeCNAME || rr.Type == TypeNS {
		rr.Target = CanonicalName(rr.Target)
	}
	if rr.Class == 0 {
		rr.Class = ClassINET
	}
	r.mu.Lock()
	r.ownLocked()
	r.records[rr.Name] = append(r.records[rr.Name], rr)
	hook := r.hook
	r.mu.Unlock()
	if hook != nil {
		hook(rr.Name)
	}
}

// AddBatch inserts many records under one lock acquisition, preserving
// slice order. It is the bulk path for sharded world generation, where
// each shard accumulates its records and replays them in rank order.
func (r *Registry) AddBatch(rrs []RR) {
	r.mu.Lock()
	r.ownLocked()
	names := make([]string, 0, len(rrs))
	for _, rr := range rrs {
		rr.Name = CanonicalName(rr.Name)
		if rr.Type == TypeCNAME || rr.Type == TypeNS {
			rr.Target = CanonicalName(rr.Target)
		}
		if rr.Class == 0 {
			rr.Class = ClassINET
		}
		r.records[rr.Name] = append(r.records[rr.Name], rr)
		names = append(names, rr.Name)
	}
	hook := r.hook
	r.mu.Unlock()
	if hook != nil {
		for _, n := range names {
			hook(n)
		}
	}
}

// Clone returns a registry that resolves identically to its source and
// can be mutated independently of it, in O(1): the two share the record
// map until either side's first Add, AddBatch or Remove, which deep-
// copies it (owner names and per-name record order preserved) before
// writing. Shared-world simulations clone the registry per run — it is
// the only part of a generated world that scenarios mutate, and most
// scenarios never do, so most clones never pay for a copy. The hook is
// not inherited. Clone is safe to call concurrently with anything.
func (r *Registry) Clone() *Registry {
	// The write lock, because the source is marked too: its next write
	// must leave the map its clones still read alone.
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shared = true
	return &Registry{records: r.records, shared: true}
}

// ownLocked gives the registry a record map of its own before a write.
// Every per-name slice is copied too: Remove filters them in place.
// Called with r.mu held for writing.
func (r *Registry) ownLocked() {
	if !r.shared {
		return
	}
	own := make(map[string][]RR, len(r.records))
	for name, rrs := range r.records {
		own[name] = slices.Clone(rrs)
	}
	r.records, r.shared = own, false
}

// AddCNAME is shorthand for a CNAME record.
func (r *Registry) AddCNAME(name, target string, ttl uint32) {
	r.Add(RR{Name: name, Type: TypeCNAME, TTL: ttl, Target: target})
}

// Remove deletes every record of the given type at name and reports how
// many were removed. It exists for time-evolving worlds (simulation
// scenarios re-point cache hosts and delivery chains); pass e.g. TypeA
// then Add the replacements.
func (r *Registry) Remove(name string, typ uint16) int {
	name = CanonicalName(name)
	r.mu.Lock()
	r.ownLocked()
	rrs := r.records[name]
	kept := rrs[:0]
	removed := 0
	for _, rr := range rrs {
		if rr.Type == typ {
			removed++
			continue
		}
		kept = append(kept, rr)
	}
	if len(kept) == 0 {
		delete(r.records, name)
	} else {
		r.records[name] = kept
	}
	hook := r.hook
	r.mu.Unlock()
	if removed > 0 && hook != nil {
		hook(name)
	}
	return removed
}

// Lookup returns the records of the given type at exactly name
// (no CNAME chasing).
func (r *Registry) Lookup(name string, typ uint16) []RR {
	name = CanonicalName(name)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []RR
	for _, rr := range r.records[name] {
		if rr.Type == typ {
			out = append(out, rr)
		}
	}
	return out
}

// Exists reports whether any record exists at name.
func (r *Registry) Exists(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.records[CanonicalName(name)]) > 0
}

// Len returns the number of owner names with records.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.records)
}

// Names returns all owner names in sorted order (for dumps).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.records))
	for n := range r.records {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Resolve answers a query the way a recursive resolver would: it chases
// CNAMEs (appending each to the answer section, as real resolvers do)
// and returns the terminal records of the requested type. rcode is
// RCodeNameError when the name does not exist at all, RCodeSuccess
// otherwise (possibly with an empty answer — NODATA).
func (r *Registry) Resolve(name string, typ uint16) (answers []RR, rcode uint8) {
	name = CanonicalName(name)
	r.mu.RLock()
	defer r.mu.RUnlock()
	cur := name
	for i := 0; i < maxChase; i++ {
		rrs := r.records[cur]
		if len(rrs) == 0 {
			if cur == name && len(answers) == 0 {
				return nil, RCodeNameError
			}
			// Dangling CNAME: the chain exists but the target does not.
			return answers, RCodeSuccess
		}
		// Exact-type matches first.
		matched := false
		for _, rr := range rrs {
			if rr.Type == typ {
				answers = append(answers, rr)
				matched = true
			}
		}
		if matched || typ == TypeCNAME {
			return answers, RCodeSuccess
		}
		// Chase a CNAME if present.
		var cname *RR
		for i := range rrs {
			if rrs[i].Type == TypeCNAME {
				cname = &rrs[i]
				break
			}
		}
		if cname == nil {
			return answers, RCodeSuccess // NODATA
		}
		answers = append(answers, *cname)
		cur = cname.Target
	}
	// Chain too long or looping: answer what was collected.
	return answers, RCodeSuccess
}

// resolveWeb is the combined A + AAAA lookup of name — exactly what
// lookupWeb makes of Resolve(name, TypeA) then Resolve(name, TypeAAAA) —
// as one walk under one read lock. res is reset first, keeping the
// arrays behind Addrs and Chain to append into. Both queries follow the
// same CNAMEs from name and each stops at the first owner holding its
// type, so the walk goes on until both have, and the CNAMEs it crossed
// are the longer of the two chains. Chain strings are the registry's
// own; name is not retained.
func (r *Registry) resolveWeb(res *Result, name string) {
	*res = Result{Addrs: res.Addrs[:0], Chain: res.Chain[:0]}
	r.mu.RLock()
	defer r.mu.RUnlock()
	// The A answers come first whichever query ended first, so where the
	// AAAA query ended is only noted until the walk is over.
	var aaaaAt []RR
	needA, needAAAA := true, true
	cur := CanonicalName(name)
	for i := 0; i < maxChase; i++ {
		rrs := r.records[cur]
		if len(rrs) == 0 {
			// The queried name itself is missing (NXDOMAIN), or a CNAME
			// dangles: the chain exists but its target does not.
			res.NXDomain = i == 0
			break
		}
		cname := -1
		hasA, hasAAAA := false, false
		for j := range rrs {
			switch rrs[j].Type {
			case TypeA:
				hasA = true
				if needA {
					res.Addrs = append(res.Addrs, rrs[j].Addr)
				}
			case TypeAAAA:
				hasAAAA = true
			case TypeCNAME:
				if cname < 0 {
					cname = j
				}
			}
		}
		needA = needA && !hasA
		if needAAAA && hasAAAA {
			needAAAA, aaaaAt = false, rrs
		}
		if cname < 0 || !(needA || needAAAA) {
			break // NODATA for whatever is still wanted, or nothing is
		}
		res.Chain = append(res.Chain, rrs[cname].Target)
		cur = rrs[cname].Target
	}
	for j := range aaaaAt {
		if aaaaAt[j].Type == TypeAAAA {
			res.Addrs = append(res.Addrs, aaaaAt[j].Addr)
		}
	}
}

// Handler answers DNS queries; both the in-process path and the UDP
// server use it.
type Handler interface {
	// Query answers a single question.
	Query(q Question) (answers []RR, rcode uint8)
}

// Query implements Handler directly on the registry.
func (r *Registry) Query(q Question) ([]RR, uint8) {
	if q.Class != ClassINET && q.Class != 0 {
		return nil, RCodeRefused
	}
	switch q.Type {
	case TypeA, TypeAAAA, TypeCNAME, TypeNS, TypeSOA, TypeTXT, TypeDNSKEY:
		return r.Resolve(q.Name, q.Type)
	default:
		return nil, RCodeNotImplemented
	}
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(q Question) ([]RR, uint8)

// Query calls f.
func (f HandlerFunc) Query(q Question) ([]RR, uint8) { return f(q) }

// String summarises the registry.
func (r *Registry) String() string {
	return fmt.Sprintf("dns.Registry(%d names)", r.Len())
}
