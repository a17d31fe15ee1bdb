package dns

import (
	"fmt"
	"slices"
	"sort"
	"strings"
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
	// shared is set once another registry may alias records (see Clone),
	// and stays set: nobody writes an aliased map or a slice in it ever
	// again. A shared registry writes into over instead — its own version
	// of every owner name it has written, an empty slice where it removed
	// the last record — and reads over before records. added is how many
	// owner names over adds to records, less how many it empties.
	shared bool
	over   map[string][]RR
	added  int
	hook   func(name string)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return NewRegistrySized(0) }

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

// canonicalise puts a record in the form the registry stores.
func canonicalise(rr *RR) {
	rr.Name = CanonicalName(rr.Name)
	if rr.Type == TypeCNAME || rr.Type == TypeNS {
		rr.Target = CanonicalName(rr.Target)
	}
	if rr.Class == 0 {
		rr.Class = ClassINET
	}
}

// Add inserts a record. The owner name is canonicalised.
func (r *Registry) Add(rr RR) {
	canonicalise(&rr)
	r.mu.Lock()
	r.put(rr.Name, append(r.own(rr.Name), rr))
	hook := r.hook
	r.mu.Unlock()
	if hook != nil {
		hook(rr.Name)
	}
}

// AddBatch inserts many records under one lock acquisition, preserving
// slice order, and takes ownership of rrs: the records are canonicalised
// in place and the caller must not touch the slice again. It is the bulk
// path for sharded world generation, which emits each owner's records
// side by side: a maximal run of one owner the registry does not hold is
// adopted, not copied — its records become the window rrs[i:j:j] (an
// append reallocates), and rrs lives while any window into it does. A
// run whose owner holds records, or any run into a registry that shares
// its map (see Clone), is appended as by Add.
func (r *Registry) AddBatch(rrs []RR) {
	r.mu.Lock()
	hook := r.hook
	var names []string // per record, for the hook
	for i := range rrs {
		canonicalise(&rrs[i])
		if hook != nil {
			names = append(names, rrs[i].Name)
		}
	}
	for i, j := 0, 0; i < len(rrs); i = j {
		name := rrs[i].Name
		for j = i + 1; j < len(rrs) && rrs[j].Name == name; j++ {
		}
		if r.shared || len(r.records[name]) > 0 {
			r.put(name, append(r.own(name), rrs[i:j]...))
		} else {
			r.records[name] = rrs[i:j:j]
		}
	}
	r.mu.Unlock()
	for _, n := range names {
		hook(n)
	}
}

// Clone returns a registry that resolves identically to its source and
// can be mutated independently of it, in time proportional to what the
// source has written since it was itself cloned — O(1) for a source that
// has not. From then on both sides alias the record map for ever and
// neither writes it: a write on either side copies the records of the
// one owner name it touches into that side's overlay and lands there, so
// a run that re-points a few hundred hosts of a 60 000-name world pays
// for a few hundred names. Reads consult the overlay first and cost one
// map lookup while it is empty; Len, Names and the zone dump merge the
// two. Shared-world simulations clone the registry per run — it is the
// only part of a generated world that scenarios mutate. The hook is not
// inherited. Clone is safe to call concurrently with anything.
func (r *Registry) Clone() *Registry {
	// The write lock, because the source is marked too: its next write
	// must leave the map its clones still read alone.
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shared = true
	c := &Registry{records: r.records, shared: true, added: r.added}
	if len(r.over) > 0 {
		// Add appends to and Remove filters an overlay slice in place.
		c.over = make(map[string][]RR, len(r.over))
		for name, rrs := range r.over {
			c.over[name] = slices.Clone(rrs)
		}
	}
	return c
}

// Written reports whether the registry has diverged from the record map
// it shares with its clone family: false for a clone until its first
// write, and for a registry nothing was ever cloned from (it shares
// nothing and writes in place). What was derived from one unwritten
// member of a family holds for every other.
func (r *Registry) Written() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.over) > 0
}

// at returns name's records: this registry's own version if it wrote the
// name, the shared map's otherwise. Called with r.mu held.
func (r *Registry) at(name string) []RR {
	if len(r.over) > 0 {
		if rrs, ok := r.over[name]; ok {
			return rrs
		}
	}
	return r.records[name]
}

// own returns name's records as a slice the caller may append to or
// filter in place and must hand back to put. Called with r.mu held for
// writing.
func (r *Registry) own(name string) []RR {
	if !r.shared {
		return r.records[name]
	}
	if rrs, ok := r.over[name]; ok {
		return rrs
	}
	return slices.Clone(r.records[name])
}

// put stores rrs, possibly empty, as name's records. Called with r.mu
// held for writing.
func (r *Registry) put(name string, rrs []RR) {
	if !r.shared {
		if len(rrs) == 0 {
			delete(r.records, name)
		} else {
			r.records[name] = rrs
		}
		return
	}
	if had := len(r.at(name)) > 0; had && len(rrs) == 0 {
		r.added--
	} else if !had && len(rrs) > 0 {
		r.added++
	}
	if r.over == nil {
		r.over = make(map[string][]RR)
	}
	r.over[name] = rrs
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
	removed := 0
	for _, rr := range r.at(name) {
		if rr.Type == typ {
			removed++
		}
	}
	if removed == 0 {
		r.mu.Unlock()
		return 0 // not a write: nothing to copy, nobody to tell
	}
	rrs := r.own(name)
	kept := rrs[:0]
	for _, rr := range rrs {
		if rr.Type != typ {
			kept = append(kept, rr)
		}
	}
	r.put(name, kept)
	hook := r.hook
	r.mu.Unlock()
	if hook != nil {
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
	for _, rr := range r.at(name) {
		if rr.Type == typ {
			out = append(out, rr)
		}
	}
	return out
}

// Len returns the number of owner names with records.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.records) + r.added
}

// Names returns all owner names in sorted order (for dumps).
func (r *Registry) Names() []string { return r.NamesUnder() }

// NamesUnder returns, sorted, the owner names that lie under one of the
// given domain suffixes ("edgekey.wld" matches "e7.edgekey.wld", not
// "edgekey.wld" itself); with no suffix, every owner name. Only the
// names kept are sorted.
func (r *Registry) NamesUnder(suffixes ...string) []string {
	dotted := make([]string, len(suffixes))
	for i, suf := range suffixes {
		dotted[i] = "." + CanonicalName(suf)
	}
	keep := func(name string) bool {
		for _, suf := range dotted {
			if strings.HasSuffix(name, suf) {
				return true
			}
		}
		return len(dotted) == 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	if len(dotted) == 0 {
		out = make([]string, 0, len(r.records)+r.added)
	}
	for name := range r.records {
		if _, written := r.over[name]; !written && keep(name) {
			out = append(out, name)
		}
	}
	for name, rrs := range r.over {
		if len(rrs) > 0 && keep(name) {
			out = append(out, name)
		}
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
		rrs := r.at(cur)
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
		rrs := r.at(cur)
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

// String summarises the registry.
func (r *Registry) String() string {
	return fmt.Sprintf("dns.Registry(%d names)", r.Len())
}
