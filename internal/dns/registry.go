package dns

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"

	"ripki/internal/strtab"
)

// maxChase bounds CNAME chain length, defending against loops. Real
// resolvers use similar limits.
const maxChase = 16

// Registry is an in-memory DNS database: the union of all zones the
// synthetic world publishes. It acts as the backing store for
// authoritative servers and supports in-process resolution through the
// same CNAME-chasing logic the wire path uses.
//
// It has two layers. The base is a column store a Builder made once and
// nobody writes again: one name table, a record range per name, and
// records as 9-byte rows (type, TTL, and a payload that is an IPv4
// address, a name id or an index into a pool). Every write made after
// that lands in the overlay, this registry's own version of each owner
// name it has written, which reads consult first. Clones share the base.
type Registry struct {
	mu   sync.RWMutex
	base *store
	// over holds this registry's own version of every owner name it has
	// written — an empty slice where it removed the last record. added
	// is how many owner names over adds to base, less how many it
	// empties.
	over  map[string][]RR
	added int
	hook  func(name string)
}

// store is a registry's base layer, immutable once built: owner names
// and CNAME/NS targets in one table, the records of name id in rows
// first[id] .. first[id+1], and each row's payload in val — an A
// record's address itself, an index into aaaa for AAAA, the target's
// name id for CNAME and NS, an index into rdata for any other type. A
// name that is only ever a target has an empty range.
type store struct {
	names  *strtab.Table
	first  []uint32
	typ    []uint8
	ttl    []uint32
	val    []uint32
	aaaa   [][16]byte
	rdata  []*RData
	owners int // names with a record
}

// empty is the base of a registry nothing was built into.
var empty = &store{names: strtab.New(), first: []uint32{0}}

// NewRegistry creates an empty registry; everything added to it lands
// in its overlay. A Builder makes a registry from bulk data.
func NewRegistry() *Registry { return &Registry{base: empty} }

// rr materialises row i, owned by name id.
func (s *store) rr(i, id uint32) RR {
	rr := RR{Name: s.names.Get(id), Type: uint16(s.typ[i]), Class: ClassINET, TTL: s.ttl[i]}
	switch rr.Type {
	case TypeA, TypeAAAA:
		rr.Addr = s.addr(i)
	case TypeCNAME, TypeNS:
		rr.Target = s.names.Get(s.val[i])
	default:
		rr.Data = s.rdata[s.val[i]]
	}
	return rr
}

// addr is the address of A or AAAA row i.
func (s *store) addr(i uint32) netip.Addr {
	v := s.val[i]
	if s.typ[i] == TypeA {
		return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	}
	return netip.AddrFrom16(s.aaaa[v])
}

// owner is where one owner name's records are: base rows lo .. hi of
// name id when s is set, the overlay's slice rrs otherwise. The zero
// owner holds nothing.
type owner struct {
	s          *store
	rrs        []RR
	id, lo, hi uint32
}

// find locates name's records. Called with r.mu held.
func (r *Registry) find(name string) owner {
	if len(r.over) > 0 {
		if rrs, ok := r.over[name]; ok {
			return owner{rrs: rrs}
		}
	}
	if id, ok := r.base.names.Lookup(name); ok {
		return owner{s: r.base, id: id, lo: r.base.first[id], hi: r.base.first[id+1]}
	}
	return owner{}
}

// findID locates the records of base name id, which a base row names:
// no hashing unless the overlay holds something. Called with r.mu held.
func (r *Registry) findID(id uint32) owner {
	if len(r.over) > 0 {
		if rrs, ok := r.over[r.base.names.Get(id)]; ok {
			return owner{rrs: rrs}
		}
	}
	return owner{s: r.base, id: id, lo: r.base.first[id], hi: r.base.first[id+1]}
}

func (o *owner) len() int {
	if o.s == nil {
		return len(o.rrs)
	}
	return int(o.hi - o.lo)
}

func (o *owner) typ(j int) uint16 {
	if o.s == nil {
		return o.rrs[j].Type
	}
	return uint16(o.s.typ[o.lo+uint32(j)])
}

func (o *owner) rr(j int) RR {
	if o.s == nil {
		return o.rrs[j]
	}
	return o.s.rr(o.lo+uint32(j), o.id)
}

func (o *owner) addr(j int) netip.Addr {
	if o.s == nil {
		return o.rrs[j].Addr
	}
	return o.s.addr(o.lo + uint32(j))
}

// target is the name CNAME or NS record j points at.
func (o *owner) target(j int) string {
	if o.s == nil {
		return o.rrs[j].Target
	}
	return o.s.names.Get(o.s.val[o.lo+uint32(j)])
}

// follow locates the records of the name CNAME record j of o points
// at. Called with r.mu held.
func (r *Registry) follow(o *owner, j int) owner {
	if o.s == nil {
		return r.find(o.rrs[j].Target)
	}
	return r.findID(o.s.val[o.lo+uint32(j)])
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
func (r *Registry) Add(rr RR) { r.AddBatch([]RR{rr}) }

// AddBatch inserts records in slice order under one lock acquisition,
// each as Add would: canonicalised, and appended to its owner's records
// in the overlay. rrs is not retained.
func (r *Registry) AddBatch(rrs []RR) {
	r.mu.Lock()
	hook := r.hook
	var one [1]string
	names := one[:0] // per record, for the hook
	for _, rr := range rrs {
		canonicalise(&rr)
		r.put(rr.Name, append(r.own(rr.Name), rr))
		if hook != nil {
			names = append(names, rr.Name)
		}
	}
	r.mu.Unlock()
	for _, n := range names {
		hook(n)
	}
}

// Clone returns a registry that resolves identically to its source and
// can be mutated independently of it, in time proportional to what the
// source has written since its base was built — O(1) for a source that
// has not. Both share the immutable base; a write on either side copies
// the records of the one owner name it touches into that side's overlay
// and lands there, so a run that re-points a few hundred hosts of a
// 60 000-name world pays for a few hundred names. Reads consult the
// overlay first and cost nothing extra while it is empty; Len, Names
// and the zone dump merge the two. Shared-world simulations clone the
// registry per run — it is the only part of a generated world that
// scenarios mutate. The hook is not inherited. Clone is safe to call
// concurrently with anything.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := &Registry{base: r.base, added: r.added}
	if len(r.over) > 0 {
		// Add appends to and Remove filters an overlay slice in place.
		c.over = make(map[string][]RR, len(r.over))
		for name, rrs := range r.over {
			c.over[name] = slices.Clone(rrs)
		}
	}
	return c
}

// Written reports whether the registry has diverged from the base it
// shares with its clone family: false until its first write. What was
// derived from one unwritten member of a family holds for every other.
func (r *Registry) Written() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.over) > 0
}

// own returns name's records as a slice the caller may append to or
// filter in place and must hand back to put. Called with r.mu held for
// writing.
func (r *Registry) own(name string) []RR {
	if rrs, ok := r.over[name]; ok {
		return rrs
	}
	o := r.find(name)               // the base's records, if any
	rrs := make([]RR, 0, o.len()+1) // room for the Add that often follows
	for j := range o.len() {
		rrs = append(rrs, o.rr(j))
	}
	return rrs
}

// put stores rrs, possibly empty, as name's records. Called with r.mu
// held for writing.
func (r *Registry) put(name string, rrs []RR) {
	o := r.find(name)
	if had := o.len() > 0; had && len(rrs) == 0 {
		r.added--
	} else if !had && len(rrs) > 0 {
		r.added++
	}
	if r.over == nil {
		r.over = make(map[string][]RR)
	}
	r.over[name] = rrs
}

// Remove deletes every record of the given type at name and reports how
// many were removed. It exists for time-evolving worlds (simulation
// scenarios re-point cache hosts and delivery chains); pass e.g. TypeA
// then Add the replacements.
func (r *Registry) Remove(name string, typ uint16) int {
	name = CanonicalName(name)
	r.mu.Lock()
	o := r.find(name)
	removed := 0
	for j := range o.len() {
		if o.typ(j) == typ {
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
	o := r.find(name)
	var out []RR
	for j := range o.len() {
		if o.typ(j) == typ {
			out = append(out, o.rr(j))
		}
	}
	return out
}

// Len returns the number of owner names with records.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.base.owners + r.added
}

// Interned returns the registry's own copy of name — a string that
// aliases its name table — when its base holds name as an owner or a
// target. A caller that keeps many of the registry's names, a ranked
// list of its domains, keeps them once so. name is not retained.
func (r *Registry) Interned(name string) (string, bool) {
	id, ok := r.base.names.Lookup(name)
	if !ok {
		return "", false
	}
	return r.base.names.Get(id), true
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
	s := r.base
	var out []string
	if len(dotted) == 0 {
		out = make([]string, 0, s.owners+r.added)
	}
	for id := range uint32(s.names.Len()) {
		if s.first[id] == s.first[id+1] {
			continue
		}
		name := s.names.Get(id)
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
	o := r.find(name)
	for i := 0; i < maxChase; i++ {
		n := o.len()
		if n == 0 {
			if i == 0 {
				return nil, RCodeNameError
			}
			// Dangling CNAME: the chain exists but the target does not.
			return answers, RCodeSuccess
		}
		// Exact-type matches first.
		matched := false
		for j := range n {
			if o.typ(j) == typ {
				answers = append(answers, o.rr(j))
				matched = true
			}
		}
		if matched || typ == TypeCNAME {
			return answers, RCodeSuccess
		}
		// Chase a CNAME if present.
		cname := -1
		for j := range n {
			if o.typ(j) == TypeCNAME {
				cname = j
				break
			}
		}
		if cname < 0 {
			return answers, RCodeSuccess // NODATA
		}
		answers = append(answers, o.rr(cname))
		o = r.follow(&o, cname)
	}
	// Chain too long or looping: answer what was collected.
	return answers, RCodeSuccess
}

// resolveWeb is the combined A + AAAA lookup of name — exactly what the
// test oracle lookupWeb makes of Resolve(name, TypeA) then
// Resolve(name, TypeAAAA) — as one walk under one read lock. res is reset first, keeping the
// arrays behind Addrs and Chain to append into. Both queries follow the
// same CNAMEs from name and each stops at the first owner holding its
// type, so the walk goes on until both have, and the CNAMEs it crossed
// are the longer of the two chains. Only name is hashed: a CNAME in the
// base names its target by id. Chain strings are the registry's own;
// name is not retained.
func (r *Registry) resolveWeb(res *Result, name string) {
	*res = Result{Addrs: res.Addrs[:0], Chain: res.Chain[:0]}
	r.mu.RLock()
	defer r.mu.RUnlock()
	// The A answers come first whichever query ended first, so where the
	// AAAA query ended is only noted until the walk is over.
	var aaaaAt owner
	needA, needAAAA := true, true
	o := r.find(CanonicalName(name))
	for i := 0; i < maxChase; i++ {
		n := o.len()
		if n == 0 {
			// The queried name itself is missing (NXDOMAIN), or a CNAME
			// dangles: the chain exists but its target does not.
			res.NXDomain = i == 0
			break
		}
		cname := -1
		hasA, hasAAAA := false, false
		for j := range n {
			switch o.typ(j) {
			case TypeA:
				hasA = true
				if needA {
					res.Addrs = append(res.Addrs, o.addr(j))
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
			needAAAA, aaaaAt = false, o
		}
		if cname < 0 || !(needA || needAAAA) {
			break // NODATA for whatever is still wanted, or nothing is
		}
		res.Chain = append(res.Chain, o.target(cname))
		o = r.follow(&o, cname)
	}
	for j := range aaaaAt.len() {
		if aaaaAt.typ(j) == TypeAAAA {
			res.Addrs = append(res.Addrs, aaaaAt.addr(j))
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

// Builder collects records for a registry's base layer: owner names and
// targets go into a name table as written, and each record into a row
// of columns, with no lookup per record. Several builders, filled
// concurrently (one per generation shard), make one registry with
// Build. The zero Builder is ready to use; it is not safe for
// concurrent use.
type Builder struct {
	names *strtab.Table // owners and targets as written, not deduplicated
	owner []uint32      // per record, its owner in names
	typ   []uint8
	ttl   []uint32
	val   []uint32 // as a store's, a target naming names
	aaaa  [][16]byte
	rdata []*RData
}

// NewBuilder returns a builder with room for about records records
// whose names — owners and targets, once a record — total about bytes,
// so that a caller who knows its size fills it without regrowing it.
func NewBuilder(records, bytes int) *Builder {
	return &Builder{
		names: strtab.NewSized(records+records/8, bytes),
		owner: make([]uint32, 0, records),
		typ:   make([]uint8, 0, records),
		ttl:   make([]uint32, 0, records),
		val:   make([]uint32, 0, records),
	}
}

// Add appends a record, canonicalised as Registry.Add does it. The base
// layer keeps only what a record's type makes meaningful: the address
// of an A or AAAA record, the target of a CNAME or NS, Data for any
// other type. A record the columns cannot hold — a class other than IN,
// a type above 255, an A record without an IPv4 address, an AAAA record
// without an IPv6 one or with a zone — panics: no world or zone dump
// writes one, and Registry.Add takes any record.
func (b *Builder) Add(rr RR) {
	canonicalise(&rr)
	if rr.Class != ClassINET || rr.Type > math.MaxUint8 || rr.Addr.Zone() != "" ||
		(rr.Type == TypeA && !rr.Addr.Is4()) || (rr.Type == TypeAAAA && !rr.Addr.Is6()) {
		panic(fmt.Sprintf("dns: Builder.Add: class %d type %d record at %q has no column", rr.Class, rr.Type, rr.Name))
	}
	if b.names == nil {
		b.names = strtab.New()
	}
	if n := len(b.owner); n > 0 && b.names.Get(b.owner[n-1]) == rr.Name {
		b.owner = append(b.owner, b.owner[n-1])
	} else {
		b.owner = append(b.owner, b.names.Append([]byte(rr.Name)))
	}
	var v uint32
	switch rr.Type {
	case TypeA:
		a := rr.Addr.As4()
		v = uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
	case TypeAAAA:
		v = uint32(len(b.aaaa))
		b.aaaa = append(b.aaaa, rr.Addr.As16())
	case TypeCNAME, TypeNS:
		v = b.names.Append([]byte(rr.Target))
	default:
		v = uint32(len(b.rdata))
		b.rdata = append(b.rdata, rr.Data)
	}
	b.typ = append(b.typ, uint8(rr.Type))
	b.ttl = append(b.ttl, rr.TTL)
	b.val = append(b.val, v)
}

// Build makes a registry whose base holds every record of parts, an
// owner's records in the order they were added — parts in order, an
// owner written in several runs or several parts included. Names are
// interned once, here. Build empties the builders, each as soon as it
// is read, so their memory goes while the registry's grows.
func Build(parts ...*Builder) *Registry {
	n, bytes, rows, aaaa, rdata := 0, 0, 0, 0, 0
	for _, b := range parts {
		if b.names == nil {
			continue
		}
		n += b.names.Len()
		for id := range uint32(b.names.Len()) {
			bytes += len(b.names.Get(id))
		}
		rows, aaaa, rdata = rows+len(b.owner), aaaa+len(b.aaaa), rdata+len(b.rdata)
	}
	if rows == 0 {
		return NewRegistry() // the empty base every such registry shares
	}
	// Builder names to registry names, in the order they were written.
	tab := strtab.NewSized(n, bytes)
	remaps := make([][]uint32, len(parts))
	for k, b := range parts {
		if b.names == nil {
			continue
		}
		remap := make([]uint32, b.names.Len())
		for id := range remap {
			remap[id] = tab.Intern(b.names.Get(uint32(id)))
		}
		remaps[k], b.names = remap, nil
	}
	s := &store{
		names: tab,
		first: make([]uint32, tab.Len()+1),
		typ:   make([]uint8, rows),
		ttl:   make([]uint32, rows),
		val:   make([]uint32, rows),
		aaaa:  make([][16]byte, 0, aaaa),
		rdata: make([]*RData, 0, rdata),
	}
	// A counting sort by owner: first[id] counts id's records, becomes
	// where they start, then where they end as each is placed, and is
	// shifted back to where they start.
	for k, b := range parts {
		for _, o := range b.owner {
			s.first[remaps[k][o]]++
		}
	}
	at := uint32(0)
	for id, c := range s.first[:tab.Len()] {
		if c > 0 {
			s.owners++
		}
		s.first[id], at = at, at+c
	}
	s.first[tab.Len()] = at
	for k, b := range parts {
		remap := remaps[k]
		aaaaBase, rdataBase := uint32(len(s.aaaa)), uint32(len(s.rdata))
		for j, o := range b.owner {
			id := remap[o]
			i := s.first[id]
			s.first[id]++
			v := b.val[j]
			switch b.typ[j] {
			case TypeA:
			case TypeAAAA:
				v += aaaaBase
			case TypeCNAME, TypeNS:
				v = remap[v]
			default:
				v += rdataBase
			}
			s.typ[i], s.ttl[i], s.val[i] = b.typ[j], b.ttl[j], v
		}
		s.aaaa = append(s.aaaa, b.aaaa...)
		s.rdata = append(s.rdata, b.rdata...)
		*b, remaps[k] = Builder{}, nil
	}
	copy(s.first[1:], s.first[:tab.Len()])
	s.first[0] = 0
	// The table was sized for every name of every part, a target once
	// per record; it is trimmed once the parts are gone.
	tab.Clip()
	return &Registry{base: s}
}
