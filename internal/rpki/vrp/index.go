package vrp

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"

	"ripki/internal/netutil"
	"ripki/internal/radix"
)

// table is the one VRP structure behind both access disciplines: a
// frozen base, shared and never written, under a path-copied radix
// overlay that holds what the writes since the base was built changed.
// An overlay entry is a prefix's whole value — every payload the table
// holds there, or none (a tombstone: the base's VRPs at the prefix are
// all gone) — and wins over the base at its prefix; the overlay holds a
// prefix only while its value differs from the base's. count is the
// number of triples in the table. Set wraps a table in a lock and
// mutates it; Index is a frozen copy nothing writes. Its methods do no
// locking of their own.
type table struct {
	base  frozen
	over  radix.Tree[[]payload]
	count int
	// compactions counts the rebuilds of the base since the table was
	// loaded (see compact).
	compactions int
}

// loaded is the table of a frozen base and no overlay.
func loaded(f frozen) table { return table{base: f, count: len(f.payloads)} }

// The overlay is folded into a new base (compact) by the write that
// takes it past 1/compactShare of the base's prefixes, once it holds
// more than compactFloor. The overlay is what the collector still marks,
// about 0.22 ms a collection per thousand prefixes on the repository
// benchmark's 300 000-VRP table, against 0.2 ms for the base alone;
// rebuilding that base takes about 80 ms. At a thirty-second share the
// overlay stays under 2 ms of marking and a write pays about 9 µs of
// compaction on average, which is the better trade until a table
// changes hundreds of prefixes a second (an eighth let the overlay reach
// 8–9 ms). The floor spares a small table, whose overlay marks in about a
// millisecond at most, any compaction: a simulated relying party's set
// peaks below a thousand prefixes in the benchmark's sweeps.
const (
	compactFloor = 4096
	compactShare = 32
)

// payload is what a VRP says beyond the prefix of the node that holds
// it: 8 bytes with no pointer, so the collector never scans a table's
// payloads. A prefix's payloads are kept in (maxLength, ASN) order,
// which is Compare's order at one prefix.
type payload struct {
	asn    uint32
	maxLen uint8
}

// payloadOf is the payload of a checked VRP.
func payloadOf(v VRP) payload { return payload{asn: v.ASN, maxLen: uint8(v.MaxLength)} }

// vrp rebuilds the VRP a payload at prefix p stands for.
func (pl payload) vrp(p netip.Prefix) VRP {
	return VRP{Prefix: p, MaxLength: int(pl.maxLen), ASN: pl.asn}
}

func comparePayloads(a, b payload) int {
	if c := cmp.Compare(a.maxLen, b.maxLen); c != 0 {
		return c
	}
	return cmp.Compare(a.asn, b.asn)
}

// freeze returns an O(1) copy: the base is shared as it is, and the
// overlay is radix.Tree.Clone, after which a write to either copies the
// path it descends before it lands, so neither sees the other's. Clone
// stamps a new owner id on the receiver too, which makes freeze a write
// to t — callers exclude readers and writers of t alike.
func (t *table) freeze() table {
	c := *t
	c.over = *t.over.Clone()
	return c
}

// checked returns v with its prefix canonicalised, or why no table
// takes it: an invalid prefix, or a maxLength outside [prefix length,
// address width].
func checked(v VRP) (VRP, error) {
	cp, err := netutil.Canonical(v.Prefix)
	if err != nil {
		return v, fmt.Errorf("vrp: %w", err)
	}
	if v.MaxLength < cp.Bits() || v.MaxLength > netutil.FamilyBits(cp.Addr()) {
		return v, fmt.Errorf("vrp: maxLength %d out of range for %v", v.MaxLength, cp)
	}
	v.Prefix = cp
	return v, nil
}

// at returns the payloads the table holds at the canonical prefix p and
// those its base holds there.
func (t *table) at(p netip.Prefix) (cur, inBase []payload) {
	inBase = t.base.lookup(keyOf(p))
	if pls, ok := t.over.Lookup(p); ok {
		return pls, inBase
	}
	return inBase, inBase
}

// put makes pls the table's value at the canonical prefix p: an
// overlay entry, or no entry when pls is what the base holds there (so
// a write that undoes another leaves nothing behind). A value is only
// ever replaced, never edited, so a slice a frozen copy or the base
// holds is never written.
func (t *table) put(p netip.Prefix, pls, inBase []payload) {
	if slices.Equal(pls, inBase) {
		t.over.Delete(p)
	} else {
		// The prefix is canonical: Insert cannot fail.
		_ = t.over.Insert(p, pls)
	}
	if t.over.Len() > max(compactFloor, t.base.prefixes/compactShare) {
		t.compact()
	}
}

// insert validates, canonicalises and stores one VRP, reporting whether
// it was new. The prefix's value is replaced by a fresh slice, never
// appended to: the old one may be the base's, or a frozen copy's. The
// new element goes in at its Compare position, so what a query lists
// for a prefix depends on what the table holds and not on the order it
// arrived in.
func (t *table) insert(v VRP) (bool, error) {
	v, err := checked(v)
	if err != nil {
		return false, err
	}
	existing, inBase := t.at(v.Prefix)
	pl := payloadOf(v)
	i, found := slices.BinarySearchFunc(existing, pl, comparePayloads)
	if found {
		return false, nil
	}
	next := make([]payload, len(existing)+1)
	copy(next, existing[:i])
	next[i] = pl
	copy(next[i+1:], existing[i:])
	t.count++
	t.put(v.Prefix, next, inBase)
	return true, nil
}

// remove deletes one VRP, reporting whether it was held. The prefix's
// value is replaced by a fresh slice without it; when it was the last,
// the base's VRPs there are hidden by a tombstone, or the overlay entry
// goes if the base holds none there, so covering queries never see a
// prefix with no VRPs behind it.
func (t *table) remove(v VRP) bool {
	v, err := checked(v)
	if err != nil {
		return false
	}
	existing, inBase := t.at(v.Prefix)
	i := slices.Index(existing, payloadOf(v))
	if i < 0 {
		return false
	}
	var rest []payload
	if len(existing) > 1 {
		rest = make([]payload, 0, len(existing)-1)
		rest = append(rest, existing[:i]...)
		rest = append(rest, existing[i+1:]...)
	}
	t.count--
	t.put(v.Prefix, rest, inBase)
	return true
}

// contains reports whether the table holds exactly v.
func (t *table) contains(v VRP) bool {
	v, err := checked(v)
	if err != nil {
		return false
	}
	existing, _ := t.at(v.Prefix)
	return slices.Contains(existing, payloadOf(v))
}

// compact rebuilds the base from the table as it stands and empties the
// overlay. It runs inside the write that crossed the line, never on a
// reader; a frozen copy keeps the base and overlay it was taken with.
// The new base is built straight from the merged walk (each), read
// twice, so what it allocates is the new base alone.
func (t *table) compact() {
	t.base = frozenOf(func(_ bool, fn func(row)) {
		t.each(func(k row, pls []payload) {
			for _, pl := range pls {
				k.asn, k.maxLen = pl.asn, pl.maxLen
				fn(k)
			}
		})
	})
	t.over = radix.Tree[[]payload]{}
	t.compactions++
}

// each calls fn with every prefix the table holds VRPs at and their
// payloads, in Compare order: the overlay's walk, with the base's nodes
// that come before each overlay entry emitted ahead of it, the overlay's
// value winning at a prefix both hold and a tombstone listing nothing.
// Nothing is allocated.
func (t *table) each(fn func(k row, pls []payload)) {
	nodes := t.base.nodes
	i := 0 // the next base node not yet emitted or overridden
	upTo := func(k row) {
		for ; i+1 < len(nodes); i++ {
			if nodes[i+1].off == nodes[i].off {
				continue
			}
			nk := nodes[i].row()
			c := compareKeys(nk, k)
			if c == 0 {
				i++
			}
			if c >= 0 {
				return
			}
			fn(nk, t.base.at(uint32(i)))
		}
	}
	t.over.Walk(func(p netip.Prefix, pls []payload) bool {
		k := keyOf(p)
		upTo(k)
		if len(pls) > 0 {
			fn(k, pls)
		}
		return true
	})
	// The base's nodes after the overlay's last entry.
	for ; i+1 < len(nodes); i++ {
		if nodes[i+1].off != nodes[i].off {
			fn(nodes[i].row(), t.base.at(uint32(i)))
		}
	}
}

// validate classifies a route without listing what covered it: the
// covering entries rarely number more than a handful, so they fit
// buffers on the stack and the call allocates nothing.
func (t *table) validate(prefix netip.Prefix, originAS uint32) State {
	cp, err := netutil.Canonical(prefix)
	if err != nil {
		return NotFound
	}
	// Each layer is asked only when it holds something: a set built VRP
	// by VRP has no base, and a table just loaded has no overlay.
	var bb [8]uint32
	var base []uint32
	if len(t.base.nodes) > 0 {
		base = t.base.covering(keyOf(cp), bb[:0])
	}
	if t.over.Len() == 0 {
		return t.classify(nil, base, cp.Bits(), originAS)
	}
	var ob [8]radix.Entry[[]payload]
	return t.classify(t.over.CoveringPrefix(cp, ob[:0]), base, cp.Bits(), originAS)
}

// validateExplain is validate plus the covering VRPs it decided over.
func (t *table) validateExplain(prefix netip.Prefix, originAS uint32) (State, []VRP) {
	cp, err := netutil.Canonical(prefix)
	if err != nil {
		return NotFound, nil
	}
	var bb [8]uint32
	var ob [8]radix.Entry[[]payload]
	base := t.base.covering(keyOf(cp), bb[:0])
	over := t.over.CoveringPrefix(cp, ob[:0])
	return t.classify(over, base, cp.Bits(), originAS), t.listed(over, base)
}

// all lists every VRP in Compare order, with no sort: each visits
// prefixes in that order and a prefix's payloads are kept in it.
func (t *table) all() []VRP {
	out := make([]VRP, 0, t.count)
	t.each(func(k row, pls []payload) {
		p := k.prefix()
		for _, pl := range pls {
			out = append(out, pl.vrp(p))
		}
	})
	return out
}

// prefixes lists every prefix the table holds a VRP at, in
// netutil.ComparePrefixes order; nil for an empty table.
func (t *table) prefixes() []netip.Prefix {
	if t.count == 0 {
		return nil
	}
	out := make([]netip.Prefix, 0, t.base.prefixes+t.over.Len())
	t.each(func(k row, _ []payload) { out = append(out, k.prefix()) })
	return out
}

// Index is the immutable, lock-free counterpart of Set: the same table,
// frozen. Because nothing can mutate it, every method is safe for any
// number of concurrent readers without taking a lock — the validation
// service publishes one Index per snapshot behind an atomic pointer and
// lets the read path scale linearly with cores.
type Index struct {
	table
}

// NewIndex builds an index from a slice of VRPs, which stays the
// caller's. Prefixes are canonicalised and duplicate triples collapse,
// exactly as in FromVRPs: the same constructor builds both.
func NewIndex(vs []VRP) (*Index, error) {
	t, err := buildChecked(vs)
	if err != nil {
		return nil, err
	}
	return &Index{table: t}, nil
}

// IndexOf freezes a Set into an Index in O(1), whatever the set's size:
// the index shares the set's nodes and the set copies what it next
// writes. It takes the set's write lock (see freeze).
func IndexOf(s *Set) *Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Index{table: s.freeze()}
}

// Len returns the number of distinct VRPs.
func (ix *Index) Len() int { return ix.count }

// Validate classifies the route (prefix, originAS) per RFC 6811. It
// takes no lock and allocates nothing.
func (ix *Index) Validate(prefix netip.Prefix, originAS uint32) State {
	return ix.validate(prefix, originAS)
}

// ValidateExplain is Validate plus the list of covering VRPs
// considered. It takes no lock and allocates only the covering slice.
func (ix *Index) ValidateExplain(prefix netip.Prefix, originAS uint32) (State, []VRP) {
	return ix.validateExplain(prefix, originAS)
}

// classify applies the RFC 6811 decision to the covering entries of a
// route prefix of length bits: the overlay's, and the base's that no
// overlay entry of the same length (the same prefix: both lists cover
// one route) overrides. It is the single implementation Set and Index,
// Validate and ValidateExplain share.
func (t *table) classify(over []radix.Entry[[]payload], base []uint32, bits int, originAS uint32) State {
	state := NotFound
	for _, e := range over {
		if len(e.Value) > 0 {
			state = Invalid
		}
		if authorises(e.Value, bits, originAS) {
			return Valid
		}
	}
	for _, i := range base {
		if shadowed(over, t.base.nodes[i].bits) {
			continue
		}
		state = Invalid
		if authorises(t.base.at(i), bits, originAS) {
			return Valid
		}
	}
	return state
}

// authorises reports whether a payload at a covering prefix makes a
// route of length bits from originAS valid.
func authorises(pls []payload, bits int, originAS uint32) bool {
	for _, pl := range pls {
		if pl.asn == originAS && originAS != 0 && bits <= int(pl.maxLen) {
			return true
		}
	}
	return false
}

// shadowed reports whether an overlay entry of the given length is
// among the covering ones.
func shadowed(over []radix.Entry[[]payload], bits uint8) bool {
	for _, e := range over {
		if e.Prefix.Bits() == int(bits) {
			return true
		}
	}
	return false
}

// listed flattens covering entries into the VRPs ValidateExplain
// reports, shortest prefix first, the overlay's entry winning at a
// length both lists hold; nil when nothing covers.
func (t *table) listed(over []radix.Entry[[]payload], base []uint32) []VRP {
	var covering []VRP
	add := func(p netip.Prefix, pls []payload) {
		for _, pl := range pls {
			covering = append(covering, pl.vrp(p))
		}
	}
	j := 0
	for _, i := range base {
		n := &t.base.nodes[i]
		for ; j < len(over) && over[j].Prefix.Bits() < int(n.bits); j++ {
			add(over[j].Prefix, over[j].Value)
		}
		if j < len(over) && over[j].Prefix.Bits() == int(n.bits) {
			add(over[j].Prefix, over[j].Value)
			j++
			continue
		}
		add(n.row().prefix(), t.base.at(i))
	}
	for ; j < len(over); j++ {
		add(over[j].Prefix, over[j].Value)
	}
	return covering
}

// Compare orders two VRPs by (prefix, maxLength, ASN) — the canonical
// total order All (on both Set and Index) reports in. It is exported so
// every other VRP ordering in the tree (the sim engine's truth
// bookkeeping, the RTR cache's delta records) sorts with the same
// comparator and cannot drift from All.
func Compare(a, b VRP) int {
	if c := netutil.ComparePrefixes(a.Prefix, b.Prefix); c != 0 {
		return c
	}
	if c := cmp.Compare(a.MaxLength, b.MaxLength); c != 0 {
		return c
	}
	return cmp.Compare(a.ASN, b.ASN)
}
