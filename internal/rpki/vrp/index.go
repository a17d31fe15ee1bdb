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
// radix tree of per-prefix payloads and the triple count. Set wraps it
// in a lock and mutates it; Index is a frozen copy nothing writes. Its
// methods do no locking of their own.
type table struct {
	tree  radix.Tree[[]payload]
	count int
}

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

// freeze returns an O(1) copy that shares every node with t
// (radix.Tree.Clone): from here on a write to either copies the path it
// descends before it lands, so neither sees the other's. Clone stamps a
// new owner id on the receiver too, which makes freeze a write to t —
// callers exclude readers and writers of t alike.
func (t *table) freeze() table {
	return table{tree: *t.tree.Clone(), count: t.count}
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

// insert validates, canonicalises and stores one VRP, reporting whether
// it was new. The per-prefix slice is replaced by a fresh one, never
// appended to: a frozen copy may hold the old slice, and an append into
// its spare capacity would put this table's element where another
// table's append at the same prefix also writes. The new element goes
// in at its Compare position, so what a query lists for a prefix
// depends on what the table holds and not on the order it arrived in.
func (t *table) insert(v VRP) (bool, error) {
	v, err := checked(v)
	if err != nil {
		return false, err
	}
	existing, _ := t.tree.Lookup(v.Prefix)
	pl := payloadOf(v)
	i, found := slices.BinarySearchFunc(existing, pl, comparePayloads)
	if found {
		return false, nil
	}
	next := make([]payload, len(existing)+1)
	copy(next, existing[:i])
	next[i] = pl
	copy(next[i+1:], existing[i:])
	if err := t.tree.Insert(v.Prefix, next); err != nil {
		return false, err
	}
	t.count++
	return true, nil
}

// fill loads an empty table from rows in Compare order without repeats,
// held in one or more chunks, with one tree insertion per distinct
// prefix and one allocation besides the nodes: an array of exactly one
// payload a row, written in row order, of which each prefix's value is
// the window holding its run, its capacity clipped to its length so that
// nothing can append into the next prefix's payloads. Each chunk is
// released as it is read. Windows are sound because a value is only ever
// replaced (insert and Remove store a fresh slice), and they put the
// payloads in memory, like the nodes, in the order a walk visits them
// (see ReadCSV for why that matters). The array stays reachable while
// any prefix keeps its original value.
func (t *table) fill(chunks [][]row) {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	if n == 0 {
		return
	}
	payloads := make([]payload, n)
	at, start := 0, 0 // the next payload, and the first of the run in hand
	var head row      // the run's first row
	for i, c := range chunks {
		for _, r := range c {
			if at > start && !r.samePrefix(head) {
				// The prefix is canonical: Insert cannot fail.
				_ = t.tree.Insert(head.prefix(), payloads[start:at:at])
				start = at
			}
			if at == start {
				head = r
			}
			payloads[at] = payload{asn: r.asn, maxLen: r.maxLen}
			at++
		}
		chunks[i] = nil
	}
	_ = t.tree.Insert(head.prefix(), payloads[start:at:at])
	t.count = n
}

// validate classifies a route without listing what covered it: the
// covering entries rarely number more than a handful, so they fit a
// buffer on the stack and the call allocates nothing.
func (t *table) validate(prefix netip.Prefix, originAS uint32) State {
	cp, err := netutil.Canonical(prefix)
	if err != nil {
		return NotFound
	}
	var buf [8]radix.Entry[[]payload]
	return classify(t.tree.CoveringPrefix(cp, buf[:0]), cp, originAS)
}

// validateExplain is validate plus the covering VRPs it decided over.
func (t *table) validateExplain(prefix netip.Prefix, originAS uint32) (State, []VRP) {
	cp, err := netutil.Canonical(prefix)
	if err != nil {
		return NotFound, nil
	}
	var buf [8]radix.Entry[[]payload]
	entries := t.tree.CoveringPrefix(cp, buf[:0])
	return classify(entries, cp, originAS), listed(entries)
}

// all lists every VRP in Compare order, with no sort: Walk visits
// prefixes in netutil.ComparePrefixes order (IPv4 first, a prefix before
// what it covers, the 0 branch before the 1 branch) and insert keeps
// each prefix's payloads in order.
func (t *table) all() []VRP {
	out := make([]VRP, 0, t.count)
	t.tree.Walk(func(p netip.Prefix, pls []payload) bool {
		for _, pl := range pls {
			out = append(out, pl.vrp(p))
		}
		return true
	})
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
// canonical route prefix — the single implementation Set and Index,
// Validate and ValidateExplain share.
func classify(entries []radix.Entry[[]payload], cp netip.Prefix, originAS uint32) State {
	if len(entries) == 0 {
		return NotFound
	}
	for _, e := range entries {
		for _, pl := range e.Value {
			if pl.asn == originAS && originAS != 0 && cp.Bits() <= int(pl.maxLen) {
				return Valid
			}
		}
	}
	return Invalid
}

// listed flattens covering entries into the VRPs ValidateExplain
// reports, shortest prefix first; nil when nothing covers.
func listed(entries []radix.Entry[[]payload]) []VRP {
	var covering []VRP
	for _, e := range entries {
		for _, pl := range e.Value {
			covering = append(covering, pl.vrp(e.Prefix))
		}
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
