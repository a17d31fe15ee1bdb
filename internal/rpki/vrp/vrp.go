// Package vrp implements Validated ROA Payloads and RFC 6811 prefix
// origin validation.
//
// A VRP is the (prefix, maxLength, origin AS) triple extracted from a
// cryptographically valid ROA. Given the full VRP set, any BGP route
// (prefix, origin AS) is classified into one of three states:
//
//   - NotFound: no VRP covers the route's prefix,
//   - Valid: some covering VRP matches the origin AS and the route's
//     prefix length does not exceed that VRP's maxLength,
//   - Invalid: at least one VRP covers the prefix but none matches.
//
// These are exactly the three states the paper reports in Figure 2.
//
// # One table, two access disciplines
//
// Set and Index are the same structure — the unexported table, with one
// insert, one remove and one classify — held two ways: a Set is mutable
// behind a read-write lock, an Index is frozen and read without any
// lock. A payload is what a VRP says beyond its prefix: the maxLength
// and the ASN, 8 bytes with no pointer; a VRP is rebuilt from its prefix
// and a payload on the way out.
//
// # A frozen base under a small overlay
//
// A table is a frozen base and an overlay. The base is what the table
// was loaded with — FromVRPs, NewIndex, ReadCSV and a Builder (an RTR
// full sync) all end in it: the rows are sorted if they did not arrive
// in order, repeats dropped, and the rows frozen (see frozenFrom) into
// two arrays with no pointer in them: the nodes of a path-compressed
// trie in walk order, 32 bytes each with uint32 child indices, and one
// payload a VRP, each prefix's a window of that array. However large,
// a base is two objects the collector never scans: the repository
// benchmark's 300 000-VRP table is 18.3 MiB live, where as a radix tree
// of 64-byte pointer nodes it was 34.2 MiB and every collection marked
// each of its ≈ 523 000 nodes.
//
// What a table is loaded from are rows: 24 bytes a VRP, ordered on
// machine words exactly as Compare orders VRPs. A Builder fed in Compare
// order (an RTR full response, a sorted export) is frozen from its own
// chunks of rows; any other input is copied into one array of rows and
// sorted there. The rows are garbage once the base is built.
//
// The overlay is a radix.Tree of what Insert and Remove changed since:
// at each prefix they touched, the prefix's whole new value — every
// payload the table holds there, or none, a tombstone hiding the base's
// — and nothing at a prefix whose value is the base's again. Every query
// merges the two, the overlay winning at a prefix: covering lists by
// prefix length, listings (All, Prefixes, Diff) in Compare order. A
// NewSet has an empty base, so a set built VRP by VRP is overlay alone.
// The write that takes the overlay past a thirty-second of the base's
// prefixes, once it holds more than a floor that a simulated relying
// party's set stays far below, rebuilds the base from the table as it
// stands and empties the overlay (compact) — on the writer, inside that
// write, never on a reader.
//
// Set.Clone and IndexOf copy neither layer: the base is shared as it
// is, and the overlay is radix.Tree.Clone, O(1) whatever its size, after
// which both sides share every overlay node and a writer copies only the
// path a write descends. Because Clone also re-tags the tree it is
// called on, both take the set's write lock, not the read lock.
//
// Sharing is sound on one condition, the one radix.Tree.Clone states:
// a value reached through a cloned tree is immutable. Here the values
// are the per-prefix payload slices, so Add and Remove always store a
// freshly built slice and never append to, or edit, the one they found
// — an append would write into spare capacity that an index frozen
// earlier, or a sibling clone appending at the same prefix, also sees,
// and a base's window is clipped to its length so that an append
// reallocates instead of writing its neighbour's payloads. A compaction
// replaces the compacting table's base and overlay; a copy frozen
// before it keeps the ones it was taken with.
package vrp

import (
	"fmt"
	"net/netip"
	"sync"
)

// State is an RFC 6811 origin-validation outcome.
type State uint8

const (
	// NotFound means no VRP covers the announced prefix.
	NotFound State = iota
	// Valid means a covering VRP authorises the origin AS at this length.
	Valid
	// Invalid means the prefix is covered but no VRP matches.
	Invalid
)

// String returns the conventional lower-case state name.
func (s State) String() string {
	switch s {
	case NotFound:
		return "not found"
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// VRP is a validated ROA payload.
type VRP struct {
	Prefix    netip.Prefix
	MaxLength int
	ASN       uint32
}

// String renders the VRP in "prefix-maxlen => ASN" form.
func (v VRP) String() string {
	return fmt.Sprintf("%v-%d => AS%d", v.Prefix, v.MaxLength, v.ASN)
}

// Set is a queryable, mutable collection of VRPs: a table behind a
// read-write lock. Any number of goroutines may query and mutate it.
type Set struct {
	mu sync.RWMutex
	table
}

// NewSet returns an empty VRP set.
func NewSet() *Set { return &Set{} }

// FromVRPs builds a set from a slice, which stays the caller's. Order
// does not matter and repeats collapse: two sets holding the same
// triples are indistinguishable (All is sorted, Diff is order-free), so
// callers may feed map-iteration order. The set is built whole (see
// build), not VRP by VRP.
func FromVRPs(vs []VRP) (*Set, error) {
	t, err := buildChecked(vs)
	if err != nil {
		return nil, err
	}
	return &Set{table: t}, nil
}

// Add inserts a VRP. Duplicate triples are ignored.
func (s *Set) Add(v VRP) error {
	_, err := s.Insert(v)
	return err
}

// Insert is Add for callers that act on the difference: it also reports
// whether v was new to the set, from the one descent that stores it.
func (s *Set) Insert(v VRP) (added bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.insert(v)
}

// Remove deletes a VRP, reporting whether it was present. Covering
// queries never see a prefix with no VRPs behind it once its last one
// goes.
func (s *Set) Remove(v VRP) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remove(v)
}

// Contains reports whether the set holds exactly v (after prefix
// canonicalisation).
func (s *Set) Contains(v VRP) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.contains(v)
}

// Clone returns an independent set holding the same VRPs, in O(1): the
// original and the clone can then be mutated without affecting each
// other, each copying the few nodes a write descends through. It takes
// the write lock (see freeze). Delta-maintained truth state (the sim
// engine, the RTR cache's in-place update path, an RTR client handing
// out its state) clones and keeps editing.
func (s *Set) Clone() *Set {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Set{table: s.freeze()}
}

// Len returns the number of distinct VRPs.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// Validate classifies the route (prefix, originAS) per RFC 6811. It
// allocates nothing.
func (s *Set) Validate(prefix netip.Prefix, originAS uint32) State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.validate(prefix, originAS)
}

// ValidateExplain is Validate plus the list of covering VRPs considered,
// for diagnostics and the looking-glass tools.
func (s *Set) ValidateExplain(prefix netip.Prefix, originAS uint32) (State, []VRP) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.validateExplain(prefix, originAS)
}

// All returns every VRP, sorted by prefix then maxLength then ASN.
// The slice is freshly allocated.
func (s *Set) All() []VRP {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.all()
}

// Prefixes returns every distinct prefix the set holds a VRP at, in
// netutil.ComparePrefixes order; nil for an empty set.
func (s *Set) Prefixes() []netip.Prefix {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.prefixes()
}

// Compactions returns how many times the set's writes have folded its
// overlay into a new base since it was loaded or created (see the
// package comment); a clone starts from its original's count.
func (s *Set) Compactions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.compactions
}

// Diff computes the VRPs to announce and withdraw to transform old into
// s, each in Compare order. It is used by the RTR cache to build
// incremental updates. Both All slices arrive sorted, so one merge walk
// separates them.
func (s *Set) Diff(old *Set) (announce, withdraw []VRP) {
	cur, prev := s.All(), old.All()
	i, j := 0, 0
	for i < len(cur) && j < len(prev) {
		switch c := Compare(cur[i], prev[j]); {
		case c < 0:
			announce = append(announce, cur[i])
			i++
		case c > 0:
			withdraw = append(withdraw, prev[j])
			j++
		default:
			i++
			j++
		}
	}
	return append(announce, cur[i:]...), append(withdraw, prev[j:]...)
}
