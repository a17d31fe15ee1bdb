// Package radix implements a path-compressed binary trie (patricia trie)
// keyed by IP prefixes, with separate roots for IPv4 and IPv6.
//
// The RiPKI pipeline needs two queries that hash maps cannot answer:
//
//   - all prefixes in a routing table that cover a given address
//     (methodology step 3: "For each IP address of a domain name, we
//     extract all covering prefixes"), and
//   - all VRPs that cover a given route prefix (RFC 6811 origin
//     validation).
//
// The trie stores one arbitrary value per canonical prefix. It is not
// safe for concurrent mutation; wrap it in a lock or use one goroutine.
//
// Clone is O(1): the two trees then share every node, and each copies a
// node the first time it writes through it (see Clone). Queries never
// look at ownership, so sharing costs readers nothing.
//
// # Keys are machine words
//
// Every method takes and returns net/netip values, and none is kept: a
// node holds its prefix as the address bits left-aligned in two uint64
// (key) and the length, family, value flag and owner packed in one more
// (tag). A descent is then word arithmetic — the common length of two
// keys is an XOR and a leading-zero count, the branch bit a shift —
// where comparing netip.Addr values byte by byte was a fifth of a long
// sweep's CPU. The boundary converts once per call: a query splits its
// argument into (key, length, family) on the way in, and a walk or a
// covering query rebuilds the exact netip.Prefix that was inserted
// (IPv4 stays IPv4) for each entry it hands out. A node with a slice
// value is 64 bytes, one cache line and one size class below the 80 it
// took with a netip.Prefix inside, and holds no pointer but its value
// and children: netip.Addr carries a zone handle the collector had to
// visit per node. Every path copy on every write is smaller by the same
// fifth.
package radix

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"sync/atomic"
)

// Key is an address as the tree compares it: its bits left-aligned in
// two machine words, most significant first. An IPv4 address fills the
// top half of Hi, so bit i of either family is bit 63-i of Hi (or 127-i
// of Lo) and a key of either family masked to its prefix length is zero
// from there on. It is exported, with the word arithmetic below, for
// tables that keep prefixes in other layouts over the same keys.
type Key struct{ Hi, Lo uint64 }

// KeyOf returns the key of an address of either family.
func KeyOf(a netip.Addr) Key {
	if a.Is4() {
		b := a.As4()
		return Key{Hi: uint64(binary.BigEndian.Uint32(b[:])) << 32}
	}
	b := a.As16()
	return Key{Hi: binary.BigEndian.Uint64(b[:8]), Lo: binary.BigEndian.Uint64(b[8:])}
}

// Masked returns k with every bit from position length on cleared.
func (k Key) Masked(length int) Key {
	switch {
	case length < 64:
		return Key{Hi: k.Hi &^ (^uint64(0) >> length)}
	case length < 128:
		return Key{Hi: k.Hi, Lo: k.Lo &^ (^uint64(0) >> (length - 64))}
	}
	return k
}

// CommonBits returns the length of the longest common prefix of a and b,
// capped at max.
func CommonBits(a, b Key, max int) int {
	n := 128
	if x := a.Hi ^ b.Hi; x != 0 {
		n = bits.LeadingZeros64(x)
	} else if y := a.Lo ^ b.Lo; y != 0 {
		n = 64 + bits.LeadingZeros64(y)
	}
	return min(n, max)
}

// Bit returns the bit of k at position i (the first bit after a prefix
// of length i), or 0 at and past the address width.
func (k Key) Bit(i int) int {
	if i < 64 {
		return int(k.Hi >> (63 - i) & 1)
	}
	if i < 128 {
		return int(k.Lo >> (127 - i) & 1)
	}
	return 0
}

// Prefix rebuilds the netip form of a masked key of the given length,
// in its own family: exactly the canonical prefix it was made from.
func (k Key) Prefix(is4 bool, length int) netip.Prefix {
	if is4 {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(k.Hi>>32))
		return netip.PrefixFrom(netip.AddrFrom4(b), length)
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], k.Hi)
	binary.BigEndian.PutUint64(b[8:], k.Lo)
	return netip.PrefixFrom(netip.AddrFrom16(b), length)
}

// Tag layout, low bits first: whether the node carries a value, its
// prefix length (0..128), its family, and from ownerShift up the id of
// the tree that created it.
const (
	tagValue   = 1
	tagLength  = 1 // shift of the 8-bit prefix length
	tagV4      = 1 << 9
	ownerShift = 16
	ownerMask  = ^uint64(1<<ownerShift - 1)
)

// node is a trie node. Internal nodes may carry no value (hasValue
// reports false), and such a node always has both children: Insert only
// makes one to branch, Delete splices out one that stops branching. Path
// compression is achieved by storing full prefixes at nodes and
// branching on the first bit after the node's prefix length.
type node[V any] struct {
	key   Key // the prefix's address, masked
	value V
	child [2]*node[V]
	// tag is the id of the tree that created the node — which may
	// therefore write it in place, where every other tree reaching it
	// (after a Clone) copies it first — above the prefix length, the
	// family and the bit that says whether the node carries a value. One
	// word for all four keeps a node with a slice value at 64 bytes.
	tag uint64
}

func (n *node[V]) hasValue() bool { return n.tag&tagValue != 0 }
func (n *node[V]) owner() uint64  { return n.tag & ownerMask }
func (n *node[V]) bits() int      { return int(n.tag >> tagLength & 0xff) }

// prefix rebuilds the netip form of the node's key: exactly the
// canonical prefix Insert was given, in its own family.
func (n *node[V]) prefix() netip.Prefix {
	return n.key.Prefix(n.tag&tagV4 != 0, n.bits())
}

// set stores or clears the node's value.
func (n *node[V]) set(value V, has bool) {
	n.value = value
	n.tag &^= tagValue
	if has {
		n.tag |= tagValue
	}
}

// Tree is a prefix-keyed radix tree. The zero value is ready to use.
type Tree[V any] struct {
	root4 *node[V]
	root6 *node[V]
	count int
	// owner is this tree's id, as node tags hold it (shifted, low bits
	// clear): a tree that was never cloned owns everything under 0. ids
	// numbers a family — a tree and everything cloned from it or from
	// its clones — which is as far as nodes are ever shared.
	owner uint64
	ids   *atomic.Uint64
}

// Clone returns an independent tree holding the same entries, in O(1):
// both trees keep every existing node and both take a fresh id, so the
// first Insert or Delete either makes through a shared node copies it
// (path copying, root to the written node) and writes the copy in place
// from then on. A write on one side is never visible on the other.
// Values are shared, not copied: a value reached through a tree that
// has been cloned must be treated as immutable and replaced by Insert,
// never edited in place.
//
// Clone writes the receiver's id, so it needs the same exclusion from
// writers and other Clones of the receiver as Insert does; concurrent
// readers, and Clones of other trees of the family, are unaffected.
func (t *Tree[V]) Clone() *Tree[V] {
	if t.ids == nil {
		t.ids = new(atomic.Uint64)
	}
	c := &Tree[V]{root4: t.root4, root6: t.root6, count: t.count, ids: t.ids}
	t.owner, c.owner = t.ids.Add(1)<<ownerShift, t.ids.Add(1)<<ownerShift
	return c
}

// query is a prefix at the boundary: the words the tree compares, the
// length, and the family's tag bit and root.
type query struct {
	key  Key
	bits int
	fam  uint64 // tagV4 or 0
}

// split canonicalises p (masks it) into the tree's own terms, once per
// call of a public method. It reports false for an invalid prefix.
func split(p netip.Prefix) (query, bool) {
	if !p.IsValid() {
		return query{}, false
	}
	q := query{key: KeyOf(p.Addr()).Masked(p.Bits()), bits: p.Bits()}
	if p.Addr().Is4() {
		q.fam = tagV4
	}
	return q, true
}

func (t *Tree[V]) root(q query) **node[V] {
	if q.fam != 0 {
		return &t.root4
	}
	return &t.root6
}

// newNode returns a node of this tree's, valued or (glue) not.
func (t *Tree[V]) newNode(q query, value V, has bool) *node[V] {
	n := &node[V]{key: q.key, tag: t.owner | q.fam | uint64(q.bits)<<tagLength}
	n.set(value, has)
	return n
}

// own returns the node at *np as one this tree may write in place,
// replacing it in its parent with a private copy first if another tree
// created it. The parent slot np must already be this tree's.
func (t *Tree[V]) own(np **node[V]) *node[V] {
	n := *np
	if n.owner() != t.owner {
		c := *n
		c.tag = t.owner | n.tag&^ownerMask
		n = &c
		*np = n
	}
	return n
}

// Len returns the number of prefixes with values in the tree.
func (t *Tree[V]) Len() int { return t.count }

// Insert stores value under prefix p, replacing any existing value.
// The prefix is canonicalised (masked) first. It returns an error only
// if p is invalid.
func (t *Tree[V]) Insert(p netip.Prefix, value V) error {
	q, ok := split(p)
	if !ok {
		return fmt.Errorf("radix: invalid prefix %v", p)
	}
	if t.insert(t.root(q), q, value) {
		t.count++
	}
	return nil
}

// insert returns true if a new valued node was created (false if an
// existing value was replaced).
func (t *Tree[V]) insert(np **node[V], q query, value V) bool {
	for {
		n := *np
		if n == nil {
			*np = t.newNode(q, value, true)
			return true
		}
		nb := n.bits()
		cb := CommonBits(n.key, q.key, min(nb, q.bits))
		switch {
		case cb == nb && cb == q.bits:
			// Same prefix: replace or set value.
			n = t.own(np)
			created := !n.hasValue()
			n.set(value, true)
			return created
		case cb == nb:
			// q is longer and inside n: descend.
			np = &t.own(np).child[q.key.Bit(nb)]
		case cb == q.bits:
			// q is shorter and covers n: q becomes the parent of n, which
			// is linked, not written, and so stays whoever's it was.
			nn := t.newNode(q, value, true)
			nn.child[n.key.Bit(q.bits)] = n
			*np = nn
			return true
		default:
			// Diverge below cb: create a glue node.
			var none V
			glue := t.newNode(query{key: q.key.Masked(cb), bits: cb, fam: q.fam}, none, false)
			glue.child[n.key.Bit(cb)] = n
			glue.child[q.key.Bit(cb)] = t.newNode(q, value, true)
			*np = glue
			return true
		}
	}
}

// Lookup returns the value stored at exactly prefix p.
func (t *Tree[V]) Lookup(p netip.Prefix) (V, bool) {
	var zero V
	q, ok := split(p)
	if !ok {
		return zero, false
	}
	for n := *t.root(q); n != nil; n = n.child[q.key.Bit(n.bits())] {
		nb := n.bits()
		if nb > q.bits || CommonBits(n.key, q.key, nb) < nb {
			break
		}
		if nb == q.bits {
			if n.hasValue() {
				return n.value, true
			}
			break
		}
	}
	return zero, false
}

// Delete removes the value at exactly prefix p. It reports whether a
// value was removed. The tree is pruned back to the shape a fresh build
// of what remains would have: a node left with neither value nor
// children is unlinked, and one left with no value and a single child is
// spliced out, so every valueless node branches and a tree of n entries
// never holds more than 2n-1 nodes per family. A tree that follows a
// churning source, and every clone frozen from it, therefore stays as
// shallow as its contents.
func (t *Tree[V]) Delete(p netip.Prefix) bool {
	// A miss must not copy anything, so look before writing.
	if _, ok := t.Lookup(p); !ok {
		return false
	}
	q, _ := split(p)
	t.count--
	np := t.root(q)
	var parent **node[V] // the slot of the node that np is a child slot of
	for (*np).bits() != q.bits {
		n := t.own(np)
		parent, np = np, &n.child[q.key.Bit(n.bits())]
	}
	// Slots on the way down are this tree's now; nodes linked into them
	// below stay whoever's they were, as in insert.
	switch n := *np; {
	case n.child[0] != nil && n.child[1] != nil:
		var zero V
		t.own(np).set(zero, false)
	case n.child[0] != nil:
		*np = n.child[0]
	case n.child[1] != nil:
		*np = n.child[1]
	default:
		*np = nil
		if parent == nil {
			break
		}
		// The parent lost a child; a valueless one had exactly two.
		if pn := *parent; !pn.hasValue() {
			if pn.child[0] != nil {
				*parent = pn.child[0]
			} else {
				*parent = pn.child[1]
			}
		}
	}
	return true
}

// Covering appends to dst every (prefix, value) pair whose prefix
// contains addr, from shortest to longest, and returns the extended
// slice. This is the "all covering prefixes" query from the paper's
// methodology.
func (t *Tree[V]) Covering(addr netip.Addr, dst []Entry[V]) []Entry[V] {
	return t.CoveringPrefix(netip.PrefixFrom(addr, addr.BitLen()), dst)
}

// CoveringPrefix appends every (prefix, value) pair whose prefix covers
// the whole of p (i.e. prefix length <= p.Bits() and containing p), from
// shortest to longest. RFC 6811 matching uses this form.
func (t *Tree[V]) CoveringPrefix(p netip.Prefix, dst []Entry[V]) []Entry[V] {
	q, ok := split(p)
	if !ok {
		return dst
	}
	for n := *t.root(q); n != nil; n = n.child[q.key.Bit(n.bits())] {
		nb := n.bits()
		if nb > q.bits || CommonBits(n.key, q.key, nb) < nb {
			break
		}
		if n.hasValue() {
			dst = append(dst, Entry[V]{Prefix: n.prefix(), Value: n.value})
		}
		if nb == q.bits {
			break
		}
	}
	return dst
}

// Entry is a (prefix, value) pair returned by queries.
type Entry[V any] struct {
	Prefix netip.Prefix
	Value  V
}

// Walk visits every valued entry in the tree, IPv4 first then IPv6, in
// lexical prefix order. If fn returns false the walk stops early.
func (t *Tree[V]) Walk(fn func(netip.Prefix, V) bool) {
	if !walk(t.root4, fn) {
		return
	}
	walk(t.root6, fn)
}

func walk[V any](n *node[V], fn func(netip.Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.hasValue() {
		if !fn(n.prefix(), n.value) {
			return false
		}
	}
	return walk(n.child[0], fn) && walk(n.child[1], fn)
}

// WalkSubtree visits every valued entry covered by p (including p
// itself) in lexical order, in place: nothing is copied or allocated.
// If fn returns false the walk stops early.
func (t *Tree[V]) WalkSubtree(p netip.Prefix, fn func(netip.Prefix, V) bool) {
	q, ok := split(p)
	if !ok {
		return
	}
	for n := *t.root(q); n != nil; n = n.child[q.key.Bit(n.bits())] {
		nb := n.bits()
		cb := CommonBits(n.key, q.key, min(nb, q.bits))
		if nb >= q.bits {
			if cb == q.bits {
				walk(n, fn)
			}
			return
		}
		if cb < nb {
			return
		}
	}
}

// String summarises the tree for debugging.
func (t *Tree[V]) String() string {
	return fmt.Sprintf("radix.Tree(%d prefixes)", t.count)
}
