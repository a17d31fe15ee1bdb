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
package radix

import (
	"fmt"
	"net/netip"
	"sync/atomic"

	"ripki/internal/netutil"
)

// node is a trie node. Internal nodes may carry no value (hasValue
// reports false), and such a node always has both children: Insert only
// makes one to branch, Delete splices out one that stops branching. Path
// compression is achieved by storing full prefixes at nodes and
// branching on the first bit after the node's prefix length.
type node[V any] struct {
	prefix netip.Prefix
	value  V
	child  [2]*node[V]
	// tag is the id of the tree that created the node — which may
	// therefore write it in place, where every other tree reaching it
	// (after a Clone) copies it first — shifted left over one bit that
	// says whether the node carries a value. One word for both keeps
	// nodes the size they were before trees could be cloned.
	tag uint64
}

func (n *node[V]) hasValue() bool { return n.tag&1 != 0 }
func (n *node[V]) owner() uint64  { return n.tag &^ 1 }

// set stores or clears the node's value.
func (n *node[V]) set(value V, has bool) {
	n.value = value
	n.tag &^= 1
	if has {
		n.tag |= 1
	}
}

// Tree is a prefix-keyed radix tree. The zero value is ready to use.
type Tree[V any] struct {
	root4 *node[V]
	root6 *node[V]
	count int
	// owner is this tree's id, as node tags hold it (shifted, flag bit
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
	t.owner, c.owner = t.ids.Add(1)<<1, t.ids.Add(1)<<1
	return c
}

// newNode returns a node of this tree's, valued or (glue) not.
func (t *Tree[V]) newNode(p netip.Prefix, value V, has bool) *node[V] {
	n := &node[V]{prefix: p, tag: t.owner}
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
		c.tag = t.owner | n.tag&1
		n = &c
		*np = n
	}
	return n
}

// Len returns the number of prefixes with values in the tree.
func (t *Tree[V]) Len() int { return t.count }

func (t *Tree[V]) rootFor(p netip.Prefix) **node[V] {
	if p.Addr().Is4() {
		return &t.root4
	}
	return &t.root6
}

// commonBits returns the length of the longest common prefix of a and b,
// capped at max. Both addresses must be the same family.
func commonBits(a, b netip.Addr, max int) int {
	ab, bb := a.AsSlice(), b.AsSlice()
	n := 0
	for i := 0; i < len(ab) && n < max; i++ {
		x := ab[i] ^ bb[i]
		if x == 0 {
			n += 8
			continue
		}
		for bit := 7; bit >= 0; bit-- {
			if x&(1<<uint(bit)) != 0 {
				break
			}
			n++
		}
		break
	}
	if n > max {
		n = max
	}
	return n
}

// bitAfter returns the bit of addr at position bits (the first bit after
// a prefix of length bits), or 0 if bits is the full address width.
func bitAfter(addr netip.Addr, bits int) int {
	if bits >= netutil.FamilyBits(addr) {
		return 0
	}
	return netutil.Bit(addr, bits)
}

// Insert stores value under prefix p, replacing any existing value.
// The prefix is canonicalised (masked) first. It returns an error only
// if p is invalid.
func (t *Tree[V]) Insert(p netip.Prefix, value V) error {
	cp, err := netutil.Canonical(p)
	if err != nil {
		return err
	}
	rp := t.rootFor(cp)
	inserted := t.insert(rp, cp, value)
	if inserted {
		t.count++
	}
	return nil
}

// insert returns true if a new valued node was created (false if an
// existing value was replaced).
func (t *Tree[V]) insert(np **node[V], p netip.Prefix, value V) bool {
	n := *np
	if n == nil {
		*np = t.newNode(p, value, true)
		return true
	}
	cb := commonBits(n.prefix.Addr(), p.Addr(), minInt(n.prefix.Bits(), p.Bits()))
	switch {
	case cb == n.prefix.Bits() && cb == p.Bits():
		// Same prefix: replace or set value.
		n = t.own(np)
		created := !n.hasValue()
		n.set(value, true)
		return created
	case cb == n.prefix.Bits():
		// p is longer and inside n: descend.
		n = t.own(np)
		b := bitAfter(p.Addr(), n.prefix.Bits())
		return t.insert(&n.child[b], p, value)
	case cb == p.Bits():
		// p is shorter and covers n: p becomes the parent of n, which
		// is linked, not written, and so stays whoever's it was.
		nn := t.newNode(p, value, true)
		b := bitAfter(n.prefix.Addr(), p.Bits())
		nn.child[b] = n
		*np = nn
		return true
	default:
		// Diverge below cb: create a glue node.
		var none V
		glue := t.newNode(netip.PrefixFrom(n.prefix.Addr(), cb).Masked(), none, false)
		nb := bitAfter(n.prefix.Addr(), cb)
		pb := bitAfter(p.Addr(), cb)
		glue.child[nb] = n
		glue.child[pb] = t.newNode(p, value, true)
		*np = glue
		return true
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Lookup returns the value stored at exactly prefix p.
func (t *Tree[V]) Lookup(p netip.Prefix) (V, bool) {
	var zero V
	cp, err := netutil.Canonical(p)
	if err != nil {
		return zero, false
	}
	n := *t.rootFor(cp)
	for n != nil {
		cb := commonBits(n.prefix.Addr(), cp.Addr(), minInt(n.prefix.Bits(), cp.Bits()))
		if cb < n.prefix.Bits() {
			return zero, false
		}
		if n.prefix.Bits() == cp.Bits() {
			if n.hasValue() {
				return n.value, true
			}
			return zero, false
		}
		n = n.child[bitAfter(cp.Addr(), n.prefix.Bits())]
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
	cp, err := netutil.Canonical(p)
	if err != nil {
		return false
	}
	// A miss must not copy anything, so look before writing.
	if _, ok := t.Lookup(cp); !ok {
		return false
	}
	t.count--
	np := t.rootFor(cp)
	var parent **node[V] // the slot of the node that np is a child slot of
	for (*np).prefix.Bits() != cp.Bits() {
		n := t.own(np)
		parent, np = np, &n.child[bitAfter(cp.Addr(), n.prefix.Bits())]
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
	var n *node[V]
	if addr.Is4() {
		n = t.root4
	} else if addr.Is6() {
		n = t.root6
	}
	max := 0
	if addr.IsValid() {
		max = netutil.FamilyBits(addr)
	}
	for n != nil {
		cb := commonBits(n.prefix.Addr(), addr, minInt(n.prefix.Bits(), max))
		if cb < n.prefix.Bits() {
			break
		}
		if n.hasValue() {
			dst = append(dst, Entry[V]{Prefix: n.prefix, Value: n.value})
		}
		if n.prefix.Bits() >= max {
			break
		}
		n = n.child[bitAfter(addr, n.prefix.Bits())]
	}
	return dst
}

// CoveringPrefix appends every (prefix, value) pair whose prefix covers
// the whole of p (i.e. prefix length <= p.Bits() and containing p), from
// shortest to longest. RFC 6811 matching uses this form.
func (t *Tree[V]) CoveringPrefix(p netip.Prefix, dst []Entry[V]) []Entry[V] {
	cp, err := netutil.Canonical(p)
	if err != nil {
		return dst
	}
	n := *t.rootFor(cp)
	for n != nil {
		if n.prefix.Bits() > cp.Bits() {
			break
		}
		cb := commonBits(n.prefix.Addr(), cp.Addr(), n.prefix.Bits())
		if cb < n.prefix.Bits() {
			break
		}
		if n.hasValue() {
			dst = append(dst, Entry[V]{Prefix: n.prefix, Value: n.value})
		}
		if n.prefix.Bits() == cp.Bits() {
			break
		}
		n = n.child[bitAfter(cp.Addr(), n.prefix.Bits())]
	}
	return dst
}

// LongestMatch returns the longest prefix in the tree containing addr.
func (t *Tree[V]) LongestMatch(addr netip.Addr) (netip.Prefix, V, bool) {
	var zero V
	es := t.Covering(addr, nil)
	if len(es) == 0 {
		return netip.Prefix{}, zero, false
	}
	e := es[len(es)-1]
	return e.Prefix, e.Value, true
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
		if !fn(n.prefix, n.value) {
			return false
		}
	}
	return walk(n.child[0], fn) && walk(n.child[1], fn)
}

// Subtree appends every valued entry covered by p (including p itself),
// in lexical order.
func (t *Tree[V]) Subtree(p netip.Prefix, dst []Entry[V]) []Entry[V] {
	t.WalkSubtree(p, func(q netip.Prefix, v V) bool {
		dst = append(dst, Entry[V]{Prefix: q, Value: v})
		return true
	})
	return dst
}

// WalkSubtree visits every valued entry covered by p (including p
// itself) in lexical order, in place: nothing is copied or allocated.
// If fn returns false the walk stops early.
func (t *Tree[V]) WalkSubtree(p netip.Prefix, fn func(netip.Prefix, V) bool) {
	cp, err := netutil.Canonical(p)
	if err != nil {
		return
	}
	n := *t.rootFor(cp)
	for n != nil {
		cb := commonBits(n.prefix.Addr(), cp.Addr(), minInt(n.prefix.Bits(), cp.Bits()))
		if n.prefix.Bits() >= cp.Bits() {
			if cb == cp.Bits() {
				walk(n, fn)
			}
			return
		}
		if cb < n.prefix.Bits() {
			return
		}
		n = n.child[bitAfter(cp.Addr(), n.prefix.Bits())]
	}
}

// String summarises the tree for debugging.
func (t *Tree[V]) String() string {
	return fmt.Sprintf("radix.Tree(%d prefixes)", t.count)
}
