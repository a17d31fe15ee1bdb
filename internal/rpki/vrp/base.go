package vrp

import "ripki/internal/radix"

// node is one prefix of a frozen base: its address as the radix key a
// row holds, its length and family, its children as indices into the
// base's node array (0 for none: the first node is a root, and a root
// is no node's child) and the offset of its first payload. Its payloads run up to the next node's offset,
// so a node that only branches holds none. It is 32 bytes with no
// pointer in it: the collector never scans a base, however large.
type node struct {
	key   radix.Key
	child [2]uint32
	off   uint32
	bits  uint8
	v6    bool
}

// frozen is an immutable path-compressed binary trie of prefixes and
// their payloads, laid out in two pointer-free arrays. The nodes lie in
// walk order — a node before what it covers, its 0 branch before its 1
// branch, IPv4 before IPv6 — which is Compare order on prefixes, so the
// payloads of successive nodes lie back to back in one array and a
// listing of the base is a pass over both arrays. One last node past
// the trie holds only the end offset. A frozen base is built once
// (frozenFrom) and never written: any number of tables and readers
// share it without a lock.
type frozen struct {
	nodes    []node
	payloads []payload
	v6       uint32 // the first IPv6 node; the IPv4 trie lies before it
	prefixes int    // the nodes that hold payloads
}

// root returns the root of the family's trie, if it has one.
func (f *frozen) root(v6 bool) (uint32, bool) {
	if v6 {
		return f.v6, int(f.v6)+1 < len(f.nodes)
	}
	return 0, f.v6 > 0
}

// at returns node i's payloads, capacity clipped to length.
func (f *frozen) at(i uint32) []payload {
	end := f.nodes[i+1].off
	return f.payloads[f.nodes[i].off:end:end]
}

// holds reports whether the node's prefix contains the key k of its
// family.
func (n *node) holds(k radix.Key) bool {
	return radix.CommonBits(n.key, k, int(n.bits)) == int(n.bits)
}

// row returns the node's prefix as a row, with no payload.
func (n *node) row() row { return row{key: n.key, v6: n.v6, bits: n.bits} }

// covering appends, shortest first, the index of every node with
// payloads whose prefix covers the canonical prefix q (a row's prefix
// fields).
func (f *frozen) covering(q row, dst []uint32) []uint32 {
	i, ok := f.root(q.v6)
	for ok {
		n := &f.nodes[i]
		if n.bits > q.bits || !n.holds(q.key) {
			break
		}
		if f.nodes[i+1].off != n.off {
			dst = append(dst, i)
		}
		if n.bits == q.bits {
			break
		}
		i = n.child[q.key.Bit(int(n.bits))]
		ok = i != 0
	}
	return dst
}

// lookup returns the payloads at exactly the canonical prefix q; nil
// when the base holds none there. It is the last covering node, if that
// one is q's own.
func (f *frozen) lookup(q row) []payload {
	var buf [8]uint32
	c := f.covering(q, buf[:0])
	if len(c) == 0 || f.nodes[c[len(c)-1]].bits != q.bits {
		return nil
	}
	return f.at(c[len(c)-1])
}

// rowSource hands fn rows in strict Compare order (no repeats), the
// same rows each time it is called. frozenOf reads it twice, the second
// time with last set: a source may let go of what it has handed over
// then.
type rowSource func(last bool, fn func(row))

// chunkRows is the source of rows held in chunks, releasing each chunk
// on the last read.
func chunkRows(chunks [][]row) rowSource {
	return func(last bool, fn func(row)) {
		for i, c := range chunks {
			for _, r := range c {
				fn(r)
			}
			if last {
				chunks[i] = nil
			}
		}
	}
}

// frozenFrom builds the base of rows held in one or more chunks.
func frozenFrom(chunks [][]row) frozen { return frozenOf(chunkRows(chunks)) }

// frozenOf builds the base of a source's rows into arrays of exactly the
// size it needs and nothing else of any size: no pointer tree on the way
// and no copy of the rows. A first read counts the prefixes and the
// branch-only nodes the trie needs (shape). The second writes every
// payload and, at the far end of the node array, every prefix's node in
// order. The trie is then laid out from the front of the same array in
// walk order (lay), each prefix's node read before the write cursor can
// reach it.
func frozenOf(rows rowSource) frozen {
	var sh shape
	rows(false, sh.add)
	if sh.n == 0 {
		return frozen{}
	}
	f := frozen{
		nodes:    make([]node, sh.prefixes+sh.glue+1),
		payloads: make([]payload, sh.n),
		prefixes: sh.prefixes,
	}
	w := filler{nodes: f.nodes, payloads: f.payloads, tail: sh.glue}
	rows(true, w.add)
	f.nodes[len(f.nodes)-1] = node{off: uint32(sh.n)}
	l := layout{nodes: f.nodes}
	if sh.v4 > 0 {
		l.lay(sh.glue, sh.glue+sh.v4)
	}
	f.v6 = l.next
	if sh.v4 < sh.prefixes {
		l.lay(sh.glue+sh.v4, sh.glue+sh.prefixes)
	}
	return f
}

// shape counts what frozenOf lays out from sorted rows, one row at a
// time: the rows, the distinct prefixes and the IPv4 ones among them,
// and the branch-only nodes a path-compressed trie over those prefixes
// needs. Walking the prefixes in order, a prefix either lies inside the
// one before it or branches away from it at their common length c; each
// branch point is met exactly once that way (where the walk crosses from
// its 0 side to its 1 side), and it needs a node of its own unless a
// prefix of length c covers both — which then lies on the chain of
// prefixes covering the one before.
type shape struct {
	n, prefixes, v4, glue int
	chain                 [129]uint8 // lengths of the prefixes covering the one in hand
	depth                 int
	prev                  row
}

func (s *shape) add(r row) {
	s.n++
	if s.n > 1 && r.samePrefix(s.prev) {
		return
	}
	switch {
	case s.n == 1:
	case r.v6 != s.prev.v6:
		s.depth = 0
	default:
		cl := uint8(radix.CommonBits(s.prev.key, r.key, int(min(s.prev.bits, r.bits))))
		for s.depth > 0 && s.chain[s.depth-1] > cl {
			s.depth--
		}
		if cl < s.prev.bits && (s.depth == 0 || s.chain[s.depth-1] != cl) {
			s.glue++
		}
	}
	s.chain[s.depth] = r.bits
	s.depth++
	s.prefixes++
	if !r.v6 {
		s.v4++
	}
	s.prev = r
}

// filler writes the rows into a base's arrays, one row at a time: every
// payload, and each prefix's node at the far end of the node array
// (from tail on), in order.
type filler struct {
	nodes    []node
	payloads []payload
	tail, at int
	prev     row
}

func (w *filler) add(r row) {
	if w.at == 0 || !r.samePrefix(w.prev) {
		w.nodes[w.tail] = node{key: r.key, off: uint32(w.at), bits: r.bits, v6: r.v6}
		w.tail++
	}
	w.payloads[w.at] = payload{asn: r.asn, maxLen: r.maxLen}
	w.at++
	w.prev = r
}

// layout writes a trie into a node array whose far end holds the
// prefixes' nodes in order; next is the write cursor.
type layout struct {
	nodes []node
	next  uint32
}

// lay writes the trie over the waiting prefix nodes [lo, hi) of one
// family at the cursor, in walk order, and returns its root's index.
// The prefixes share their first c bits, c being the common length of
// the first and the last (they are sorted): the root is the first
// prefix if it is that long, or else a branch-only node at length c,
// and the rest split on bit c into the 0 side and the 1 side. The
// cursor never passes the next prefix node still waiting: it stands at
// the prefixes laid plus the branch nodes laid, and fewer branch nodes
// than the trie needs have been laid while a prefix still waits.
func (l *layout) lay(lo, hi int) uint32 {
	first, last := l.nodes[lo], l.nodes[hi-1]
	c := uint8(radix.CommonBits(first.key, last.key, int(min(first.bits, last.bits))))
	n := first
	if first.bits == c {
		lo++
	} else {
		// A branch-only node: its payloads run to the next node's offset,
		// which is its first prefix's, so it holds none.
		n.key = first.key.Masked(int(c))
		n.bits = c
	}
	at := l.next
	l.next++
	l.nodes[at] = n
	if lo == hi {
		return at
	}
	// The first waiting node with bit c set: the 1 side.
	split, end := lo, hi
	for split < end {
		mid := int(uint(split+end) >> 1)
		if l.nodes[mid].key.Bit(int(c)) == 0 {
			split = mid + 1
		} else {
			end = mid
		}
	}
	var child [2]uint32
	if split > lo {
		child[0] = l.lay(lo, split)
	}
	if split < hi {
		child[1] = l.lay(split, hi)
	}
	l.nodes[at].child = child
	return at
}
