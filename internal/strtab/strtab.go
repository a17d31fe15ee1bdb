// Package strtab provides a compact append-only string table: every
// string lives in one contiguous byte slab and is addressed by a dense
// uint32 id. A table holding a million short names costs two slice
// allocations instead of a million string objects, which is what lets
// web-scale domain populations (the paper's Alexa top 1M) fit in memory
// without drowning the garbage collector in pointers.
//
// A table supports two insertion modes:
//
//   - Intern deduplicates: equal strings get equal ids, at the cost of
//     a name index — an open-addressed array of ids, 4 bytes a slot,
//     at most three quarters full, whose probes compare against the
//     slab (it holds no string data or pointer of its own);
//   - Append stores unconditionally and touches no index — the arena
//     mode for populations that are unique by construction (ranked
//     domain names embed their rank).
//
// Get is zero-copy: the returned string aliases the slab. The slab is
// append-only, so previously returned strings stay valid across growth.
// A Table is not safe for concurrent mutation; once building is done,
// any number of readers may call Get/Lookup/Len concurrently.
package strtab

import (
	"hash/maphash"
	"slices"
	"unsafe"
)

// Table is an append-only string table. The zero value is NOT ready to
// use; call New or NewSized.
type Table struct {
	slab []byte
	offs []uint32 // offs[id] .. offs[id+1] bound string id in the slab
	// index is Intern's name index: a power-of-two array probed
	// linearly from a string's hash, each slot id+1 or 0 for empty.
	index []uint32
	seed  maphash.Seed
}

// New returns an empty table.
func New() *Table { return NewSized(0, 0) }

// NewSized returns an empty table preallocated for about n strings
// totalling about bytes slab bytes; Intern sizes its index for n.
func NewSized(n, bytes int) *Table {
	t := &Table{offs: make([]uint32, 1, n+1)}
	if bytes > 0 {
		t.slab = make([]byte, 0, bytes)
	}
	return t
}

// add stores b's bytes and returns the new id. Total slab size must
// stay below 4 GiB (uint32 offsets); a million domain names is ~16 MB.
func (t *Table) add(b []byte) uint32 {
	id := uint32(len(t.offs) - 1)
	t.slab = append(t.slab, b...)
	t.offs = append(t.offs, uint32(len(t.slab)))
	return id
}

// Append stores b unconditionally (no deduplication, no index) and
// returns its id. Arena mode: use when inputs are unique by
// construction and the index of Intern buys nothing.
func (t *Table) Append(b []byte) uint32 { return t.add(b) }

// Intern returns the id of s, storing it on first sight. Equal strings
// always get equal ids. Do not mix Intern and Append on one table:
// Append'd strings are invisible to Intern's deduplication.
func (t *Table) Intern(s string) uint32 {
	if t.index == nil {
		t.seed = maphash.MakeSeed()
		t.index = make([]uint32, slotsFor(cap(t.offs)-1)) // NewSized's n
	}
	slot, found := t.find(s)
	if found {
		return t.index[slot] - 1
	}
	id := t.add(unsafe.Slice(unsafe.StringData(s), len(s)))
	t.index[slot] = id + 1
	if t.Len() > len(t.index)/4*3 {
		t.grow()
	}
	return id
}

// Lookup returns the id of a previously Intern'd string.
func (t *Table) Lookup(s string) (uint32, bool) {
	if t.index == nil {
		return 0, false
	}
	slot, found := t.find(s)
	if !found {
		return 0, false
	}
	return t.index[slot] - 1, true
}

// find probes the index for s: the slot holding its id, or the empty
// slot where it would go.
func (t *Table) find(s string) (slot int, found bool) {
	mask := len(t.index) - 1
	for i := int(maphash.String(t.seed, s)) & mask; ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			return i, false
		}
		if t.Get(e-1) == s {
			return i, true
		}
	}
}

// grow doubles the index and re-places every id it holds.
func (t *Table) grow() {
	old := t.index
	t.index = make([]uint32, 2*len(old))
	for _, e := range old {
		if e != 0 {
			slot, _ := t.find(t.Get(e - 1))
			t.index[slot] = e
		}
	}
}

// slotsFor returns the index size for n strings: a power of two, at
// least 8, that n fills at most three quarters of.
func slotsFor(n int) int {
	size := 8
	for size/4*3 < n {
		size *= 2
	}
	return size
}

// Clip gives back the spare capacity of the slab and the offsets, for a
// table sized for more than it got: each that has any is copied to its
// length. Strings Get returned before stay valid (they keep the old slab
// alive); the name index is kept as it is.
func (t *Table) Clip() {
	if cap(t.slab) > len(t.slab) {
		t.slab = slices.Clone(t.slab)
	}
	if cap(t.offs) > len(t.offs) {
		t.offs = slices.Clone(t.offs)
	}
}

// Get returns string id. The result aliases the slab (zero-copy) and
// stays valid for the lifetime of the table.
func (t *Table) Get(id uint32) string {
	lo, hi := t.offs[id], t.offs[id+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&t.slab[lo], int(hi-lo))
}

// Len returns the number of stored strings.
func (t *Table) Len() int { return len(t.offs) - 1 }

// Footprint returns the heap bytes the table holds — slab, offsets and
// name index, each by capacity — for memory accounting.
func (t *Table) Footprint() int {
	return cap(t.slab) + 4*cap(t.offs) + 4*cap(t.index)
}
