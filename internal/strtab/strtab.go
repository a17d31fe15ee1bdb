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
//     an internal map (whose keys alias the slab, so the map adds no
//     string data of its own);
//   - Append stores unconditionally and touches no map — the arena mode
//     for populations that are unique by construction (ranked domain
//     names embed their rank).
//
// Get is zero-copy: the returned string aliases the slab. The slab is
// append-only, so previously returned strings and map keys stay valid
// across growth. A Table is not safe for concurrent mutation; once
// building is done, any number of readers may call Get/Lookup/Len
// concurrently.
package strtab

import "unsafe"

// Table is an append-only string table. The zero value is NOT ready to
// use; call New or NewSized.
type Table struct {
	slab []byte
	offs []uint32 // offs[id] .. offs[id+1] bound string id in the slab
	ids  map[string]uint32
}

// New returns an empty table.
func New() *Table { return NewSized(0, 0) }

// NewSized returns an empty table preallocated for about n strings
// totalling about bytes slab bytes.
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

// Append stores b unconditionally (no deduplication, no map) and
// returns its id. Arena mode: use when inputs are unique by
// construction and the map overhead of Intern buys nothing.
func (t *Table) Append(b []byte) uint32 { return t.add(b) }

// Intern returns the id of s, storing it on first sight. Equal strings
// always get equal ids. Do not mix Intern and Append on one table:
// Append'd strings are invisible to Intern's deduplication.
func (t *Table) Intern(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]uint32, cap(t.offs)-1) // NewSized's n
	}
	id := t.add(unsafe.Slice(unsafe.StringData(s), len(s)))
	// Key with the slab-backed copy, not the caller's string, so the
	// map holds no reference to caller memory.
	t.ids[t.Get(id)] = id
	return id
}

// Lookup returns the id of a previously Intern'd string.
func (t *Table) Lookup(s string) (uint32, bool) {
	id, ok := t.ids[s]
	return id, ok
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

// Bytes returns the slab size in bytes (the sum of stored string
// lengths), for memory accounting.
func (t *Table) Bytes() int { return len(t.slab) }
