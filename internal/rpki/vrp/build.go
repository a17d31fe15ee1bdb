package vrp

import (
	"cmp"
	"net/netip"
	"slices"

	"ripki/internal/radix"
)

// row is a checked VRP as a table is built from it: the prefix's
// address as a radix key (left-aligned in two machine words, an IPv4
// address in the top half of the first), its family, its length, the
// maxLength and the ASN. It is 24 bytes with no pointer in it, where a
// VRP is 48 with the address's zone pointer, so the collector never
// scans a builder's chunks and compareRows orders rows on words, not
// through netip.Addr.Compare.
type row struct {
	key          radix.Key
	asn          uint32
	v6           bool
	bits, maxLen uint8
}

// rowOf packs a checked VRP.
func rowOf(v VRP) row {
	r := keyOf(v.Prefix)
	r.asn, r.maxLen = v.ASN, uint8(v.MaxLength)
	return r
}

// keyOf packs a canonical prefix into a row's prefix fields.
func keyOf(p netip.Prefix) row {
	return row{key: radix.KeyOf(p.Addr()), v6: !p.Addr().Is4(), bits: uint8(p.Bits())}
}

// prefix rebuilds the row's canonical prefix in its own family.
func (r row) prefix() netip.Prefix { return r.key.Prefix(!r.v6, int(r.bits)) }

// samePrefix reports whether two rows are at one prefix.
func (r row) samePrefix(s row) bool {
	return r.key == s.key && r.v6 == s.v6 && r.bits == s.bits
}

// compareRows is Compare on rows: IPv4 first, then address, prefix
// length, maxLength and ASN.
func compareRows(a, b row) int {
	if c := compareKeys(a, b); c != 0 {
		return c
	}
	if c := cmp.Compare(a.maxLen, b.maxLen); c != 0 {
		return c
	}
	return cmp.Compare(a.asn, b.asn)
}

// compareKeys is netutil.ComparePrefixes on the prefix fields of rows.
func compareKeys(a, b row) int {
	if a.v6 != b.v6 {
		if a.v6 {
			return 1
		}
		return -1
	}
	if c := cmp.Compare(a.key.Hi, b.key.Hi); c != 0 {
		return c
	}
	if c := cmp.Compare(a.key.Lo, b.key.Lo); c != 0 {
		return c
	}
	return cmp.Compare(a.bits, b.bits)
}

// build is the one constructor of a table that is loaded whole from
// one array: it takes ownership of rows — checked rows in any order,
// repeats allowed — sorts them if they did not arrive in order, drops
// repeats and freezes the sorted array into the table's base. The rows
// are garbage once it returns.
func build(rows []row) table {
	if !slices.IsSortedFunc(rows, compareRows) {
		slices.SortFunc(rows, compareRows)
	}
	return loaded(frozenFrom([][]row{slices.Compact(rows)}))
}

// buildChecked is build over a caller's slice: the VRPs are checked
// into rows of exactly their number.
func buildChecked(vs []VRP) (table, error) {
	rows := make([]row, len(vs))
	for i, v := range vs {
		v, err := checked(v)
		if err != nil {
			return table{}, err
		}
		rows[i] = rowOf(v)
	}
	return build(rows), nil
}

// builderChunk is the most rows a Builder holds per allocation (4096
// rows are 96 KiB); chunks double from builderFirst up to it, so a
// table of a few thousand VRPs — a simulated relying party's — does not
// pay for a validator's. The row count is unknown until the input ends.
// Rows that arrived strictly in order — an RTR cache's full response, a
// sorted export — are frozen into the table's base where they lie.
// Any other input is copied once into a slice of exactly its size and
// sorted there, which leaves behind the final size in garbage where
// growing one slice leaves up to four times it (a large slice grows by a
// quarter); that showed in a starting daemon's peak resident size.
const (
	builderFirst = 64
	builderChunk = 4096
)

// Builder collects the rows of a set that is loaded whole from an input
// of unknown length — a CSV file, an RTR full response — and builds it
// once, at the end, into the same frozen base as FromVRPs. Collecting
// touches no set and takes no lock. The zero value is ready to use.
type Builder struct {
	chunks [][]row
	n      int
	// disordered says some row did not come strictly after the one
	// before it in Compare order: out of order, or a repeat.
	disordered bool
	// dead maps a removed row to the number of rows held when it was
	// last removed: rows before that position holding it are dropped.
	dead map[row]int
}

// Add appends one VRP, checked as Set.Insert checks it. A repeat is
// harmless: the set holds each triple once.
func (b *Builder) Add(v VRP) error {
	v, err := checked(v)
	if err != nil {
		return err
	}
	b.add(rowOf(v))
	return nil
}

// add appends a checked row.
func (b *Builder) add(r row) {
	last := len(b.chunks) - 1
	if last >= 0 && !b.disordered {
		c := b.chunks[last]
		b.disordered = compareRows(c[len(c)-1], r) >= 0
	}
	if last < 0 || len(b.chunks[last]) == cap(b.chunks[last]) {
		size := builderFirst
		if last >= 0 {
			size = min(2*cap(b.chunks[last]), builderChunk)
		}
		b.chunks = append(b.chunks, make([]row, 0, size))
		last++
	}
	b.chunks[last] = append(b.chunks[last], r)
	b.n++
}

// Remove cancels every Add of v made so far; a later Add counts again,
// so the last of the two for a triple decides, as with Insert and Remove
// on a set. A VRP no set would take was never added and cancels nothing.
func (b *Builder) Remove(v VRP) {
	v, err := checked(v)
	if err != nil {
		return
	}
	if b.dead == nil {
		b.dead = make(map[row]int)
	}
	b.dead[rowOf(v)] = b.n
}

// Set builds the set from the rows collected and leaves the builder
// empty. Rows that arrived strictly in order, none removed, are frozen
// into the table's base from the chunks they lie in; anything else is
// copied out and built as FromVRPs builds.
func (b *Builder) Set() *Set {
	var t table
	if !b.disordered && b.dead == nil {
		t = loaded(frozenFrom(b.chunks))
	} else {
		t = build(b.copyRows())
	}
	*b = Builder{}
	return &Set{table: t}
}

// copyRows copies the rows still wanted — not those a later Remove
// cancelled — into one slice of exactly their number, releasing each
// chunk as it is copied.
func (b *Builder) copyRows() []row {
	rows := make([]row, 0, b.n)
	at := 0 // how many rows were added before the one in hand
	for i, c := range b.chunks {
		if b.dead == nil {
			rows = append(rows, c...)
		} else {
			for _, r := range c {
				if before, gone := b.dead[r]; !gone || at >= before {
					rows = append(rows, r)
				}
				at++
			}
		}
		b.chunks[i] = nil
	}
	return rows
}
