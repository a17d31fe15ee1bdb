package vrp

import "slices"

// build is the one constructor of a table that is loaded whole from
// one array: it takes ownership of rows — checked VRPs in any order,
// repeats allowed — sorts them by Compare if they did not arrive so,
// drops repeats and fills the tree from the sorted array. The table's
// per-prefix values are windows of rows (see fill), so the array lives
// as long as any prefix that was in it.
func build(rows []VRP) table {
	if !slices.IsSortedFunc(rows, Compare) {
		slices.SortFunc(rows, Compare)
	}
	var t table
	t.fill([][]VRP{slices.Compact(rows)})
	return t
}

// buildChecked is build over a caller's slice: the rows are checked
// into a copy of exactly their number, which the table then owns.
func buildChecked(vs []VRP) (table, error) {
	rows := make([]VRP, len(vs))
	for i, v := range vs {
		var err error
		if rows[i], err = checked(v); err != nil {
			return table{}, err
		}
	}
	return build(rows), nil
}

// builderChunk is the most rows a Builder holds per allocation (4096
// VRPs are 192 KiB); chunks double from builderFirst up to it, so a
// table of a few thousand VRPs — a simulated relying party's — does not
// pay for a validator's. The row count is unknown until the input ends.
// Rows that arrived strictly in Compare order — an RTR cache's full
// response, a sorted export — need no array of their own: the table is
// filled from the chunks where they lie. Any other input is copied once
// into a slice of exactly its size and sorted there, which leaves behind
// the final size in garbage where growing one slice leaves up to four
// times it (a large slice grows by a quarter); that showed in a starting
// daemon's peak resident size.
const (
	builderFirst = 64
	builderChunk = 4096
)

// Builder collects the rows of a set that is loaded whole from an input
// of unknown length — a CSV file, an RTR full response — and builds it
// once, at the end, by the same fill as FromVRPs. Collecting touches no
// set and takes no lock. The zero value is ready to use.
type Builder struct {
	chunks [][]VRP
	n      int
	// disordered says some row did not come strictly after the one
	// before it in Compare order: out of order, or a repeat.
	disordered bool
	// dead maps a removed VRP to the number of rows held when it was
	// last removed: rows before that position holding it are dropped.
	dead map[VRP]int
}

// Add appends one VRP, checked as Set.Insert checks it. A repeat is
// harmless: the set holds each triple once.
func (b *Builder) Add(v VRP) error {
	v, err := checked(v)
	if err != nil {
		return err
	}
	b.add(v)
	return nil
}

// add appends a checked row.
func (b *Builder) add(v VRP) {
	last := len(b.chunks) - 1
	if last >= 0 && !b.disordered {
		c := b.chunks[last]
		b.disordered = Compare(c[len(c)-1], v) >= 0
	}
	if last < 0 || len(b.chunks[last]) == cap(b.chunks[last]) {
		size := builderFirst
		if last >= 0 {
			size = min(2*cap(b.chunks[last]), builderChunk)
		}
		b.chunks = append(b.chunks, make([]VRP, 0, size))
		last++
	}
	b.chunks[last] = append(b.chunks[last], v)
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
		b.dead = make(map[VRP]int)
	}
	b.dead[v] = b.n
}

// Set builds the set from the rows collected and leaves the builder
// empty. Rows that arrived strictly in order, none removed, become the
// table where they lie: each prefix's value is a window of its chunk.
// Anything else is copied out and built as FromVRPs builds.
func (b *Builder) Set() *Set {
	var t table
	if !b.disordered && b.dead == nil {
		t.fill(b.chunks)
	} else {
		t = build(b.copyRows())
	}
	*b = Builder{}
	return &Set{table: t}
}

// copyRows copies the rows still wanted — not those a later Remove
// cancelled — into one slice of exactly their number, releasing each
// chunk as it is copied.
func (b *Builder) copyRows() []VRP {
	rows := make([]VRP, 0, b.n)
	at := 0 // how many rows were added before the one in hand
	for i, c := range b.chunks {
		if b.dead == nil {
			rows = append(rows, c...)
		} else {
			for _, v := range c {
				if before, gone := b.dead[v]; !gone || at >= before {
					rows = append(rows, v)
				}
				at++
			}
		}
		b.chunks[i] = nil
	}
	return rows
}
