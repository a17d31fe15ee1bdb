package vrp

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"ripki/internal/netutil"
	"ripki/internal/radix"
)

// insertOneByOne is how every table was built before build: a lookup, a
// slice copy and a tree insertion per VRP. It is the oracle for the
// bulk constructor.
func insertOneByOne(t testing.TB, vs []VRP) *Set {
	t.Helper()
	s := NewSet()
	for _, v := range vs {
		if _, err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// mixedVRPs draws n VRPs of both families from a universe small enough
// that prefixes repeat with different payloads.
func mixedVRPs(rnd *rand.Rand, n int) []VRP {
	vs := randomVRPs(rnd, n/2)
	for len(vs) < n {
		bits := 32 + rnd.Intn(17)
		a := [16]byte{0x20, 0x01, 0x0d, 0xb8, byte(rnd.Intn(4)), byte(rnd.Intn(256))}
		p := netip.PrefixFrom(netip.AddrFrom16(a), bits).Masked()
		vs = append(vs, VRP{Prefix: p, MaxLength: bits + rnd.Intn(128-bits+1), ASN: uint32(64500 + rnd.Intn(16))})
	}
	return vs
}

// TestBulkBuildMatchesInsertOneByOne: every way of loading a table
// whole — FromVRPs, NewIndex, a Builder, ReadCSV — gives the table that
// inserting the same VRPs one at a time gives: the same All, Len and
// tree shape, and the same answer with the same covering list for
// random routes; for input in order, shuffled, with repeats, and of
// both families.
func TestBulkBuildMatchesInsertOneByOne(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	base := mixedVRPs(rnd, 3*builderChunk+11)
	sorted := slices.Clone(base)
	slices.SortFunc(sorted, Compare)
	repeated := append(slices.Clone(base), base[:len(base)/3]...)
	rnd.Shuffle(len(repeated), func(i, j int) { repeated[i], repeated[j] = repeated[j], repeated[i] })
	unmasked := slices.Clone(base[:64])
	for i := range unmasked {
		// Host bits set: every constructor canonicalises.
		a := unmasked[i].Prefix.Addr().AsSlice()
		a[len(a)-1] |= 1
		addr, _ := netip.AddrFromSlice(a)
		unmasked[i].Prefix = netip.PrefixFrom(addr, unmasked[i].Prefix.Bits())
	}
	for name, vs := range map[string][]VRP{
		"shuffled": base, "sorted": sorted, "repeated": repeated, "unmasked": unmasked,
		"ipv4 only": randomVRPs(rnd, 500), "empty": nil,
	} {
		input := slices.Clone(vs)
		oracle := insertOneByOne(t, vs)
		want := oracle.All()

		set, err := FromVRPs(vs)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := NewIndex(vs)
		if err != nil {
			t.Fatal(err)
		}
		var b Builder
		for _, v := range vs {
			if err := b.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		built := b.Set()
		read, err := ReadCSV(bytes.NewReader(csvOf(vs)))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(vs, input) {
			t.Fatalf("%s: a constructor wrote the caller's slice", name)
		}
		sameTable(t, name+": FromVRPs", set, want)
		sameTable(t, name+": Builder", built, want)
		sameTable(t, name+": ReadCSV", read, want)
		if got := ix.all(); !slices.Equal(got, want) || ix.Len() != len(want) {
			t.Fatalf("%s: NewIndex holds %d VRPs, one by one %d", name, ix.Len(), len(want))
		}
		if got, wantP := set.Prefixes(), prefixesIn(want); !slices.Equal(got, wantP) {
			t.Fatalf("%s: Prefixes = %v, want %v", name, got, wantP)
		}
		for i := 0; i < 400 && len(want) > 0; i++ {
			v := want[rnd.Intn(len(want))]
			// The VRP's own prefix, something more specific, and a
			// neighbour that may be covered by nothing.
			bits := v.Prefix.Bits() + rnd.Intn(v.Prefix.Addr().BitLen()-v.Prefix.Bits()+1)
			route := netip.PrefixFrom(v.Prefix.Addr(), bits)
			if i%3 == 0 {
				a := v.Prefix.Addr().AsSlice()
				a[1] ^= byte(rnd.Intn(256))
				addr, _ := netip.AddrFromSlice(a)
				route = netip.PrefixFrom(addr, bits).Masked()
			}
			asn := v.ASN + uint32(rnd.Intn(2))
			wantState, wantCov := oracle.ValidateExplain(route, asn)
			for which, q := range map[string]queryable{"FromVRPs": set, "NewIndex": ix, "Builder": built, "ReadCSV": read} {
				state, cov := q.ValidateExplain(route, asn)
				if state != wantState || !slices.Equal(cov, wantCov) {
					t.Fatalf("%s: %s.ValidateExplain(%v, AS%d) = %v %v, one by one %v %v",
						name, which, route, asn, state, cov, wantState, wantCov)
				}
			}
		}
	}
}

func prefixesIn(vs []VRP) []netip.Prefix {
	var out []netip.Prefix
	for _, v := range vs {
		if len(out) == 0 || out[len(out)-1] != v.Prefix {
			out = append(out, v.Prefix)
		}
	}
	return out
}

// TestBulkBuiltValuesAreClippedWindows: the per-prefix values of a
// table built whole are windows of its base's one payload array, so a
// prefix's neighbours in Compare order sit right behind its last VRP.
// Nothing may reach them: every window's capacity is its length (an
// append reallocates), and Insert and Remove at a prefix replace its
// value in the overlay, so an index frozen before a run of writes lists
// afterwards what it listed then.
func TestBulkBuiltValuesAreClippedWindows(t *testing.T) {
	universe := sharedUniverse()
	rnd := rand.New(rand.NewSource(9))
	held := make([]VRP, 0, len(universe))
	for _, v := range universe {
		if rnd.Intn(3) > 0 {
			held = append(held, v)
		}
	}
	set, err := FromVRPs(held)
	if err != nil {
		t.Fatal(err)
	}
	set.each(func(k row, pls []payload) {
		if cap(pls) != len(pls) {
			t.Errorf("value at %v has capacity %d for %d VRPs: an append would write its neighbour", k.prefix(), cap(pls), len(pls))
		}
	})
	want := set.All()
	first, _ := set.at(want[0].Prefix)
	_ = append(first, payload{asn: 1, maxLen: 32})
	if got := set.All(); !slices.Equal(got, want) {
		t.Fatalf("appending to a prefix's value changed the table:\n got %v\nwant %v", got, want)
	}

	frozen := IndexOf(set)
	model := make(vrpModel)
	for _, v := range want {
		model[v] = true
	}
	var probes []netip.Prefix
	for _, s := range []string{"10.0.0.0/8", "10.1.2.0/24", "10.1.2.128/25", "10.2.3.0/24", "2001:db8:1::/48", "192.0.2.0/24"} {
		probes = append(probes, netutil.MustPrefix(s))
	}
	live := model.clone()
	for i := 0; i < 400; i++ {
		v := universe[rnd.Intn(len(universe))]
		if live[v] {
			set.Remove(v)
			delete(live, v)
		} else {
			if _, err := set.Insert(v); err != nil {
				t.Fatal(err)
			}
			live[v] = true
		}
		if i%20 == 0 {
			checkQueryable(t, "index frozen before the writes", frozen, model, probes)
			checkQueryable(t, "set after the writes", set, live, probes)
		}
	}
	checkQueryable(t, "index frozen before the writes", frozen, model, probes)
	checkQueryable(t, "set after the writes", set, live, probes)
}

// TestBuilderLastRecordDecides: Remove cancels the Adds before it and
// not the ones after, wherever the rows fall in the builder's chunks.
func TestBuilderLastRecordDecides(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	rows := randomVRPs(rnd, 2*builderChunk+50)
	at := func(s string, asn uint32) VRP {
		p := netutil.MustPrefix(s)
		return VRP{Prefix: p, MaxLength: p.Bits(), ASN: asn}
	}
	back, gone, late, never := at("192.0.2.0/24", 1), at("198.51.100.0/24", 2), at("203.0.113.0/24", 3), at("100.64.0.0/10", 4)
	var b Builder
	model := make(vrpModel)
	add := func(v VRP) {
		t.Helper()
		if err := b.Add(v); err != nil {
			t.Fatal(err)
		}
		model[v] = true
	}
	remove := func(v VRP) {
		b.Remove(v)
		delete(model, v)
	}
	add(back)
	add(gone)
	remove(late) // before its only Add: cancels nothing
	for i, v := range rows {
		add(v)
		switch i {
		case 10:
			remove(back)
		case builderChunk + 5:
			add(back)
			add(late)
			remove(rows[3])
			remove(never)
		case 2 * builderChunk:
			// Unmasked: a removal means the canonical triple.
			b.Remove(VRP{Prefix: netip.MustParsePrefix("198.51.100.7/24"), MaxLength: 24, ASN: 2})
			delete(model, gone)
			remove(rows[builderChunk+7])
		}
	}
	if err := b.Add(VRP{Prefix: netutil.MustPrefix("10.0.0.0/8"), MaxLength: 7, ASN: 1}); err == nil {
		t.Error("Add took a maxLength below the prefix length")
	}
	sameTable(t, "builder", b.Set(), model.all())
	if got := b.Set(); got.Len() != 0 {
		t.Errorf("a builder that has built holds %d VRPs, want none", got.Len())
	}
}

// runOfThree returns n distinct VRPs in Compare order, three to a /32
// and offset by one — the first two at a /24 that covers the rest — so
// that rows k-1 and k share a prefix whenever k ≡ 0 or 1 (mod 3): every
// chunk boundary a Builder has below 8128 rows (64, 192, 448, 960,
// 1984, 4032) falls inside a prefix's run.
func runOfThree(n int) []VRP {
	vs := make([]VRP, n)
	for k := range vs {
		m := (k + 1) / 3
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{1, byte(m >> 16), byte(m >> 8), byte(m)}), 32)
		if k < 2 {
			p = netip.PrefixFrom(netip.AddrFrom4([4]byte{1, 0, 0, 0}), 24)
		}
		vs[k] = VRP{Prefix: p, MaxLength: 32, ASN: uint32(64500 + (k+1)%3)}
	}
	return vs
}

// oneArray fails unless s is a base alone — no overlay — whose nodes
// lie in walk order with every prefix's payloads a clipped window of one
// array, starting where the window of the prefix before it ends.
func oneArray(t *testing.T, what string, s *Set) {
	t.Helper()
	if s.over.Len() != 0 {
		t.Errorf("%s: %d overlay entries in a table loaded whole", what, s.over.Len())
	}
	if len(s.base.payloads) != s.Len() || cap(s.base.payloads) != s.Len() {
		t.Errorf("%s: payload array of length %d, capacity %d for %d VRPs", what, len(s.base.payloads), cap(s.base.payloads), s.Len())
	}
	var end, prev uintptr
	var last row
	for i := range max(len(s.base.nodes)-1, 0) {
		k := s.base.nodes[i].row()
		if i > 0 && compareKeys(last, k) >= 0 {
			t.Errorf("%s: node %d (%v) does not come after %v", what, i, k.prefix(), last.prefix())
			return
		}
		last = k
		pls := s.base.at(uint32(i))
		if len(pls) == 0 {
			continue
		}
		at := uintptr(unsafe.Pointer(&pls[0]))
		switch {
		case cap(pls) != len(pls):
			t.Errorf("%s: value at %v has capacity %d for %d VRPs", what, k.prefix(), cap(pls), len(pls))
		case prev != 0 && at != end:
			t.Errorf("%s: value at %v does not start where the one before it ends", what, k.prefix())
		default:
			prev, end = at, at+uintptr(len(pls))*unsafe.Sizeof(payload{})
			continue
		}
		return
	}
}

// loadCase is a table loaded whole: the rows a Builder is fed, the VRPs
// then removed from it, and the table those leave.
type loadCase struct {
	rows, remove, want []VRP
}

// checkLoads loads each case through a Builder, FromVRPs, NewIndex and
// ReadCSV and fails unless every one ends in one array of payloads of
// which each prefix's value is a clipped window, the builder took the
// copy-and-sort path exactly when copied says so, and its table is the
// one FromVRPs builds from the rows it kept, with the same answers.
func checkLoads(t *testing.T, cases map[string]loadCase, copied bool) {
	t.Helper()
	rnd := rand.New(rand.NewSource(17))
	for name, tc := range cases {
		oracle, err := FromVRPs(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(oracle.All(), tc.want) {
			t.Fatalf("%s: the table wanted is not strictly in Compare order", name)
		}
		var b Builder
		for _, v := range tc.rows {
			if err := b.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range tc.remove {
			b.Remove(v)
		}
		if got := b.disordered || b.dead != nil; got != copied {
			t.Errorf("%s: the builder copies and sorts = %v, want %v", name, got, copied)
		}
		read, err := ReadCSV(bytes.NewReader(csvOf(tc.rows)))
		if err != nil {
			t.Fatal(err)
		}
		ix, err := NewIndex(tc.rows)
		if err != nil {
			t.Fatal(err)
		}
		built := b.Set()
		sameTable(t, name, built, tc.want)
		oneArray(t, name+": Builder", built)
		oneArray(t, name+": FromVRPs", oracle)
		oneArray(t, name+": ReadCSV", read)
		oneArray(t, name+": NewIndex", &Set{table: ix.table})
		for i := 0; i < 300; i++ {
			v := tc.want[rnd.Intn(len(tc.want))]
			route := netip.PrefixFrom(v.Prefix.Addr(), v.Prefix.Bits()+rnd.Intn(33-v.Prefix.Bits()))
			asn := v.ASN + uint32(rnd.Intn(2))
			wantState, wantCov := oracle.ValidateExplain(route, asn)
			if state, cov := built.ValidateExplain(route, asn); state != wantState || !slices.Equal(cov, wantCov) {
				t.Fatalf("%s: ValidateExplain(%v, AS%d) = %v %v, FromVRPs %v %v", name, route, asn, state, cov, wantState, wantCov)
			}
		}
	}
}

// TestSortedBuilderWindowsItsChunks: rows that reach a Builder strictly
// in Compare order are filled from the chunks they lie in, without a
// copy-and-sort, into one payload array of which every prefix's value is
// a clipped window — at sizes on both sides of the first chunk
// boundaries, past the chunk-size cap, and for one prefix whose rows
// fill three chunks. FromVRPs, NewIndex and ReadCSV of the same rows
// end the same way.
func TestSortedBuilderWindowsItsChunks(t *testing.T) {
	manyAtOne := make([]VRP, 0, 300)
	for asn := uint32(1); len(manyAtOne) < cap(manyAtOne); asn++ {
		for ml := 8; ml <= 32 && len(manyAtOne) < cap(manyAtOne); ml++ {
			manyAtOne = append(manyAtOne, VRP{Prefix: netutil.MustPrefix("10.0.0.0/8"), MaxLength: ml, ASN: asn})
		}
	}
	slices.SortFunc(manyAtOne, Compare)
	cases := map[string]loadCase{"one prefix in three chunks": {manyAtOne, nil, manyAtOne}}
	for _, n := range []int{1, 63, 64, 65, 192, 193, 4097} {
		vs := runOfThree(n)
		cases[fmt.Sprintf("%d rows in order", n)] = loadCase{vs, nil, vs}
	}
	checkLoads(t, cases, false)
}

// TestBuilderFallsBackToACopy: a repeat row, a Remove or rows out of
// order each send the builder down the copy-and-sort path, and the table
// is still the one the rows describe, its values windows of one payload
// array as on the in-order path.
func TestBuilderFallsBackToACopy(t *testing.T) {
	vs := runOfThree(500)
	shuffled := slices.Clone(vs)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	checkLoads(t, map[string]loadCase{
		"a repeat row": {slices.Insert(slices.Clone(vs), 100, vs[100]), nil, vs},
		"a remove":     {vs, vs[10:11], slices.Delete(slices.Clone(vs), 10, 11)},
		"out of order": {shuffled, nil, vs},
	}, true)
}

// TestFillReleasesEachChunk: frozenFrom drops its hold on every chunk
// it has read, so a chunk's rows are garbage once their payloads and
// nodes are written.
func TestFillReleasesEachChunk(t *testing.T) {
	var b Builder
	for _, v := range runOfThree(3 * builderChunk) {
		b.add(rowOf(v))
	}
	chunks := b.chunks
	if len(chunks) < 3 {
		t.Fatalf("%d chunks, want several", len(chunks))
	}
	f := frozenFrom(chunks)
	for i, c := range chunks {
		if c != nil {
			t.Errorf("frozenFrom kept chunk %d of %d", i, len(chunks))
		}
	}
	if len(f.payloads) != 3*builderChunk {
		t.Errorf("froze %d VRPs, want %d", len(f.payloads), 3*builderChunk)
	}
}

// TestSortedBuilderAllocatesNodesAndPayloads: building 300 000 rows
// that came in order allocates the base's node array and one 8-byte
// payload a VRP, each exactly sized, and a few KiB besides — not a copy
// of the rows, and no pointer tree on the way. The base has a node for
// every node a radix tree over the same prefixes has, and one more that
// ends the payloads; the tree's are counted from what inserting the
// prefixes into an empty one allocates, a 64-byte node at a time (see
// radix's TestNodeSizeUnchangedByOwnership).
func TestSortedBuilderAllocatesNodesAndPayloads(t *testing.T) {
	const n = 300000
	vs := runOfThree(n)
	var b Builder
	for _, v := range vs {
		if err := b.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	allocated := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	var set *Set
	setBytes := allocated(func() { set = b.Set() })
	if set.Len() != n {
		t.Fatalf("built %d VRPs from %d rows", set.Len(), n)
	}
	prefixes := prefixesIn(vs)
	treeNodes := allocated(func() {
		var tree radix.Tree[[]payload]
		for _, p := range prefixes {
			_ = tree.Insert(p, nil)
		}
	}) / 64
	// The runtime may make a stray small allocation of its own meanwhile.
	if got := int64(len(set.base.nodes)) - 1; got != treeNodes && got != treeNodes-1 {
		t.Errorf("the base has %d nodes, a radix tree over its prefixes %d", got, treeNodes)
	}
	need := int64(len(set.base.nodes))*int64(unsafe.Sizeof(node{})) + n*int64(unsafe.Sizeof(payload{}))
	// Each of the two arrays is rounded up to whole 8 KiB pages.
	const slack = 2*8<<10 + 4<<10
	if setBytes > need+slack {
		t.Errorf("Set() allocated %d bytes for %d of nodes and payloads, want at most %d more", setBytes, need, slack)
	} else {
		t.Logf("Set() allocated %d bytes for %d of nodes and payloads", setBytes, need)
	}
}
