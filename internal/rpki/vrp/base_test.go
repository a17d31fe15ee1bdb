package vrp

import (
	"net/netip"
	"slices"
	"testing"

	"ripki/internal/radix"
)

// branchOnly counts, by brute force, the branch-only nodes a
// path-compressed trie over the prefixes needs: every prefix of a
// prefix that has the prefixes under it on both of its sides and is
// not itself one of them.
func branchOnly(prefixes []netip.Prefix) int {
	held := make(map[netip.Prefix]bool, len(prefixes))
	for _, p := range prefixes {
		held[p] = true
	}
	sides := make(map[netip.Prefix]int)
	for _, p := range prefixes {
		a := p.Addr().AsSlice()
		for c := 0; c < p.Bits(); c++ {
			above := netip.PrefixFrom(p.Addr(), c).Masked()
			sides[above] |= 1 << (a[c/8] >> (7 - c%8) & 1)
		}
	}
	n := 0
	for p, s := range sides {
		if s == 3 && !held[p] {
			n++
		}
	}
	return n
}

// FuzzFrozenCovering: a base frozen from any set of rows — both
// families, several payloads at a prefix, fed in chunks of any size —
// answers every covering query and every exact lookup as a radix.Tree
// over the same prefixes and payloads does, lists the same entries in
// the same order as the tree's walk, and is laid out as the trie it
// stands for: one node a prefix and one a branch point no prefix holds,
// each node's 0 child right behind it, every child after its parent and
// every branch-only node with both children. The script is FuzzBuilder's
// (bits 5 and 6 of an op are ignored); a refused VRP is skipped, and
// the first byte sizes the chunks. The seeds under
// testdata/fuzz/FuzzFrozenCovering cover an empty base, one family
// alone, a /0, host prefixes, nested and sibling prefixes and chunks of
// one row.
func FuzzFrozenCovering(f *testing.F) { f.Fuzz(frozenScript) }

// frozenScript is FuzzFrozenCovering's check of one script.
func frozenScript(t *testing.T, script []byte) {
	script = script[:min(len(script), maxScript)]
	chunk := 1
	if len(script) > 0 {
		chunk += int(script[0] % 16)
	}
	var rows []row
	var probes []netip.Prefix
	for ; len(script) >= scriptOp; script = script[scriptOp:] {
		v, _ := scriptVRP(script[:scriptOp])
		probes = append(probes, v.Prefix)
		if v, ok := takes(v); ok {
			rows = append(rows, rowOf(v))
		}
	}
	slices.SortFunc(rows, compareRows)
	rows = slices.Compact(rows)
	var tree radix.Tree[[]payload]
	var prefixes []netip.Prefix
	for _, r := range rows {
		p := r.prefix()
		pls, _ := tree.Lookup(p)
		if pls == nil {
			prefixes = append(prefixes, p)
		}
		_ = tree.Insert(p, append(pls, payload{asn: r.asn, maxLen: r.maxLen}))
	}
	var chunks [][]row
	for rest := rows; len(rest) > 0; rest = rest[min(chunk, len(rest)):] {
		chunks = append(chunks, rest[:min(chunk, len(rest))])
	}
	f := frozenFrom(chunks)

	if want := len(prefixes) + branchOnly(prefixes); max(len(f.nodes)-1, 0) != want {
		t.Fatalf("%d nodes for %d prefixes and %d branch points", len(f.nodes)-1, len(prefixes), want-len(prefixes))
	}
	if f.prefixes != len(prefixes) || len(f.payloads) != len(rows) {
		t.Fatalf("%d prefixes and %d payloads, want %d and %d", f.prefixes, len(f.payloads), len(prefixes), len(rows))
	}
	for i := 0; i+1 < len(f.nodes); i++ {
		n := f.nodes[i]
		if n.child[0] != 0 && int(n.child[0]) != i+1 {
			t.Fatalf("node %d's 0 child is node %d", i, n.child[0])
		}
		if n.child[1] != 0 && int(n.child[1]) <= i {
			t.Fatalf("node %d's 1 child is node %d", i, n.child[1])
		}
		if len(f.at(uint32(i))) == 0 && (n.child[0] == 0 || n.child[1] == 0) {
			t.Fatalf("branch-only node %d (%v) does not branch", i, n.row().prefix())
		}
	}
	type entry struct {
		p   netip.Prefix
		pls []payload
	}
	var walked, listed []entry
	tree.Walk(func(p netip.Prefix, pls []payload) bool {
		walked = append(walked, entry{p, pls})
		return true
	})
	for i := 0; i+1 < len(f.nodes); i++ {
		if pls := f.at(uint32(i)); len(pls) > 0 {
			listed = append(listed, entry{f.nodes[i].row().prefix(), pls})
		}
	}
	same := func(a, b entry) bool { return a.p == b.p && slices.Equal(a.pls, b.pls) }
	if !slices.EqualFunc(walked, listed, same) {
		t.Fatalf("the base lists %v, the tree walks %v", listed, walked)
	}

	for _, p := range probes {
		width := p.Addr().BitLen()
		for _, bits := range []int{0, p.Bits() - 1, p.Bits(), p.Bits() + 1, width} {
			if bits < 0 || bits > width {
				continue
			}
			q := netip.PrefixFrom(p.Addr(), bits).Masked()
			var want []entry
			for _, e := range tree.CoveringPrefix(q, nil) {
				want = append(want, entry{e.Prefix, e.Value})
			}
			var got []entry
			for _, i := range f.covering(keyOf(q), nil) {
				got = append(got, entry{f.nodes[i].row().prefix(), f.at(i)})
			}
			if !slices.EqualFunc(got, want, same) {
				t.Fatalf("covering(%v) = %v, the tree's %v", q, got, want)
			}
			wantPls, _ := tree.Lookup(q)
			if got := f.lookup(keyOf(q)); !slices.Equal(got, wantPls) {
				t.Fatalf("lookup(%v) = %v, the tree's %v", q, got, wantPls)
			}
		}
	}
}
