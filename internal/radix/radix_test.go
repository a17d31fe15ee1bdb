package radix

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"unsafe"

	"ripki/internal/netutil"
)

func TestInsertLookup(t *testing.T) {
	var tr Tree[string]
	pairs := map[string]string{
		"10.0.0.0/8":      "a",
		"10.0.0.0/16":     "b",
		"10.1.0.0/16":     "c",
		"192.0.2.0/24":    "d",
		"0.0.0.0/0":       "root",
		"2001:db8::/32":   "v6",
		"2001:db8:1::/48": "v6b",
		"::/0":            "v6root",
	}
	for p, v := range pairs {
		if err := tr.Insert(netutil.MustPrefix(p), v); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != len(pairs) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(pairs))
	}
	for p, v := range pairs {
		got, ok := tr.Lookup(netutil.MustPrefix(p))
		if !ok || got != v {
			t.Errorf("Lookup(%s) = %q, %v; want %q", p, got, ok, v)
		}
	}
	if _, ok := tr.Lookup(netutil.MustPrefix("10.0.0.0/12")); ok {
		t.Error("Lookup of absent glue prefix returned a value")
	}
	if _, ok := tr.Lookup(netutil.MustPrefix("11.0.0.0/8")); ok {
		t.Error("Lookup of absent prefix returned a value")
	}
}

func TestInsertReplaces(t *testing.T) {
	var tr Tree[int]
	p := netutil.MustPrefix("10.0.0.0/8")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after duplicate insert, want 1", tr.Len())
	}
	if v, _ := tr.Lookup(p); v != 2 {
		t.Fatalf("Lookup = %d, want 2", v)
	}
}

func TestInsertNonCanonicalised(t *testing.T) {
	var tr Tree[int]
	tr.Insert(netip.MustParsePrefix("10.9.8.7/8"), 5)
	if v, ok := tr.Lookup(netutil.MustPrefix("10.0.0.0/8")); !ok || v != 5 {
		t.Fatalf("canonicalisation on insert failed: %v %v", v, ok)
	}
}

func TestInsertInvalid(t *testing.T) {
	var tr Tree[int]
	if err := tr.Insert(netip.Prefix{}, 1); err == nil {
		t.Error("Insert(zero prefix) did not error")
	}
}

func TestDelete(t *testing.T) {
	var tr Tree[int]
	p := netutil.MustPrefix("10.0.0.0/8")
	q := netutil.MustPrefix("10.0.0.0/16")
	tr.Insert(p, 1)
	tr.Insert(q, 2)
	if !tr.Delete(p) {
		t.Fatal("Delete existing returned false")
	}
	if tr.Delete(p) {
		t.Fatal("Delete twice returned true")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	if _, ok := tr.Lookup(p); ok {
		t.Error("deleted prefix still found")
	}
	if v, ok := tr.Lookup(q); !ok || v != 2 {
		t.Error("sibling prefix lost after delete")
	}
}

func TestCovering(t *testing.T) {
	var tr Tree[string]
	for _, p := range []string{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.2.0.0/16"} {
		tr.Insert(netutil.MustPrefix(p), p)
	}
	got := tr.Covering(netip.MustParseAddr("10.1.2.3"), nil)
	want := []string{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"}
	if len(got) != len(want) {
		t.Fatalf("Covering returned %d entries, want %d (%v)", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Prefix.String() != w {
			t.Errorf("Covering[%d] = %s, want %s", i, got[i].Prefix, w)
		}
	}
	got = tr.Covering(netip.MustParseAddr("10.2.9.9"), nil)
	if len(got) != 3 || got[2].Prefix.String() != "10.2.0.0/16" {
		t.Errorf("Covering(10.2.9.9) = %v", got)
	}
	if got := tr.Covering(netip.MustParseAddr("2001:db8::1"), nil); len(got) != 0 {
		t.Errorf("v6 Covering on v4-only tree = %v, want empty", got)
	}
	if got := tr.Covering(netip.Addr{}, nil); len(got) != 0 {
		t.Errorf("Covering(zero addr) = %v, want empty", got)
	}
}

func TestCoveringPrefix(t *testing.T) {
	var tr Tree[string]
	for _, p := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"} {
		tr.Insert(netutil.MustPrefix(p), p)
	}
	got := tr.CoveringPrefix(netutil.MustPrefix("10.1.0.0/20"), nil)
	want := []string{"10.0.0.0/8", "10.1.0.0/16"}
	if len(got) != len(want) {
		t.Fatalf("CoveringPrefix = %v, want %v", got, want)
	}
	for i, w := range want {
		if got[i].Prefix.String() != w {
			t.Errorf("CoveringPrefix[%d] = %s, want %s", i, got[i].Prefix, w)
		}
	}
	// The /24 itself is included when querying exactly it.
	got = tr.CoveringPrefix(netutil.MustPrefix("10.1.2.0/24"), nil)
	if len(got) != 3 {
		t.Fatalf("CoveringPrefix(/24) = %v, want 3 entries", got)
	}
}

// TestLongestMatch: the longest match is the last entry Covering
// yields, since it lists the covering prefixes shortest first.
func TestLongestMatch(t *testing.T) {
	var tr Tree[string]
	for _, p := range []string{"10.0.0.0/8", "10.1.0.0/16"} {
		tr.Insert(netutil.MustPrefix(p), p)
	}
	es := tr.Covering(netip.MustParseAddr("10.1.200.3"), nil)
	if len(es) == 0 || es[len(es)-1].Prefix.String() != "10.1.0.0/16" || es[len(es)-1].Value != "10.1.0.0/16" {
		t.Errorf("Covering = %v, want it to end at 10.1.0.0/16", es)
	}
	if es := tr.Covering(netip.MustParseAddr("11.0.0.1"), nil); len(es) != 0 {
		t.Errorf("Covering matched an uncovered address: %v", es)
	}
}

// subtree collects what WalkSubtree visits under p.
func subtree[V any](tr *Tree[V], p netip.Prefix) []Entry[V] {
	var out []Entry[V]
	tr.WalkSubtree(p, func(q netip.Prefix, v V) bool {
		out = append(out, Entry[V]{Prefix: q, Value: v})
		return true
	})
	return out
}

func TestWalkOrderAndSubtree(t *testing.T) {
	var tr Tree[int]
	ps := []string{"10.0.0.0/8", "10.0.0.0/16", "10.128.0.0/9", "192.0.2.0/24", "2001:db8::/32"}
	for i, p := range ps {
		tr.Insert(netutil.MustPrefix(p), i)
	}
	var seen []string
	tr.Walk(func(p netip.Prefix, _ int) bool {
		seen = append(seen, p.String())
		return true
	})
	if len(seen) != len(ps) {
		t.Fatalf("Walk visited %d, want %d", len(seen), len(ps))
	}
	if !sort.SliceIsSorted(seen, func(i, j int) bool {
		return netutil.ComparePrefixes(netutil.MustPrefix(seen[i]), netutil.MustPrefix(seen[j])) < 0
	}) {
		t.Errorf("Walk order not sorted: %v", seen)
	}

	sub := subtree(&tr, netutil.MustPrefix("10.0.0.0/8"))
	if len(sub) != 3 {
		t.Fatalf("Subtree(10/8) = %v, want 3 entries", sub)
	}
	sub = subtree(&tr, netutil.MustPrefix("11.0.0.0/8"))
	if len(sub) != 0 {
		t.Fatalf("Subtree(11/8) = %v, want empty", sub)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	var tr Tree[int]
	for _, p := range []string{"10.0.0.0/8", "11.0.0.0/8", "12.0.0.0/8"} {
		tr.Insert(netutil.MustPrefix(p), 0)
	}
	n := 0
	tr.Walk(func(netip.Prefix, int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop visited %d, want 2", n)
	}
}

// naive is a reference model: a flat slice scanned linearly.
type naive struct {
	ps []netip.Prefix
}

func (n *naive) insert(p netip.Prefix) {
	p = p.Masked()
	for _, q := range n.ps {
		if q == p {
			return
		}
	}
	n.ps = append(n.ps, p)
}

func (n *naive) covering(a netip.Addr) []netip.Prefix {
	var out []netip.Prefix
	for _, q := range n.ps {
		if q.Addr().Is4() == a.Is4() && q.Contains(a) {
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bits() < out[j].Bits() })
	return out
}

func randPrefix4(rnd *rand.Rand) netip.Prefix {
	var b [4]byte
	rnd.Read(b[:])
	// Bias toward short prefixes so coverings are common.
	bits := 1 + rnd.Intn(28)
	return netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
}

func randPrefix6(rnd *rand.Rand) netip.Prefix {
	var b [16]byte
	rnd.Read(b[:2]) // cluster in a small space
	bits := 1 + rnd.Intn(64)
	return netip.PrefixFrom(netip.AddrFrom16(b), bits).Masked()
}

// Property test: the trie agrees with the naive model on Covering and
// Lookup across random inserts, both families.
func TestAgainstNaiveModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	var tr Tree[netip.Prefix]
	var model naive
	for i := 0; i < 3000; i++ {
		var p netip.Prefix
		if rnd.Intn(2) == 0 {
			p = randPrefix4(rnd)
		} else {
			p = randPrefix6(rnd)
		}
		tr.Insert(p, p)
		model.insert(p)
	}
	if tr.Len() != len(model.ps) {
		t.Fatalf("Len = %d, model has %d", tr.Len(), len(model.ps))
	}
	for _, p := range model.ps {
		v, ok := tr.Lookup(p)
		if !ok || v != p {
			t.Fatalf("Lookup(%v) = %v, %v", p, v, ok)
		}
	}
	for i := 0; i < 2000; i++ {
		var a netip.Addr
		if rnd.Intn(2) == 0 {
			var b [4]byte
			rnd.Read(b[:])
			a = netip.AddrFrom4(b)
		} else {
			var b [16]byte
			rnd.Read(b[:2])
			a = netip.AddrFrom16(b)
		}
		want := model.covering(a)
		got := tr.Covering(a, nil)
		if len(got) != len(want) {
			t.Fatalf("Covering(%v): got %d entries %v, want %d %v", a, len(got), got, len(want), want)
		}
		for j := range got {
			if got[j].Prefix != want[j] {
				t.Fatalf("Covering(%v)[%d] = %v, want %v", a, j, got[j].Prefix, want[j])
			}
		}
	}
}

func TestDeleteAgainstModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	var tr Tree[int]
	kept := map[netip.Prefix]bool{}
	var all []netip.Prefix
	for i := 0; i < 500; i++ {
		p := randPrefix4(rnd)
		tr.Insert(p, i)
		kept[p] = true
		all = append(all, p)
	}
	for i, p := range all {
		if i%3 == 0 {
			if kept[p] {
				if !tr.Delete(p) {
					t.Fatalf("Delete(%v) = false for present prefix", p)
				}
				delete(kept, p)
			}
		}
	}
	if tr.Len() != len(kept) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(kept))
	}
	for _, p := range all {
		_, ok := tr.Lookup(p)
		if ok != kept[p] {
			t.Fatalf("Lookup(%v) = %v, want %v", p, ok, kept[p])
		}
	}
}

// TestDeletePrunes runs insert/delete rounds over both families on a
// tree and on clones taken mid-way, and after every round holds each
// tree to the node count of a fresh build of its contents; draining a
// tree leaves no node behind, and its clones keep theirs.
func TestDeletePrunes(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	trees := []modelled{{tr: new(Tree[int]), m: model{}}}
	randPrefix := func() netip.Prefix {
		if rnd.Intn(2) == 0 {
			return randPrefix4(rnd)
		}
		return randPrefix6(rnd)
	}
	for round := 0; round < 12; round++ {
		for _, x := range trees {
			for i := 0; i < 300; i++ {
				x.insert(t, randPrefix(), i)
			}
			// Delete about two thirds of what the tree now holds.
			for p := range x.m {
				if rnd.Intn(3) != 0 {
					x.delete(t, p)
				}
			}
		}
		if round%4 == 1 {
			trees = append(trees, trees[rnd.Intn(len(trees))].clone())
		}
		for _, x := range trees {
			checkAgainstModel(t, x.tr, x.m, nil)
			checkPruned(t, x.tr, x.m)
		}
	}
	first := trees[0]
	for p := range first.m {
		first.delete(t, p)
	}
	if n := nodes(first.tr); n != 0 || first.tr.Len() != 0 {
		t.Fatalf("drained tree holds %d nodes, Len %d", n, first.tr.Len())
	}
	for _, x := range trees[1:] {
		checkAgainstModel(t, x.tr, x.m, nil)
		checkPruned(t, x.tr, x.m)
	}
}

func BenchmarkCovering(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	var tr Tree[int]
	for i := 0; i < 100000; i++ {
		tr.Insert(randPrefix4(rnd), i)
	}
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		var buf [4]byte
		rnd.Read(buf[:])
		addrs[i] = netip.AddrFrom4(buf)
	}
	buf := make([]Entry[int], 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.Covering(addrs[i%len(addrs)], buf[:0])
	}
}

// BenchmarkCoveringPrefix is the RFC 6811 query at a validator's size:
// a tree of 300 000 prefixes shaped like a VRP export (six in seven
// IPv4 at /12../24, the rest IPv6 at /32../48), asked for what covers a
// route two bits more specific than an entry.
func BenchmarkCoveringPrefix(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	var tr Tree[[]int32]
	var routes [2][]netip.Prefix
	for tr.Len() < 300000 {
		var p netip.Prefix
		fam := 0
		if rnd.Intn(7) == 0 {
			fam = 1
			a := [16]byte{0x20, byte(rnd.Intn(16)), byte(rnd.Intn(256)), byte(rnd.Intn(256)), byte(rnd.Intn(256)), byte(rnd.Intn(256))}
			p = netip.PrefixFrom(netip.AddrFrom16(a), 32+4*rnd.Intn(5)).Masked()
		} else {
			a := [4]byte{byte(1 + rnd.Intn(222)), byte(rnd.Intn(256)), byte(rnd.Intn(256)), 0}
			p = netip.PrefixFrom(netip.AddrFrom4(a), 12+rnd.Intn(13)).Masked()
		}
		if err := tr.Insert(p, []int32{int32(tr.Len())}); err != nil {
			b.Fatal(err)
		}
		if len(routes[fam]) < 1024 {
			routes[fam] = append(routes[fam], netip.PrefixFrom(p.Addr(), p.Bits()+2))
		}
	}
	for fam, name := range []string{"v4", "v6"} {
		b.Run(name, func(b *testing.B) {
			var buf [8]Entry[[]int32]
			found := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				found += len(tr.CoveringPrefix(routes[fam][i%1024], buf[:0]))
			}
			if found < b.N {
				b.Fatalf("%d covering entries over %d routes each inside an entry", found, b.N)
			}
		})
	}
}

// TestNodeSizeUnchangedByOwnership pins the node at its allocator size
// class: a word-keyed node with a slice value is exactly 64 bytes (two
// key words, the value, two children, the tag), where the netip.Prefix
// it replaced made it 80. The validation service keeps several 300k-VRP
// trees live and every path copy on a VRP or route write copies nodes,
// so one more word per node is a size class on all of them.
func TestNodeSizeUnchangedByOwnership(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are for 64-bit platforms")
	}
	if got := unsafe.Sizeof(node[[]int32]{}); got != 64 {
		t.Errorf("node with a slice value is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(node[map[int]struct{}]{}); got != 48 {
		t.Errorf("node with a map value is %d bytes, want 48", got)
	}
}
