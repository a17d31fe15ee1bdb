package radix

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"

	"ripki/internal/netutil"
)

// The tree is the validation service's hot read path, and Delete (used
// by live VRP withdrawals) unlinks and splices nodes that readers of a
// clone may be standing on — so Covering/Delete interleavings deserve
// model-based testing: every operation is mirrored into a plain map and
// the tree must agree with the brute-force answer afterwards. Clone is
// in the op stream too: every tree carries its own model, so a write on
// a clone or on its parent that leaked through a shared node shows up as
// a disagreement on the other side. Delete prunes, so each tree must
// also hold exactly the nodes a fresh build of its model would.

// model is the naive reference: a map of valued canonical prefixes.
type model map[netip.Prefix]int

// covering computes the reference answer for Tree.Covering: every
// valued prefix containing addr, shortest to longest.
func (m model) covering(addr netip.Addr) []Entry[int] {
	var out []Entry[int]
	for p, v := range m {
		if p.Addr().Is4() == addr.Is4() && p.Contains(addr) {
			out = append(out, Entry[int]{Prefix: p, Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Bits() < out[j].Prefix.Bits() })
	return out
}

// coveringPrefix computes the reference answer for Tree.CoveringPrefix.
func (m model) coveringPrefix(q netip.Prefix) []Entry[int] {
	var out []Entry[int]
	for p, v := range m {
		if p.Addr().Is4() == q.Addr().Is4() && p.Bits() <= q.Bits() && p.Contains(q.Addr()) {
			out = append(out, Entry[int]{Prefix: p, Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Bits() < out[j].Prefix.Bits() })
	return out
}

// checkAgainstModel compares every query the service relies on.
func checkAgainstModel(t *testing.T, tr *Tree[int], m model, probes []netip.Addr) {
	t.Helper()
	if tr.Len() != len(m) {
		t.Fatalf("Len = %d, model has %d", tr.Len(), len(m))
	}
	for p, v := range m {
		got, ok := tr.Lookup(p)
		if !ok || got != v {
			t.Fatalf("Lookup(%v) = %v, %v; model has %v", p, got, ok, v)
		}
	}
	for _, addr := range probes {
		got := tr.Covering(addr, nil)
		want := m.covering(addr)
		if len(got) != len(want) {
			t.Fatalf("Covering(%v): %d entries, model says %d (%v vs %v)", addr, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Covering(%v)[%d] = %v, model says %v", addr, i, got[i], want[i])
			}
		}
		// CoveringPrefix at the host route must agree with Covering.
		q := netip.PrefixFrom(addr, netutil.FamilyBits(addr))
		gotP := tr.CoveringPrefix(q, nil)
		wantP := m.coveringPrefix(q)
		if len(gotP) != len(wantP) {
			t.Fatalf("CoveringPrefix(%v): %d entries, model says %d", q, len(gotP), len(wantP))
		}
		for i := range gotP {
			if gotP[i] != wantP[i] {
				t.Fatalf("CoveringPrefix(%v)[%d] = %v, model says %v", q, i, gotP[i], wantP[i])
			}
		}
	}
}

// nodes counts every node reachable from the tree's roots, valued or not.
func nodes[V any](tr *Tree[V]) int {
	var count func(n *node[V]) int
	count = func(n *node[V]) int {
		if n == nil {
			return 0
		}
		return 1 + count(n.child[0]) + count(n.child[1])
	}
	return count(tr.root4) + count(tr.root6)
}

// checkPruned asserts the tree has the shape of one freshly built from
// its contents: the same number of nodes, which with path compression
// is at most 2·Len−1 per address family.
func checkPruned(t *testing.T, tr *Tree[int], m model) {
	t.Helper()
	fresh := new(Tree[int])
	for p, v := range m {
		if err := fresh.Insert(p, v); err != nil {
			t.Fatal(err)
		}
	}
	families := 0
	for _, root := range []*node[int]{fresh.root4, fresh.root6} {
		if root != nil {
			families++
		}
	}
	got, want := nodes(tr), nodes(fresh)
	if got != want {
		t.Fatalf("tree holds %d nodes for %d entries, a fresh build holds %d", got, len(m), want)
	}
	if limit := 2*len(m) - families; got > limit {
		t.Fatalf("tree holds %d nodes for %d entries in %d families, limit %d", got, len(m), families, limit)
	}
}

// smallPrefix4 draws a canonical IPv4 prefix from a deliberately small
// universe so inserts, deletes and probes collide often.
func smallPrefix4(rnd *rand.Rand) netip.Prefix {
	bits := rnd.Intn(25) // 0../24
	addr := netip.AddrFrom4([4]byte{byte(10 + rnd.Intn(2)), byte(rnd.Intn(4)), byte(rnd.Intn(4)), 0})
	p, _ := netutil.Canonical(netip.PrefixFrom(addr, bits))
	return p
}

// modelled is one tree and the reference it must agree with.
type modelled struct {
	tr *Tree[int]
	m  model
}

// clone forks the tree in O(1) and the model by copying it.
func (x modelled) clone() modelled {
	m := make(model, len(x.m))
	for p, v := range x.m {
		m[p] = v
	}
	return modelled{tr: x.tr.Clone(), m: m}
}

func (x modelled) insert(t *testing.T, p netip.Prefix, v int) {
	t.Helper()
	if err := x.tr.Insert(p, v); err != nil {
		t.Fatal(err)
	}
	x.m[p] = v
}

func (x modelled) delete(t *testing.T, p netip.Prefix) {
	t.Helper()
	got := x.tr.Delete(p)
	if _, want := x.m[p]; got != want {
		t.Fatalf("Delete(%v) = %v, model says %v", p, got, want)
	}
	delete(x.m, p)
}

// maxTrees bounds the family a Clone-happy op stream can grow.
const maxTrees = 6

// TestCoveringDeleteInterleavingsProperty runs randomized
// insert/delete/re-insert/clone interleavings over a family of trees
// against their models. Deletes unlink leaves and splice out nodes left
// with one child, on paths clones still share, so every write must copy
// its path before it lands and every tree must stay as small as a fresh
// build of its model.
func TestCoveringDeleteInterleavingsProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		trees := []modelled{{tr: new(Tree[int]), m: model{}}}
		probes := make([]netip.Addr, 0, 16)
		for i := 0; i < 16; i++ {
			probes = append(probes, netip.AddrFrom4([4]byte{byte(10 + rnd.Intn(2)), byte(rnd.Intn(4)), byte(rnd.Intn(4)), byte(rnd.Intn(2))}))
		}
		checkAll := func() {
			for _, x := range trees {
				checkAgainstModel(t, x.tr, x.m, probes)
				checkPruned(t, x.tr, x.m)
			}
		}
		for op := 0; op < 400; op++ {
			x := trees[rnd.Intn(len(trees))]
			p := smallPrefix4(rnd)
			switch k := rnd.Intn(30); {
			case k < 19: // insert wins 2:1 so the trees stay populated
				x.insert(t, p, rnd.Intn(1000))
			case k < 29:
				x.delete(t, p)
			case len(trees) < maxTrees:
				trees = append(trees, x.clone())
			}
			if op%40 == 39 {
				checkAll()
			}
		}
		checkAll()
	}
}

// FuzzCoveringDelete interprets fuzz bytes as an op sequence — inserts,
// deletes, covering queries and clones — over a tiny prefix universe
// and a small family of trees, and cross-checks each tree against its
// own model after every query and at the end. Run with
// `go test -fuzz FuzzCoveringDelete`; the seed corpus keeps it
// meaningful as a plain test.
func FuzzCoveringDelete(f *testing.F) {
	f.Add([]byte{0x00, 0x12, 0x83, 0x45, 0x02, 0x7f})
	f.Add([]byte{0xff, 0x01, 0x80, 0x81, 0x82, 0x83, 0x84, 0x85})
	f.Add([]byte("interleave-deletes-with-covering-queries"))
	f.Add([]byte{0x00, 0x12, 0x83, 0x04, 0x00, 0x00, 0x00, 0x12, 0x07, 0x06, 0x12, 0x83, 0x0b, 0x12, 0x83})
	f.Fuzz(func(t *testing.T, data []byte) {
		trees := []modelled{{tr: new(Tree[int]), m: model{}}}
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			// The high bits pick the tree, the low three the operation.
			x := trees[int(op>>3)%len(trees)]
			bits := int(a) % 25
			addr := netip.AddrFrom4([4]byte{10, a % 4, b % 4, 0})
			p, _ := netutil.Canonical(netip.PrefixFrom(addr, bits))
			switch op % 8 {
			case 0, 1, 5:
				x.insert(t, p, int(b))
			case 2, 6:
				x.delete(t, p)
			case 3, 7:
				probe := netip.AddrFrom4([4]byte{10, a % 4, b % 4, b % 2})
				got := x.tr.Covering(probe, nil)
				want := x.m.covering(probe)
				if len(got) != len(want) {
					t.Fatalf("Covering(%v): %v, model says %v", probe, got, want)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("Covering(%v)[%d] = %v, model says %v", probe, j, got[j], want[j])
					}
				}
			case 4:
				if len(trees) < maxTrees {
					trees = append(trees, x.clone())
				}
			}
		}
		// Every tree against its own model: a write that reached a node
		// another tree still shares shows here.
		for _, x := range trees {
			checkAgainstModel(t, x.tr, x.m, nil)
			checkPruned(t, x.tr, x.m)
			n := 0
			var prev netip.Prefix
			x.tr.Walk(func(p netip.Prefix, v int) bool {
				if x.m[p] != v {
					t.Fatalf("Walk yields %v=%d, model has %d", p, v, x.m[p])
				}
				// vrp's All relies on this order to skip a sort.
				if n > 0 && netutil.ComparePrefixes(prev, p) >= 0 {
					t.Fatalf("Walk yields %v after %v", p, prev)
				}
				prev = p
				n++
				return true
			})
			if n != len(x.m) {
				t.Fatalf("Walk visited %d entries, model has %d", n, len(x.m))
			}
		}
	})
}
