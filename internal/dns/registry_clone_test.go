package dns

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
)

func TestRegistryClone(t *testing.T) {
	r := NewRegistry()
	r.Add(RR{Name: "a.example.", Type: TypeA, TTL: 60, Addr: netip.MustParseAddr("192.0.2.1")})
	r.Add(RR{Name: "a.example.", Type: TypeA, TTL: 60, Addr: netip.MustParseAddr("192.0.2.2")})
	r.AddCNAME("www.example.", "a.example.", 60)

	c := r.Clone()
	if c.Len() != r.Len() {
		t.Fatalf("clone len %d != %d", c.Len(), r.Len())
	}
	// Record order is preserved, so resolution is identical.
	orig, _ := r.Resolve("www.example.", TypeA)
	cloned, _ := c.Resolve("www.example.", TypeA)
	if len(orig) != len(cloned) {
		t.Fatalf("resolve answers %d != %d", len(orig), len(cloned))
	}
	for i := range orig {
		if orig[i].Name != cloned[i].Name || orig[i].Type != cloned[i].Type ||
			orig[i].Addr != cloned[i].Addr || orig[i].Target != cloned[i].Target {
			t.Fatalf("answer %d: %+v != %+v", i, orig[i], cloned[i])
		}
	}

	// Divergence after cloning stays private to each side.
	c.Remove("a.example.", TypeA)
	c.Add(RR{Name: "a.example.", Type: TypeA, TTL: 20, Addr: netip.MustParseAddr("198.51.100.1")})
	if got := r.Lookup("a.example.", TypeA); len(got) != 2 {
		t.Errorf("original mutated through clone: %d A records", len(got))
	}
	r.Remove("www.example.", TypeCNAME)
	if got := c.Lookup("www.example.", TypeCNAME); len(got) != 1 {
		t.Errorf("clone mutated through original: %d CNAME records", len(got))
	}
}

// resolvesTo reports the A addresses name resolves to, in answer order.
func resolvesTo(r *Registry, name string) []netip.Addr {
	var out []netip.Addr
	answers, _ := r.Resolve(name, TypeA)
	for _, rr := range answers {
		if rr.Type == TypeA {
			out = append(out, rr.Addr)
		}
	}
	return out
}

// TestRegistryCloneOnFirstWrite pins the sharing rules: a clone costs
// nothing until someone writes, and the first write on either side —
// Remove's in-place filter included — copies before it lands, so no
// registry ever sees another's mutation, whichever of them wrote and
// however many clones deep it sits.
func TestRegistryCloneOnFirstWrite(t *testing.T) {
	a1, a2, a3 := netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2"), netip.MustParseAddr("192.0.2.3")
	var b Builder
	b.Add(RR{Name: "cache.example.", Type: TypeA, TTL: 60, Addr: a1})
	b.Add(RR{Name: "cache.example.", Type: TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("2001:db8::1")})
	b.Add(RR{Name: "cache.example.", Type: TypeA, TTL: 60, Addr: a2})
	b.Add(RR{Name: "www.example.", Type: TypeCNAME, TTL: 60, Target: "cache.example."})
	base := Build(&b)
	hooked := 0
	base.SetMutationHook(func(string) { hooked++ })

	left, right := base.Clone(), base.Clone()
	grandchild := left.Clone()
	all := map[string]*Registry{"base": base, "left": left, "right": right, "grandchild": grandchild}
	want := map[string][]netip.Addr{"base": {a1, a2}, "left": {a1, a2}, "right": {a1, a2}, "grandchild": {a1, a2}}
	check := func(after string) {
		t.Helper()
		for name, r := range all {
			got := resolvesTo(r, "www.example.")
			if len(got) != len(want[name]) {
				t.Fatalf("after %s: %s resolves to %v, want %v", after, name, got, want[name])
			}
			for i := range got {
				if got[i] != want[name][i] {
					t.Fatalf("after %s: %s resolves to %v, want %v", after, name, got, want[name])
				}
			}
		}
	}
	check("cloning")

	// Remove filters the name's records in place: on records that are
	// still shared that would shift a2 over a1 under every other reader.
	if n := left.Remove("cache.example.", TypeA); n != 2 {
		t.Fatalf("left.Remove removed %d records, want 2", n)
	}
	left.Add(RR{Name: "cache.example.", Type: TypeA, TTL: 20, Addr: a3})
	want["left"] = []netip.Addr{a3}
	check("a write on a clone")
	if hooked != 0 {
		t.Errorf("a clone inherited the source's hook (%d calls)", hooked)
	}

	// The source writes after its clones were taken.
	base.AddBatch([]RR{{Name: "cache.example.", Type: TypeA, TTL: 60, Addr: a3}})
	want["base"] = []netip.Addr{a1, a2, a3}
	check("a write on the source")
	if hooked != 1 {
		t.Errorf("the source's own hook saw %d calls, want 1", hooked)
	}

	// A clone of a clone, cut loose from a parent that has since written.
	if n := grandchild.Remove("www.example.", TypeCNAME); n != 1 {
		t.Fatalf("grandchild.Remove removed %d records, want 1", n)
	}
	want["grandchild"] = nil
	check("a write on a clone's clone")

	// right never wrote and reads the base alone.
	if right.Written() {
		t.Error("a clone that never wrote holds an overlay")
	}
}

// TestRegistryCloneSiblingsReadWhileOneWrites is for the race detector:
// sweep workers resolve through their clones while one of them (the
// cdn-migration run) re-points hosts.
func TestRegistryCloneSiblingsReadWhileOneWrites(t *testing.T) {
	base := NewRegistry()
	for i := 0; i < 200; i++ {
		host := fmt.Sprintf("h%d.example.", i)
		base.Add(RR{Name: host, Type: TypeA, TTL: 60, Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})})
		base.AddCNAME(fmt.Sprintf("www%d.example.", i), host, 60)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		clone := base.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				host := fmt.Sprintf("h%d.example.", i)
				if w == 0 {
					clone.Remove(host, TypeA)
					clone.Add(RR{Name: host, Type: TypeA, TTL: 60, Addr: netip.AddrFrom4([4]byte{198, 51, 100, byte(i)})})
				}
				want := netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})
				if w == 0 {
					want = netip.AddrFrom4([4]byte{198, 51, 100, byte(i)})
				}
				if got := resolvesTo(clone, fmt.Sprintf("www%d.example.", i)); len(got) != 1 || got[0] != want {
					t.Errorf("worker %d: www%d resolves to %v, want %v", w, i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := resolvesTo(base, "www7.example."); len(got) != 1 || got[0] != netip.AddrFrom4([4]byte{192, 0, 2, 7}) {
		t.Errorf("the source resolves www7 to %v after a clone re-pointed it", got)
	}
}
