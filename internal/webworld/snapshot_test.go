package webworld

import (
	"sync"
	"sync/atomic"
	"testing"

	"ripki/internal/dns"
)

func TestSnapshotCloneIsolatesRegistry(t *testing.T) {
	w, err := Generate(Config{Seed: 11, Domains: 1500})
	if err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	a, b := snap.Clone(), snap.Clone()
	if a == b || a.Registry == b.Registry || a.Registry == w.Registry {
		t.Fatal("clones share a registry")
	}
	// Immutable layers are shared, not copied.
	if a.RIB != w.RIB || a.Repo != w.Repo || a.List != w.List {
		t.Error("immutable layers were copied")
	}

	name := w.Registry.Names()[0]
	before := len(w.Registry.Lookup(name, dns.TypeA)) + len(w.Registry.Lookup(name, dns.TypeCNAME))
	a.Registry.Remove(name, dns.TypeA)
	a.Registry.Remove(name, dns.TypeCNAME)
	after := len(w.Registry.Lookup(name, dns.TypeA)) + len(w.Registry.Lookup(name, dns.TypeCNAME))
	if before != after {
		t.Error("mutating a clone's registry reached the snapshot")
	}
	if got := len(b.Registry.Lookup(name, dns.TypeA)) + len(b.Registry.Lookup(name, dns.TypeCNAME)); got != before {
		t.Error("mutating one clone reached a sibling clone")
	}
}

func TestValidationMemoized(t *testing.T) {
	w, err := Generate(Config{Seed: 11, Domains: 1500})
	if err != nil {
		t.Fatal(err)
	}
	first := w.Validation()
	if first.VRPs.Len() == 0 {
		t.Fatal("no VRPs validated")
	}
	if again := w.Validation(); again != first {
		t.Error("Validation not memoized on the world")
	}
	if clone := w.Snapshot().Clone(); clone.Validation() != first {
		t.Error("clone does not share the memoized validation")
	}
	// The memo agrees with a direct validation.
	direct := w.Repo.Validate(w.MeasureTime())
	if direct.VRPs.Len() != first.VRPs.Len() {
		t.Errorf("memoized VRPs %d != direct %d", first.VRPs.Len(), direct.VRPs.Len())
	}
}

func TestDerivedBuildsOncePerWorld(t *testing.T) {
	w, err := Generate(Config{Seed: 11, Domains: 1500})
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ n int }
	snap := w.Snapshot()
	var builds atomic.Int32
	var wg sync.WaitGroup
	got := make([]any, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = snap.Clone().Derived(key{1}, func() any {
				builds.Add(1)
				return new(int)
			})
		}()
	}
	wg.Wait()
	for _, v := range got {
		if v != got[0] {
			t.Fatal("clones of one world derived different values for one key")
		}
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("built %d times for one key on one world, want 1", n)
	}
	if w.Derived(key{2}, func() any { return new(int) }) == got[0] {
		t.Error("a second key returned the first key's value")
	}

	// Another world, and a world assembled by hand, share nothing.
	other, err := Generate(Config{Seed: 12, Domains: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if other.Derived(key{1}, func() any { return new(int) }) == got[0] {
		t.Error("two generated worlds share a memo")
	}
	bare := &World{}
	if bare.Derived(key{1}, func() any { return new(int) }) == bare.Derived(key{1}, func() any { return new(int) }) {
		t.Error("a world without a memo memoised")
	}
}
