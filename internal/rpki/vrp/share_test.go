package vrp

import (
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"ripki/internal/netutil"
)

// Set.Clone and IndexOf share every radix node and every per-prefix
// slice with the set they were taken from. These tests drive a family
// of sets and frozen indexes, each against its own plain-map model, so
// a write that reaches another member — through a node that was not
// copied, or through a slice that was appended to in place — shows up
// as a disagreement on the member that did not make it.

// vrpModel is the reference for one set or index: the triples it holds.
type vrpModel map[VRP]bool

func (m vrpModel) clone() vrpModel {
	c := make(vrpModel, len(m))
	for v := range m {
		c[v] = true
	}
	return c
}

func (m vrpModel) all() []VRP {
	out := make([]VRP, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	slices.SortFunc(out, Compare)
	return out
}

// validateExplain is RFC 6811 by a scan over every triple; the covering
// list comes back in Compare order, which for nested prefixes is
// shortest first — the order the tree reports.
func (m vrpModel) validateExplain(p netip.Prefix, asn uint32) (State, []VRP) {
	var covering []VRP
	state := NotFound
	for _, v := range m.all() {
		if !netutil.Covers(v.Prefix, p) {
			continue
		}
		covering = append(covering, v)
		if state == NotFound {
			state = Invalid
		}
		if v.ASN == asn && asn != 0 && p.Bits() <= v.MaxLength {
			state = Valid
		}
	}
	return state, covering
}

// queryable is what Set and Index have in common.
type queryable interface {
	Len() int
	all() []VRP
	ValidateExplain(netip.Prefix, uint32) (State, []VRP)
}

// sharedUniverse is deliberately tiny: a handful of nested prefixes,
// each with a dozen (maxLength, ASN) choices, so most prefixes carry
// several VRPs and the per-prefix slices grow, shrink and have spare
// capacity when a clone is taken.
func sharedUniverse() []VRP {
	var u []VRP
	for _, ps := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.2.0.0/16", "2001:db8::/32", "2001:db8:1::/48"} {
		p := netutil.MustPrefix(ps)
		for ml := p.Bits(); ml < p.Bits()+4; ml++ {
			for asn := uint32(64500); asn < 64503; asn++ {
				u = append(u, VRP{Prefix: p, MaxLength: ml, ASN: asn})
			}
		}
	}
	return u
}

func checkQueryable(t *testing.T, what string, q queryable, m vrpModel, probes []netip.Prefix) {
	t.Helper()
	if q.Len() != len(m) {
		t.Fatalf("%s: Len = %d, model has %d", what, q.Len(), len(m))
	}
	if got, want := q.all(), m.all(); !slices.Equal(got, want) {
		t.Fatalf("%s: all = %v, model has %v", what, got, want)
	}
	for _, p := range probes {
		for asn := uint32(64499); asn < 64503; asn++ {
			gotState, gotCov := q.ValidateExplain(p, asn)
			wantState, wantCov := m.validateExplain(p, asn)
			if gotState != wantState || !slices.Equal(gotCov, wantCov) {
				t.Fatalf("%s: ValidateExplain(%v, AS%d) = %v %v, model says %v %v",
					what, p, asn, gotState, gotCov, wantState, wantCov)
			}
		}
	}
}

// TestSharedSetsAndIndexesMatchModels is the model-based property test
// of the sharing: one Set, clones and IndexOf freezes taken at random
// points, every set driven by its own Add/Remove stream over a universe
// where several VRPs sit at one prefix. With insert appending to the
// slice it found, two clones adding at one prefix overwrite each other's
// element and this fails within the first seeds.
func TestSharedSetsAndIndexesMatchModels(t *testing.T) {
	const maxSets, maxIndexes = 5, 8
	universe := sharedUniverse()
	probes := []netip.Prefix{
		netutil.MustPrefix("10.1.2.0/24"), netutil.MustPrefix("10.1.2.128/25"),
		netutil.MustPrefix("10.1.0.0/16"), netutil.MustPrefix("10.2.3.0/24"),
		netutil.MustPrefix("10.0.0.0/8"), netutil.MustPrefix("11.0.0.0/8"),
		netutil.MustPrefix("2001:db8:1::/48"), netutil.MustPrefix("2001:db8:2::/48"),
	}
	type modelledSet struct {
		set *Set
		m   vrpModel
	}
	type modelledIndex struct {
		ix *Index
		m  vrpModel
	}
	for seed := int64(0); seed < 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		sets := []modelledSet{{set: NewSet(), m: vrpModel{}}}
		var indexes []modelledIndex
		checkAll := func() {
			for i, x := range sets {
				checkQueryable(t, "set", x.set, x.m, probes)
				for _, v := range universe {
					if got := x.set.Contains(v); got != x.m[v] {
						t.Fatalf("seed %d set %d: Contains(%v) = %v, model says %v", seed, i, v, got, x.m[v])
					}
				}
			}
			for _, x := range indexes {
				checkQueryable(t, "index", x.ix, x.m, probes)
			}
		}
		for op := 0; op < 600; op++ {
			x := sets[rnd.Intn(len(sets))]
			v := universe[rnd.Intn(len(universe))]
			switch k := rnd.Intn(40); {
			case k < 22:
				if err := x.set.Add(v); err != nil {
					t.Fatal(err)
				}
				x.m[v] = true
			case k < 36:
				if got := x.set.Remove(v); got != x.m[v] {
					t.Fatalf("seed %d: Remove(%v) = %v, model says %v", seed, v, got, x.m[v])
				}
				delete(x.m, v)
			case k < 38:
				if len(sets) < maxSets {
					sets = append(sets, modelledSet{set: x.set.Clone(), m: x.m.clone()})
				}
			default:
				if len(indexes) < maxIndexes {
					indexes = append(indexes, modelledIndex{ix: IndexOf(x.set), m: x.m.clone()})
				}
			}
			if op%50 == 49 {
				checkAll()
			}
		}
		checkAll()
	}
}

// TestFrozenIndexesReadWhileSetWrites is the same sharing under the
// race detector: one goroutine keeps writing the set and freezing it,
// readers hold the frozen indexes and keep asking them for everything.
// An index must answer what the set held when it was frozen, however
// many writes have landed since.
func TestFrozenIndexesReadWhileSetWrites(t *testing.T) {
	universe := sharedUniverse()
	rnd := rand.New(rand.NewSource(3))
	set := NewSet()
	type frozen struct {
		ix   *Index
		want []VRP
	}
	held := make(chan frozen)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []frozen
			for f := range held {
				mine = append(mine, f)
				for _, h := range mine {
					if got := h.ix.all(); !slices.Equal(got, h.want) {
						t.Errorf("held index changed: %v, frozen at %v", got, h.want)
						return
					}
					h.ix.ValidateExplain(netutil.MustPrefix("10.1.2.0/24"), 64500)
				}
			}
		}()
	}
	for round := 0; round < 200; round++ {
		for i := 0; i < 8; i++ {
			v := universe[rnd.Intn(len(universe))]
			if rnd.Intn(3) == 0 {
				set.Remove(v)
			} else if err := set.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		// Only this goroutine writes, so All right after the freeze is
		// what the index holds.
		held <- frozen{ix: IndexOf(set), want: set.All()}
	}
	close(held)
	wg.Wait()
}

// diffOracle is Set.Diff as it was before the merge walk: a map of
// every element on each side.
func diffOracle(s, old *Set) (announce, withdraw []VRP) {
	cur := s.All()
	prev := old.All()
	curSet := make(map[VRP]bool, len(cur))
	for _, v := range cur {
		curSet[v] = true
	}
	prevSet := make(map[VRP]bool, len(prev))
	for _, v := range prev {
		prevSet[v] = true
	}
	for _, v := range cur {
		if !prevSet[v] {
			announce = append(announce, v)
		}
	}
	for _, v := range prev {
		if !curSet[v] {
			withdraw = append(withdraw, v)
		}
	}
	return announce, withdraw
}

// TestDiffMatchesOracle compares the merge walk with the map-based body
// over random pairs: unrelated sets, a set and an edited clone of it,
// equal sets, and an empty side — same elements in the same order, nil
// where the oracle gave nil.
func TestDiffMatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	build := func(n int) *Set {
		s, err := FromVRPs(randomVRPs(rnd, n))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	check := func(what string, cur, old *Set) {
		t.Helper()
		ann, wd := cur.Diff(old)
		wantAnn, wantWd := diffOracle(cur, old)
		if !slices.Equal(ann, wantAnn) || (ann == nil) != (wantAnn == nil) {
			t.Fatalf("%s: announce = %v, oracle %v", what, ann, wantAnn)
		}
		if !slices.Equal(wd, wantWd) || (wd == nil) != (wantWd == nil) {
			t.Fatalf("%s: withdraw = %v, oracle %v", what, wd, wantWd)
		}
	}
	for trial := 0; trial < 40; trial++ {
		a, b := build(rnd.Intn(300)), build(rnd.Intn(300))
		check("unrelated", a, b)
		check("unrelated, reversed", b, a)
		check("equal", a, a.Clone())
		check("from empty", a, NewSet())
		check("to empty", NewSet(), a)
		edited := a.Clone()
		for _, v := range a.All() {
			if rnd.Intn(4) == 0 {
				edited.Remove(v)
			}
		}
		for _, v := range randomVRPs(rnd, 20) {
			if err := edited.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		check("edited clone", edited, a)
		check("edited clone, reversed", a, edited)
	}
}
