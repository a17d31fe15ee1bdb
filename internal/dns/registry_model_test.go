package dns

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// modelRegistry pairs a registry of a clone tree with what it must hold:
// a plain map edited by the plain rules, and the hook calls it must have
// made.
type modelRegistry struct {
	reg    *Registry
	want   map[string][]RR
	hooked []string // what the hook saw
	expect []string // what it should have
}

func (m *modelRegistry) attach() {
	m.reg.SetMutationHook(func(name string) { m.hooked = append(m.hooked, name) })
}

// canon is what Add makes of a record.
func canon(rr RR) RR {
	rr.Name = CanonicalName(rr.Name)
	if rr.Type == TypeCNAME || rr.Type == TypeNS {
		rr.Target = CanonicalName(rr.Target)
	}
	if rr.Class == 0 {
		rr.Class = ClassINET
	}
	return rr
}

func (m *modelRegistry) add(rr RR) {
	rr = canon(rr)
	m.want[rr.Name] = append(m.want[rr.Name], rr)
	m.expect = append(m.expect, rr.Name)
}

func (m *modelRegistry) remove(name string, typ uint16) int {
	name = CanonicalName(name)
	var kept []RR
	for _, rr := range m.want[name] {
		if rr.Type != typ {
			kept = append(kept, rr)
		}
	}
	removed := len(m.want[name]) - len(kept)
	if len(kept) == 0 {
		delete(m.want, name)
	} else {
		m.want[name] = kept
	}
	if removed > 0 {
		m.expect = append(m.expect, name)
	}
	return removed
}

// flat builds the registry the model describes from nothing: never
// cloned, so it reads and writes the record map in place.
func (m *modelRegistry) flat() *Registry {
	r := NewRegistry()
	for _, rrs := range m.want {
		r.AddBatch(rrs)
	}
	return r
}

// check holds every read of m.reg against the model, and against a flat
// registry rebuilt from the model for the reads that chase CNAMEs.
func (m *modelRegistry) check(t *testing.T, who, after string, names []string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s after %s: %s", who, after, fmt.Sprintf(format, args...))
	}
	flat := m.flat()
	if got, want := m.reg.Len(), len(m.want); got != want {
		fail("Len %d, want %d", got, want)
	}
	wantNames := slices.Sorted(maps.Keys(m.want))
	if got := m.reg.Names(); !slices.Equal(got, wantNames) {
		fail("Names %v, want %v", got, wantNames)
	}
	var under []string
	for _, n := range wantNames {
		if len(n) > len(".cdn.wld") && n[len(n)-len(".cdn.wld"):] == ".cdn.wld" {
			under = append(under, n)
		}
	}
	if got := m.reg.NamesUnder("CDN.wld."); !slices.Equal(got, under) {
		fail("NamesUnder(cdn.wld) %v, want %v", got, under)
	}
	var res, flatRes Result
	for _, name := range names {
		for _, typ := range []uint16{TypeA, TypeAAAA, TypeCNAME, TypeTXT} {
			var want []RR
			for _, rr := range m.want[CanonicalName(name)] {
				if rr.Type == typ {
					want = append(want, rr)
				}
			}
			if got := m.reg.Lookup(name, typ); !reflect.DeepEqual(got, want) {
				fail("Lookup(%q, %d) %v, want %v", name, typ, got, want)
			}
			got, gotCode := m.reg.Resolve(name, typ)
			want, wantCode := flat.Resolve(name, typ)
			if gotCode != wantCode || !reflect.DeepEqual(got, want) {
				fail("Resolve(%q, %d) %v rcode %d, a flat registry answers %v rcode %d", name, typ, got, gotCode, want, wantCode)
			}
		}
		RegistryResolver{Registry: m.reg}.LookupWebInto(&res, name)
		RegistryResolver{Registry: flat}.LookupWebInto(&flatRes, name)
		if res.NXDomain != flatRes.NXDomain || !slices.Equal(res.Addrs, flatRes.Addrs) || !slices.Equal(res.Chain, flatRes.Chain) {
			fail("LookupWebInto(%q) %+v, a flat registry answers %+v", name, res, flatRes)
		}
	}
	var dump, flatDump bytes.Buffer
	if err := m.reg.WriteZoneTSV(&dump); err != nil {
		t.Fatal(err)
	}
	if err := flat.WriteZoneTSV(&flatDump); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump.Bytes(), flatDump.Bytes()) {
		fail("zone dump\n%s\nwant\n%s", dump.Bytes(), flatDump.Bytes())
	}
	if !slices.Equal(m.hooked, m.expect) {
		fail("hook saw %v, want %v", m.hooked, m.expect)
	}
}

// TestRegistryCloneTreeMatchesModel drives seeded sequences of Add,
// AddBatch, Remove and Clone over a growing tree of clones — writes on
// sources after they were cloned, on clones, on clones of written clones
// — and after every step holds every member against a plain map that
// only its own writes touched. That is isolation in both directions, the
// overlay's tombstones and resurrections, Len and Names across base and
// overlay, and the hook (per record, only for writes that changed
// something, never inherited) in one property.
func TestRegistryCloneTreeMatchesModel(t *testing.T) {
	names := []string{
		"a.example", "www.a.example", "WWW.A.example.", "b.example", "www.b.example",
		"e1.cdn.wld", "e2.cdn.wld", "E3.CDN.wld.", "pool.cdn.wld", "cdn.wld", "ghost.example",
	}
	addrs := []netip.Addr{
		netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2"),
		netip.MustParseAddr("198.51.100.7"), netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8::2"),
	}
	for seed := int64(1); seed <= 40; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		record := func() RR {
			name := names[rnd.Intn(len(names))]
			switch rnd.Intn(4) {
			case 0:
				return RR{Name: name, Type: TypeCNAME, TTL: 60, Target: names[rnd.Intn(len(names))]}
			case 1:
				return RR{Name: name, Type: TypeTXT, TTL: 60}
			default:
				a := addrs[rnd.Intn(len(addrs))]
				typ := uint16(TypeA)
				if a.Is6() {
					typ = TypeAAAA
				}
				return RR{Name: name, Type: typ, TTL: 60, Addr: a}
			}
		}
		root := &modelRegistry{reg: NewRegistry(), want: map[string][]RR{}}
		root.attach()
		members := []*modelRegistry{root}
		for step := 0; step < 60; step++ {
			m := members[rnd.Intn(len(members))]
			var after string
			switch op := rnd.Intn(10); {
			case op < 3:
				rr := record()
				m.reg.Add(rr)
				m.add(rr)
				after = fmt.Sprintf("Add(%s %d)", rr.Name, rr.Type)
			case op < 5:
				batch := make([]RR, 1+rnd.Intn(4))
				for i := range batch {
					batch[i] = record()
					m.add(batch[i])
				}
				m.reg.AddBatch(batch)
				after = fmt.Sprintf("AddBatch(%d)", len(batch))
			case op < 8:
				name, typ := names[rnd.Intn(len(names))], []uint16{TypeA, TypeAAAA, TypeCNAME, TypeTXT}[rnd.Intn(4)]
				got, want := m.reg.Remove(name, typ), m.remove(name, typ)
				if got != want {
					t.Fatalf("seed %d step %d: Remove(%q, %d) removed %d, want %d", seed, step, name, typ, got, want)
				}
				after = fmt.Sprintf("Remove(%s %d)", name, typ)
			default:
				if len(members) >= 6 {
					continue
				}
				c := &modelRegistry{reg: m.reg.Clone(), want: make(map[string][]RR, len(m.want))}
				for name, rrs := range m.want {
					c.want[name] = slices.Clone(rrs)
				}
				c.attach()
				members = append(members, c)
				after = "Clone"
			}
			for i, m := range members {
				m.check(t, fmt.Sprintf("seed %d step %d member %d", seed, step, i), after, names)
			}
		}
	}
}

// TestRegistryWriteCostsTheNamesWritten: a write on a clone of a
// 60 000-name registry allocates for the name it writes, not for the
// registry — the first write on a fresh clone included — and reads on a
// clone that never wrote touch no overlay.
func TestRegistryWriteCostsTheNamesWritten(t *testing.T) {
	base := NewRegistrySized(60000)
	batch := make([]RR, 0, 60000)
	for i := 0; i < 60000; i++ {
		batch = append(batch, RR{Name: fmt.Sprintf("h%d.example", i), Type: TypeA, TTL: 60,
			Addr: netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})})
	}
	base.AddBatch(batch)
	repoint := func(r *Registry) {
		r.Remove("h777.example", TypeA)
		r.Add(RR{Name: "h777.example", Type: TypeA, TTL: 20, Addr: netip.MustParseAddr("198.51.100.1")})
	}

	// A constant: the clone, the overlay map, the one name's records and
	// what Add's append grows. The whole-map copy this replaced made
	// 60 000 allocations here.
	const bound = 8
	if n := testing.AllocsPerRun(20, func() { repoint(base.Clone()) }); n > bound {
		t.Errorf("first write on a fresh clone of a 60k-name registry: %.0f allocations, want at most %d", n, bound)
	}
	clone := base.Clone()
	if n := testing.AllocsPerRun(100, func() { repoint(clone) }); n > bound {
		t.Errorf("a later write on that clone: %.0f allocations, want at most %d", n, bound)
	}
	if !clone.Written() || base.Written() || base.Clone().Written() {
		t.Errorf("Written: the written clone %v, its source %v, a fresh clone %v; want true, false, false",
			clone.Written(), base.Written(), base.Clone().Written())
	}
	if got := base.Lookup("h777.example", TypeA); len(got) != 1 || got[0].TTL != 60 {
		t.Errorf("the source sees the clone's write: %v", got)
	}
	if clone.Len() != 60000 || len(clone.Names()) != 60000 {
		t.Errorf("clone Len %d, %d names after re-pointing one; want 60000", clone.Len(), len(clone.Names()))
	}
	names := clone.Names()
	if !sort.StringsAreSorted(names) {
		t.Error("Names not sorted across base and overlay")
	}
}

// TestAdoptedBatchesMatchModel drives AddBatch's adoption where a window
// into the caller's slice could leak into a neighbour's records: runs of
// several owners in one batch, an owner split across two runs, an
// in-place Remove and an Add on an adopted window, a batch into a cloned
// registry, and the adopted slice scribbled over after a clone wrote the
// owner scribbled on. After every step every member answers as its model
// does, so no neighbour's records moved.
func TestAdoptedBatchesMatchModel(t *testing.T) {
	names := []string{"a.example", "www.a.example", "b.example", "e1.cdn.wld", "e2.cdn.wld", "ghost.example"}
	a := func(name string, last byte) RR {
		return RR{Name: name, Type: TypeA, TTL: 60, Addr: netip.AddrFrom4([4]byte{192, 0, 2, last})}
	}
	root := &modelRegistry{reg: NewRegistry(), want: map[string][]RR{}}
	root.attach()
	members := []*modelRegistry{root}
	batch := func(m *modelRegistry, rrs ...RR) []RR {
		for _, rr := range rrs {
			m.add(rr)
		}
		m.reg.AddBatch(rrs)
		return rrs
	}
	checkAll := func(after string) {
		t.Helper()
		for i, m := range members {
			m.check(t, fmt.Sprintf("member %d", i), after, names)
		}
	}

	// Three owners in five runs: a.example (two spellings, one run), www
	// (a CNAME and a TXT), b.example, then a.example again — held by now,
	// so appended, not adopted — and e1.
	first := batch(root,
		a("a.example", 1), a("A.Example.", 2),
		RR{Name: "www.a.example", Type: TypeCNAME, TTL: 60, Target: "A.example."}, RR{Name: "www.a.example", Type: TypeTXT, TTL: 60},
		a("b.example", 3), a("b.example", 4),
		a("a.example", 5), a("e1.cdn.wld", 6))
	checkAll("a batch of five runs")
	if first[1].Name != "a.example" || first[2].Target != "a.example" || first[0].Class != ClassINET {
		t.Errorf("the batch was not canonicalised in place: %+v", first[:3])
	}

	// www's window is first[2:4]. Remove filters it in place and Add
	// appends into the room that left — first[3] — and no further.
	if got, want := root.reg.Remove("www.a.example", TypeTXT), root.remove("www.a.example", TypeTXT); got != want {
		t.Fatalf("Remove removed %d, want %d", got, want)
	}
	checkAll("Remove on an adopted window")
	root.reg.Add(a("www.a.example", 7))
	root.add(a("www.a.example", 7))
	root.reg.Add(a("www.a.example", 8)) // the window is full: this one moves www out of the batch
	root.add(a("www.a.example", 8))
	checkAll("Add on an adopted window")
	if !reflect.DeepEqual(first[4], canon(a("b.example", 3))) {
		t.Errorf("Add on www's window wrote its neighbour: %+v", first[4])
	}

	// A batch into a clone appends to private copies, whether the shared
	// map holds the owner (b) or not (e2), and the source sees neither.
	clone := &modelRegistry{reg: root.reg.Clone(), want: map[string][]RR{}}
	for name, rrs := range root.want {
		clone.want[name] = slices.Clone(rrs)
	}
	clone.attach()
	members = append(members, clone)
	second := batch(clone, a("b.example", 9), a("e2.cdn.wld", 10), a("e2.cdn.wld", 11))
	checkAll("a batch into a clone")
	batch(root, a("e2.cdn.wld", 12), a("ghost.example", 13)) // the source is shared now, too
	checkAll("a batch into a cloned-from registry")

	// The clone wrote b.example, so it reads its own copy: scribbling over
	// b's window in the first batch, and over the whole second batch,
	// moves nothing the clone answers. (The source still reads the
	// window — AddBatch took the slice — so it is put back before the
	// source is checked again.)
	saved := slices.Clone(first[4:6])
	first[4], first[5] = a("scribble.example", 99), a("scribble.example", 98)
	for i := range second {
		second[i] = a("scribble.example", 97)
	}
	clone.check(t, "the clone", "the adopted slices were scribbled over", names)
	copy(first[4:6], saved)
	checkAll("the scribble was undone")
}

// TestAddBatchAdoptsRuns: a batch of runs of new owners costs what the
// map costs — nothing when the registry was sized for them — and no
// allocation per owner or per record, because each owner's records are a
// window into the batch; the same batch into a registry that shares its
// map is copied owner by owner, as before.
func TestAddBatchAdoptsRuns(t *testing.T) {
	const owners = 4096
	fresh := func() []RR {
		batch := make([]RR, 0, 2*owners)
		for i := 0; i < owners; i++ {
			name := fmt.Sprintf("h%d.example", i)
			batch = append(batch, RR{Name: name, Type: TypeA, TTL: 60, Addr: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})},
				RR{Name: name, Type: TypeTXT, TTL: 60})
		}
		return batch
	}
	// AllocsPerRun calls its function once more than it is asked to.
	const runs = 5
	measure := func(newRegistry func() *Registry) float64 {
		regs, batches := make([]*Registry, runs+1), make([][]RR, runs+1)
		for i := range regs {
			regs[i], batches[i] = newRegistry(), fresh()
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			regs[next].AddBatch(batches[next])
			next++
		})
	}
	if n := measure(func() *Registry { return NewRegistrySized(owners) }); n > 0 {
		t.Errorf("AddBatch of %d new owners into a registry sized for them: %.0f allocations, want 0", owners, n)
	}
	if n := measure(NewRegistry); n > owners/8 {
		t.Errorf("AddBatch of %d new owners into an empty registry: %.0f allocations, want map growth only", owners, n)
	}
	if n := measure(func() *Registry { return NewRegistrySized(owners).Clone() }); n < owners {
		t.Errorf("AddBatch of %d owners into a shared registry: %.0f allocations; it must copy each owner's records", owners, n)
	}
	r := NewRegistrySized(owners)
	batch := fresh()
	r.AddBatch(batch)
	if got := r.Lookup("h7.example", TypeTXT); len(got) != 1 || &r.records["h7.example"][0] != &batch[14] {
		t.Errorf("h7.example's records are not the batch's own: %v", got)
	}
	if rrs := r.records["h7.example"]; len(rrs) != 2 || cap(rrs) != 2 {
		t.Errorf("h7.example's window has len %d cap %d, want 2 and 2", len(rrs), cap(rrs))
	}
}
