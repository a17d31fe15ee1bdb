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
	"unsafe"
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
	var b Builder
	for i := 0; i < 60000; i++ {
		b.Add(RR{Name: fmt.Sprintf("h%d.example", i), Type: TypeA, TTL: 60,
			Addr: netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})})
	}
	base := Build(&b)
	repoint := func(r *Registry) {
		r.Remove("h777.example", TypeA)
		r.Add(RR{Name: "h777.example", Type: TypeA, TTL: 20, Addr: netip.MustParseAddr("198.51.100.1")})
	}

	// A constant: the clone, the overlay map, the one name's records and
	// what Add's append grows. A whole-registry copy would make 60 000
	// allocations here.
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

// built is the model of a registry Build made from parts: every record
// in the order it was added, and no hook call.
func built(parts ...[]RR) *modelRegistry {
	m := &modelRegistry{want: map[string][]RR{}}
	bs := make([]*Builder, len(parts))
	for k, rrs := range parts {
		bs[k] = new(Builder)
		for _, rr := range rrs {
			bs[k].Add(rr)
			rr = canon(rr)
			m.want[rr.Name] = append(m.want[rr.Name], rr)
		}
	}
	m.reg = Build(bs...)
	m.attach()
	return m
}

// TestBuildMatchesModel builds a base from three parts the way a world
// is generated — a pool part, shards, fixtures — with an owner written
// in interleaved runs (the kickass.to fixture alternates its apex and
// its cache host), owners split across parts, a CNAME to a name nobody
// owns and a name that is only ever a target; then writes on it and on
// clones of it. After every step every member answers as its model
// does, the base's reads and the overlay's alike.
func TestBuildMatchesModel(t *testing.T) {
	names := []string{"kickass.to", "www.kickass.to", "ka.cdn.wld", "a.example", "www.a.example",
		"e1.cdn.wld", "e2.cdn.wld", "ghost.example", "dangling.example", "only.target"}
	a := func(name string, last byte) RR {
		return RR{Name: name, Type: TypeA, TTL: uint32(last), Addr: netip.AddrFrom4([4]byte{192, 0, 2, last})}
	}
	cname := func(name, target string) RR { return RR{Name: name, Type: TypeCNAME, TTL: 300, Target: target} }
	key := &RData{DNSKEY: &DNSKEYData{Flags: 257, Protocol: 3, Algorithm: 8, PublicKey: []byte{1, 2, 3}}}
	root := built(
		[]RR{a("e1.cdn.wld", 1), {Name: "E1.cdn.wld.", Type: TypeAAAA, TTL: 20, Addr: netip.MustParseAddr("2001:db8::1")}, a("e2.cdn.wld", 2)},
		[]RR{{Name: "a.example", Type: TypeDNSKEY, TTL: 3600, Data: key}, a("a.example", 3),
			cname("www.a.example", "e1.cdn.wld"), cname("dangling.example", "Only.Target."), a("e2.cdn.wld", 4)},
		[]RR{a("ka.cdn.wld", 5), a("kickass.to", 5), a("ka.cdn.wld", 6), a("kickass.to", 6), cname("www.kickass.to", "ka.cdn.wld"),
			{Name: "a.example", Type: TypeTXT, TTL: 60, Data: &RData{TXT: []string{"v=spf1"}}}},
	)
	members := []*modelRegistry{root}
	checkAll := func(after string) {
		t.Helper()
		for i, m := range members {
			m.check(t, fmt.Sprintf("member %d", i), after, names)
		}
	}
	checkAll("Build")
	if got := root.reg.Len(); got != 8 {
		t.Errorf("Len %d, want the 8 owners (a name only a CNAME points at is none)", got)
	}
	if _, rcode := root.reg.Resolve("only.target", TypeA); rcode != RCodeNameError {
		t.Errorf("a name that is only a target answers rcode %d, want NXDOMAIN", rcode)
	}
	ka := root.reg.Lookup("ka.cdn.wld", TypeA)
	if got, ok := root.reg.Interned("ka.cdn.wld"); !ok || len(ka) != 2 || unsafe.StringData(got) != unsafe.StringData(ka[0].Name) {
		t.Errorf("Interned and a record's Name are not one string in the name table")
	}
	if got, ok := root.reg.Interned("only.target"); !ok || got != "only.target" {
		t.Errorf("Interned of a name only a CNAME points at: %q, %v", got, ok)
	}
	if got, ok := root.reg.Interned("nosuch.example"); ok {
		t.Errorf("Interned of a name the registry does not hold: %q", got)
	}

	// Writes on the built registry land in its overlay; a clone shares
	// the base, and each side sees only its own writes.
	if got, want := root.reg.Remove("kickass.to", TypeA), root.remove("kickass.to", TypeA); got != want {
		t.Fatalf("Remove removed %d, want %d", got, want)
	}
	root.reg.Add(a("only.target", 7))
	root.add(a("only.target", 7))
	checkAll("writes on the built registry")
	clone := &modelRegistry{reg: root.reg.Clone(), want: map[string][]RR{}}
	for name, rrs := range root.want {
		clone.want[name] = slices.Clone(rrs)
	}
	clone.attach()
	members = append(members, clone)
	for _, typ := range []uint16{TypeA, TypeAAAA} {
		if got, want := clone.reg.Remove("e1.cdn.wld", typ), clone.remove("e1.cdn.wld", typ); got != want {
			t.Fatalf("Remove removed %d, want %d", got, want)
		}
	}
	batch := []RR{a("ka.cdn.wld", 8), cname("ghost.example", "kickass.to")}
	clone.reg.AddBatch(batch)
	for _, rr := range batch {
		clone.add(rr)
	}
	checkAll("a clone emptied an owner of the base and wrote two more")
	root.reg.Add(a("e1.cdn.wld", 9))
	root.add(a("e1.cdn.wld", 9))
	checkAll("the source wrote after the clone")
}

// TestBuildAllocatesPerColumnNotPerRecord: filling a builder costs the
// growth of its columns, not an allocation per owner or per record, and
// Build makes a fixed number of allocations whatever the number of
// owners — no map entry and no slice per name.
func TestBuildAllocatesPerColumnNotPerRecord(t *testing.T) {
	const owners = 4096
	names := make([]string, owners)
	for i := range names {
		names[i] = fmt.Sprintf("h%d.example", i)
	}
	fill := func(b *Builder) {
		for i, name := range names {
			b.Add(RR{Name: name, Type: TypeA, TTL: 60, Addr: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})})
			b.Add(RR{Name: name, Type: TypeCNAME, TTL: 60, Target: names[(i+1)%owners]})
		}
	}
	if n := testing.AllocsPerRun(5, func() { fill(new(Builder)) }); n > 150 {
		t.Errorf("adding %d owners of two records: %.0f allocations, want column growth only", owners, n)
	}
	// AllocsPerRun calls its function once more than it is asked to.
	const runs = 5
	parts := make([][2]*Builder, runs+1)
	for i := range parts {
		parts[i] = [2]*Builder{new(Builder), new(Builder)}
		fill(parts[i][0])
		fill(parts[i][1])
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() { Build(parts[next][0], parts[next][1]); next++ }); n > 24 {
		t.Errorf("Build of two parts of %d owners: %.0f allocations, want a fixed few", owners, n)
	}
}

// TestBuilderRefusesWhatItCannotHold: a record the columns have no room
// for panics at Add, rather than coming back changed; the overlay, which
// keeps whole records, takes the same record as it is.
func TestBuilderRefusesWhatItCannotHold(t *testing.T) {
	for _, rr := range []RR{
		{Name: "chaos.example", Type: TypeTXT, Class: 3, TTL: 60},
		{Name: "big.example", Type: 300, TTL: 60},
		{Name: "v6.example", Type: TypeA, TTL: 60, Addr: netip.MustParseAddr("2001:db8::1")},
		{Name: "v4.example", Type: TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("192.0.2.1")},
		{Name: "scoped.example", Type: TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("fe80::1%eth0")},
		{Name: "none.example", Type: TypeA, TTL: 60},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Builder.Add(%+v) did not panic", rr)
				}
			}()
			new(Builder).Add(rr)
		}()
		r := NewRegistry()
		r.Add(rr)
		if got := r.Lookup(rr.Name, rr.Type); len(got) != 1 || !reflect.DeepEqual(got[0], canon(rr)) {
			t.Errorf("Registry.Add(%+v) holds %+v", rr, got)
		}
	}
}

// FuzzRegistry runs a byte script against the model: a base built from
// a few parts, then Add, AddBatch, Remove and Clone on members of the
// family, every member held to its model (Len, Names, NamesUnder,
// Lookup, Resolve, LookupWebInto and the zone dump, and every hook
// call) after every step. The committed seeds cover an owner written in
// interleaved runs across parts, a CNAME that dangles, and a clone that
// removes a base owner's last record.
func FuzzRegistry(f *testing.F) {
	names := []string{"a.example", "www.a.example", "WWW.A.example.", "ka.cdn.wld", "e1.cdn.wld", "E2.CDN.wld.", "cdn.wld", "ghost.example"}
	addrs := []netip.Addr{netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("198.51.100.7"), netip.MustParseAddr("2001:db8::1")}
	key := &RData{DNSKEY: &DNSKEYData{Flags: 257, Protocol: 3, Algorithm: 8, PublicKey: []byte{7}}}
	f.Fuzz(func(t *testing.T, script []byte) {
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		// Two bytes a record: its owner and TTL, then its kind and payload.
		record := func() RR {
			n, k := next(), next()
			rr := RR{Name: names[n%len(names)], TTL: uint32(n)}
			switch v := k / 5; k % 5 {
			case 0:
				rr.Type, rr.Target = TypeCNAME, names[v%len(names)]
			case 1:
				rr.Type = TypeTXT
			case 2:
				rr.Type, rr.Data = TypeDNSKEY, key
			default:
				rr.Type, rr.Addr = TypeA, addrs[v%2]
				if k%5 == 4 {
					rr.Type, rr.Addr = TypeAAAA, addrs[2]
				}
			}
			return rr
		}
		parts := make([][]RR, 1+next()%3)
		for k := range parts {
			for range next() % 8 {
				parts[k] = append(parts[k], record())
			}
		}
		members := []*modelRegistry{built(parts...)}
		members[0].check(t, "member 0", "Build", names)
		for step := 0; step < 24 && len(script) > 0; step++ {
			m := members[next()%len(members)]
			var after string
			switch op := next() % 4; op {
			case 0:
				rr := record()
				m.reg.Add(rr)
				m.add(rr)
				after = fmt.Sprintf("Add(%s %d)", rr.Name, rr.Type)
			case 1:
				batch := make([]RR, 1+next()%3)
				for i := range batch {
					batch[i] = record()
					m.add(batch[i])
				}
				m.reg.AddBatch(batch)
				after = fmt.Sprintf("AddBatch(%d)", len(batch))
			case 2:
				name, typ := names[next()%len(names)], []uint16{TypeA, TypeAAAA, TypeCNAME, TypeTXT, TypeDNSKEY}[next()%5]
				if got, want := m.reg.Remove(name, typ), m.remove(name, typ); got != want {
					t.Fatalf("step %d: Remove(%q, %d) removed %d, want %d", step, name, typ, got, want)
				}
				after = fmt.Sprintf("Remove(%s %d)", name, typ)
			default:
				c := &modelRegistry{reg: m.reg.Clone(), want: make(map[string][]RR, len(m.want))}
				for name, rrs := range m.want {
					c.want[name] = slices.Clone(rrs)
				}
				c.attach()
				members = append(members, c)
				after = "Clone"
			}
			for i, m := range members {
				m.check(t, fmt.Sprintf("step %d member %d", step, i), after, names)
			}
		}
	})
}
