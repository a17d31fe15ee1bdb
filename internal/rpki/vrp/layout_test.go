package vrp

import (
	"bytes"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"ripki/internal/netutil"
)

// holdsPointers reports whether a value of type t holds anything the
// collector has to scan.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && holdsPointers(t.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	}
	return false
}

// TestBaseIsPointerFree: a frozen base is two arrays of types that
// hold no pointer, so a collection marks a table's base as two objects
// whatever its size, and a node is 32 bytes — the two key words, two
// child indices, a payload offset, the length and the family. (40 bytes
// is the most a node may take before a base costs what the nodes of the
// radix tree it replaced cost less the pointers.)
func TestBaseIsPointerFree(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 32 {
		t.Errorf("a base node is %d bytes, want 32", got)
	}
	for _, typ := range []reflect.Type{
		reflect.TypeFor[frozen]().Field(0).Type.Elem(), // nodes
		reflect.TypeFor[frozen]().Field(1).Type.Elem(), // payloads
	} {
		if holdsPointers(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
	if !holdsPointers(reflect.TypeFor[table]()) {
		t.Error("the pointer walk does not see the overlay's root pointers")
	}
}

// TestRowAndPayloadArePointerFree: a table's payload is 8 bytes and a
// builder's row 24, and neither holds a pointer, so the collector never
// scans a table's payload array or a builder's chunks. A VRP holds one
// (the address's zone), which the walk must see.
func TestRowAndPayloadArePointerFree(t *testing.T) {
	if got := unsafe.Sizeof(payload{}); got != 8 {
		t.Errorf("payload is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(row{}); got != 24 {
		t.Errorf("row is %d bytes, want 24", got)
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[payload](), reflect.TypeFor[row]()} {
		if holdsPointers(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
	if !holdsPointers(reflect.TypeFor[VRP]()) {
		t.Error("the pointer walk does not see VRP's zone pointer")
	}
}

// edgeVRPs are the corners of both families: whole-space and host
// prefixes, maxLength at the family's width, ASN 0 and 2^32-1, IPv4
// addresses with the top bit set, and IPv6 addresses that hold an IPv4
// address or differ only in their low word.
func edgeVRPs() []VRP {
	var vs []VRP
	for _, s := range []string{
		"0.0.0.0/0", "128.0.0.0/1", "255.255.255.255/32", "10.0.0.0/8", "10.0.0.0/9",
		"::/0", "8000::/1", "::ffff:10.0.0.0/104", "::a00:0/104", "2001:db8::/32",
		"2001:db8::1/128", "2001:db8::2/128", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
	} {
		p := netutil.MustPrefix(s)
		width := p.Addr().BitLen()
		for _, ml := range []int{p.Bits(), width} {
			for _, asn := range []uint32{0, 1, math.MaxUint32} {
				vs = append(vs, VRP{Prefix: p, MaxLength: ml, ASN: asn})
			}
		}
	}
	return vs
}

// TestRowOrderIsCompare: compareRows orders rows as Compare orders the
// VRPs they came from, and a row gives back its VRP's prefix.
func TestRowOrderIsCompare(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	vs := append(edgeVRPs(), mixedVRPs(rnd, 400)...)
	sign := func(c int) int { return min(max(c, -1), 1) }
	for _, a := range vs {
		ra := rowOf(a)
		if got := ra.prefix(); got != a.Prefix {
			t.Fatalf("row of %v gives back the prefix %v", a, got)
		}
		if got := payloadOf(a).vrp(ra.prefix()); got != a {
			t.Fatalf("row and payload of %v give back %v", a, got)
		}
		for _, b := range vs {
			if got, want := sign(compareRows(ra, rowOf(b))), sign(Compare(a, b)); got != want {
				t.Fatalf("compareRows(%v, %v) = %d, Compare says %d", a, b, got, want)
			}
		}
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestLiveBytesPerVRP gates what a loaded table keeps: the live heap a
// 300 000-VRP set adds, per VRP, read from a shuffled CSV and built by a
// Builder fed in Compare order. Both read 47.8 B a VRP (the base's
// 32-byte nodes and its one payload array); as a radix tree of 64-byte
// pointer nodes over the same payloads they read 87.6, and when each
// prefix's value was a window of 48-byte VRPs 127.6 and 128.1.
func TestLiveBytesPerVRP(t *testing.T) {
	const n = 300000
	const limit = 60.0 // bytes a VRP: the measured 47.8 and a quarter
	vs := validatorVRPs(n)
	sorted := slices.Clone(vs)
	slices.SortFunc(sorted, Compare)
	data := csvOf(vs)
	for name, load := range map[string]func() *Set{
		"ReadCSV, shuffled": func() *Set {
			s, err := ReadCSV(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"Builder, in order": func() *Set {
			var b Builder
			for _, v := range sorted {
				if err := b.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			return b.Set()
		},
	} {
		before := liveHeap()
		s := load()
		perVRP := float64(int64(liveHeap())-int64(before)) / n
		if s.Len() != n {
			t.Fatalf("%s: %d VRPs, want %d", name, s.Len(), n)
		}
		runtime.KeepAlive(s)
		if perVRP > limit {
			t.Errorf("%s: the table keeps %.1f B a VRP live, want at most %.0f", name, perVRP, limit)
		} else {
			t.Logf("%s: %.1f B a VRP live", name, perVRP)
		}
	}
}

// listModel is the brute-force reference FuzzBuilder checks a table
// against, built with no table at all: the VRPs held, sorted by Compare,
// with covering found by a linear scan.
type listModel []VRP

// takes canonicalises v, or reports that no table takes it: an invalid
// prefix, or a maxLength outside [prefix length, address width].
func takes(v VRP) (VRP, bool) {
	if !v.Prefix.IsValid() {
		return v, false
	}
	v.Prefix = v.Prefix.Masked()
	return v, v.MaxLength >= v.Prefix.Bits() && v.MaxLength <= v.Prefix.Addr().BitLen()
}

// apply adds or removes a canonical VRP and reports whether that
// changed the model.
func (m *listModel) apply(v VRP, remove bool) bool {
	i, found := slices.BinarySearchFunc(*m, v, Compare)
	switch {
	case remove && found:
		*m = slices.Delete(*m, i, i+1)
	case !remove && !found:
		*m = slices.Insert(*m, i, v)
	default:
		return false
	}
	return true
}

// validateExplain is RFC 6811 by a scan of every VRP in Compare order,
// which lists nested covering prefixes shortest first.
func (m listModel) validateExplain(p netip.Prefix, asn uint32) (State, []VRP) {
	state := NotFound
	var covering []VRP
	for _, v := range m {
		if v.Prefix.Addr().Is4() != p.Addr().Is4() || v.Prefix.Bits() > p.Bits() || !v.Prefix.Contains(p.Addr()) {
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

// diff is what Diff reports between two sorted models.
func (m listModel) diff(old listModel) (announce, withdraw []VRP) {
	for _, v := range m {
		if _, found := slices.BinarySearchFunc(old, v, Compare); !found {
			announce = append(announce, v)
		}
	}
	for _, v := range old {
		if _, found := slices.BinarySearchFunc(m, v, Compare); !found {
			withdraw = append(withdraw, v)
		}
	}
	return announce, withdraw
}

// A builder script is a run of five-byte operations: op, two address
// bytes, a prefix length and a maxLength byte. Bit 0 of op removes
// rather than adds, bit 1 picks IPv6 and bits 2-4 the ASN. The address
// bytes land where a prefix's length can keep or mask them, so scripts
// repeat prefixes and canonicalise host bits; a maxLength byte can make
// the VRP one no table takes. The first op with bit 5 set builds the set,
// and it and every op after it are Insert and Remove on the built set;
// among those, bit 6 compacts the set after the op.
const scriptOp = 5

// maxScript is the longest script a fuzz target reads.
const maxScript = 256 * scriptOp

var scriptASNs = [...]uint32{0, 1, 64500, 64501, 64502, 65535, 1 << 31, math.MaxUint32}

// scriptVRP decodes one operation.
func scriptVRP(op []byte) (v VRP, remove bool) {
	width := 32
	var addr netip.Addr
	if op[0]&2 == 0 {
		addr = netip.AddrFrom4([4]byte{10, op[1], op[2], op[1] ^ op[2]})
	} else {
		width = 128
		addr = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, op[1], op[2], 14: op[1], 15: op[2]})
	}
	bits := int(op[3]) % (width + 1)
	return VRP{
		Prefix:    netip.PrefixFrom(addr, bits),
		MaxLength: int(op[4]) % (width + 2),
		ASN:       scriptASNs[op[0]>>2&7],
	}, op[0]&1 == 1
}

// FuzzBuilder: whatever Add/Remove script a Builder is fed, and whatever
// Insert/Remove script and compactions the set it builds then takes,
// the table is the brute-force model's at every step that is checked:
// the set as built (a base alone), the set after the deltas, an index
// frozen from it, and the clone taken at the build, which the deltas
// must not reach — the same All, Len, Contains, Diff and answers with
// the same covering lists for routes at, inside and around every prefix
// the script names. Add and Insert refuse exactly what the model does
// not take, and the deltas followed by a compaction leave the very base
// FromVRPs builds from the result. The seeds under
// testdata/fuzz/FuzzBuilder cover both families, repeats, rows in and
// out of order, maxLength 32 and 128, ASN 0 and 2^32-1, deltas across a
// compaction and tombstones over the base.
func FuzzBuilder(f *testing.F) { f.Fuzz(builderScript) }

// builderScript is FuzzBuilder's check of one script.
func builderScript(t *testing.T, script []byte) {
	// The model answers by scanning: past a few hundred operations an
	// input costs minutes and finds nothing a short one does not.
	script = script[:min(len(script), maxScript)]
	var b Builder
	var built, atBuild *Set
	var model, modelAtBuild listModel
	var probes []VRP
	for ; len(script) >= scriptOp; script = script[scriptOp:] {
		op := script[:scriptOp]
		v, remove := scriptVRP(op)
		probes = append(probes, v)
		cv, ok := takes(v)
		if built == nil && op[0]&0x20 != 0 {
			built = b.Set()
			sameTable(t, "built", built, model)
			atBuild, modelAtBuild = built.Clone(), slices.Clone(model)
		}
		switch {
		case built == nil && remove:
			b.Remove(v)
		case built == nil:
			if err := b.Add(v); (err == nil) != ok {
				t.Fatalf("Builder.Add(%v): %v, the model takes it: %v", v, err, ok)
			}
		case remove:
			if got, want := built.Remove(v), ok && slices.Contains(model, cv); got != want {
				t.Fatalf("Remove(%v) = %v, the model held it: %v", v, got, want)
			}
		default:
			added, err := built.Insert(v)
			if (err == nil) != ok {
				t.Fatalf("Insert(%v): %v, the model takes it: %v", v, err, ok)
			}
			if want := ok && !slices.Contains(model, cv); added != want {
				t.Fatalf("Insert(%v) = %v, new to the model: %v", v, added, want)
			}
		}
		if ok {
			model.apply(cv, remove)
		}
		if built != nil && op[0]&0x40 != 0 {
			built.mu.Lock()
			built.compact()
			built.mu.Unlock()
		}
	}
	if built == nil {
		built = b.Set()
		sameTable(t, "built", built, model)
		atBuild, modelAtBuild = built.Clone(), slices.Clone(model)
	}
	check := func(what string, q queryable, m listModel) {
		t.Helper()
		if got := q.all(); !slices.Equal(got, m) || q.Len() != len(m) {
			t.Fatalf("%s: all = %v (Len %d), model %v", what, got, q.Len(), m)
		}
		for _, v := range probes {
			width := v.Prefix.Addr().BitLen()
			for _, bits := range []int{0, v.Prefix.Bits() - 1, v.Prefix.Bits(), v.Prefix.Bits() + 1, width} {
				if bits < 0 || bits > width {
					continue
				}
				route := netip.PrefixFrom(v.Prefix.Addr(), bits)
				for _, asn := range []uint32{v.ASN, v.ASN + 1} {
					wantState, wantCov := m.validateExplain(route.Masked(), asn)
					if state, cov := q.ValidateExplain(route, asn); state != wantState || !slices.Equal(cov, wantCov) {
						t.Fatalf("%s: ValidateExplain(%v, AS%d) = %v %v, model %v %v", what, route, asn, state, cov, wantState, wantCov)
					}
				}
			}
		}
	}
	check("after the deltas", built, model)
	check("frozen after the deltas", IndexOf(built), model)
	check("cloned at the build", atBuild, modelAtBuild)
	for _, v := range probes {
		cv, ok := takes(v)
		if got, want := built.Contains(v), ok && slices.Contains(model, cv); got != want {
			t.Fatalf("Contains(%v) = %v, model %v", v, got, want)
		}
	}
	announce, withdraw := built.Diff(atBuild)
	wantAnn, wantWd := model.diff(modelAtBuild)
	if !slices.Equal(announce, wantAnn) || !slices.Equal(withdraw, wantWd) {
		t.Fatalf("Diff = +%v -%v, model +%v -%v", announce, withdraw, wantAnn, wantWd)
	}
	built.mu.Lock()
	built.compact()
	built.mu.Unlock()
	fresh, err := FromVRPs(model)
	if err != nil {
		t.Fatal(err)
	}
	if built.over.Len() != 0 || !slices.Equal(built.base.nodes, fresh.base.nodes) ||
		!slices.Equal(built.base.payloads, fresh.base.payloads) || built.base.v6 != fresh.base.v6 || built.count != fresh.count {
		t.Fatalf("compacted after the deltas, the base is not FromVRPs of the model")
	}
}
