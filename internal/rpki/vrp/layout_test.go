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
// Builder fed in Compare order. Both read 87.6 B a VRP (nodes and the
// one payload array); when each prefix's value was a window of 48-byte
// VRPs they read 127.6 and 128.1.
func TestLiveBytesPerVRP(t *testing.T) {
	const n = 300000
	const limit = 110.0 // bytes a VRP: the measured 87.6 and a quarter
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

// A builder script is a run of five-byte operations: op, two address
// bytes, a prefix length and a maxLength byte. Bit 0 of op removes
// rather than adds, bit 1 picks IPv6 and bits 2-4 the ASN. The address
// bytes land where a prefix's length can keep or mask them, so scripts
// repeat prefixes and canonicalise host bits; a maxLength byte can make
// the VRP one no table takes.
const scriptOp = 5

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

// FuzzBuilder: whatever Add/Remove script a Builder is fed, Set builds
// the table that applying the same script one operation at a time to a
// set gives — the same All, Len and answers with the same covering
// lists for routes at, inside and around every prefix the script names
// — and Add refuses exactly what Insert refuses. The seeds under
// testdata/fuzz/FuzzBuilder cover both families, repeats, rows in and
// out of order, maxLength 32 and 128, ASN 0 and 2^32-1.
func FuzzBuilder(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		var b Builder
		oracle := NewSet()
		var probes []VRP
		for len(script) >= scriptOp {
			v, remove := scriptVRP(script[:scriptOp])
			script = script[scriptOp:]
			probes = append(probes, v)
			if remove {
				b.Remove(v)
				oracle.Remove(v)
				continue
			}
			err, wantErr := b.Add(v), oracle.Add(v)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("Builder.Add(%v): %v, Insert: %v", v, err, wantErr)
			}
		}
		built := b.Set()
		sameTable(t, "built", built, oracle.All())
		for _, v := range probes {
			width := v.Prefix.Addr().BitLen()
			for _, bits := range []int{0, v.Prefix.Bits() - 1, v.Prefix.Bits(), v.Prefix.Bits() + 1, width} {
				if bits < 0 || bits > width {
					continue
				}
				route := netip.PrefixFrom(v.Prefix.Addr(), bits)
				for _, asn := range []uint32{v.ASN, v.ASN + 1} {
					wantState, wantCov := oracle.ValidateExplain(route, asn)
					if state, cov := built.ValidateExplain(route, asn); state != wantState || !slices.Equal(cov, wantCov) {
						t.Fatalf("ValidateExplain(%v, AS%d) = %v %v, one at a time %v %v", route, asn, state, cov, wantState, wantCov)
					}
				}
			}
		}
	})
}
