package radix

import (
	"math/rand"
	"net/netip"
	"testing"

	"ripki/internal/netutil"
)

// commonBitsBytes and bitAfterBytes are the byte-wise forms the tree
// used while its nodes held netip prefixes, kept as oracles for the
// word forms.
func commonBitsBytes(a, b netip.Addr, max int) int {
	ab, bb := a.AsSlice(), b.AsSlice()
	n := 0
	for i := 0; i < len(ab) && n < max; i++ {
		x := ab[i] ^ bb[i]
		if x == 0 {
			n += 8
			continue
		}
		for bit := 7; bit >= 0; bit-- {
			if x&(1<<uint(bit)) != 0 {
				break
			}
			n++
		}
		break
	}
	if n > max {
		n = max
	}
	return n
}

func bitAfterBytes(addr netip.Addr, bits int) int {
	if bits >= netutil.FamilyBits(addr) {
		return 0
	}
	return netutil.Bit(addr, bits)
}

// TestWordKeysMatchByteOracles holds the word-wise CommonBits and
// Key.Bit to the byte-wise ones on random pairs of both families that
// agree on a random number of leading bits — none, all, all but the
// last — with max below, at and above the true common length.
func TestWordKeysMatchByteOracles(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		width := 32
		if i%2 == 1 {
			width = 128
		}
		raw := make([]byte, width/8)
		rnd.Read(raw)
		a, _ := netip.AddrFromSlice(raw)
		// b agrees with a on exactly `same` leading bits (all of them
		// when same == width).
		same := rnd.Intn(width + 1)
		switch rnd.Intn(8) {
		case 0:
			same = 0
		case 1:
			same = width
		case 2:
			same = width - 1
		}
		other := append([]byte(nil), raw...)
		if same < width {
			other[same/8] ^= 0x80 >> (same % 8)
			for j := same + 1; j < width; j++ {
				if rnd.Intn(2) == 1 {
					other[j/8] ^= 0x80 >> (j % 8)
				}
			}
		}
		b, _ := netip.AddrFromSlice(other)
		ka, kb := KeyOf(a), KeyOf(b)
		for _, max := range []int{0, same - 1, same, same + 1, width, rnd.Intn(width + 1)} {
			if max < 0 || max > width {
				continue
			}
			if got, want := CommonBits(ka, kb, max), commonBitsBytes(a, b, max); got != want {
				t.Fatalf("CommonBits(%v, %v, %d) = %d, bytes say %d", a, b, max, got, want)
			}
		}
		for _, at := range []int{0, same, width - 1, width, rnd.Intn(width + 1)} {
			if got, want := ka.Bit(at), bitAfterBytes(a, at); got != want {
				t.Fatalf("Bit(%v, %d) = %d, bytes say %d", a, at, got, want)
			}
		}
		// A key masked to a length is the key of the masked prefix.
		bits := rnd.Intn(width + 1)
		if got, want := ka.Masked(bits), KeyOf(netip.PrefixFrom(a, bits).Masked().Addr()); got != want {
			t.Fatalf("KeyOf(%v).Masked(%d) = %x, netip says %x", a, bits, got, want)
		}
	}
}

// TestQueriesReturnTheInsertedPrefix checks that what comes back across
// the boundary is, value for value, the canonical netip.Prefix that went
// in: an IPv4 prefix stays IPv4 (never 4-in-6), an IPv4-mapped IPv6
// prefix stays IPv6, and /0, /32 and /128 survive.
func TestQueriesReturnTheInsertedPrefix(t *testing.T) {
	in := []netip.Prefix{
		netutil.MustPrefix("0.0.0.0/0"),
		netutil.MustPrefix("10.0.0.0/8"),
		netutil.MustPrefix("10.1.2.3/32"),
		netutil.MustPrefix("255.255.255.255/32"),
		netutil.MustPrefix("::/0"),
		netutil.MustPrefix("::ffff:10.0.0.0/104"),
		netutil.MustPrefix("2001:db8::/32"),
		netutil.MustPrefix("2001:db8::1/128"),
		netutil.MustPrefix("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"),
	}
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		in = append(in, randPrefix4(rnd), randPrefix6(rnd))
	}
	var tr Tree[int]
	want := make(map[netip.Prefix]int)
	for i, p := range in {
		if err := tr.Insert(p, i); err != nil {
			t.Fatal(err)
		}
		want[p] = i
	}
	seen := 0
	tr.Walk(func(p netip.Prefix, v int) bool {
		if w, ok := want[p]; !ok || w != v {
			t.Errorf("Walk yields %v=%d, inserted %d (present %v)", p, v, w, ok)
		}
		seen++
		return true
	})
	if seen != len(want) {
		t.Errorf("Walk visited %d entries, want %d", seen, len(want))
	}
	for p, w := range want {
		es := tr.CoveringPrefix(p, nil)
		if len(es) == 0 || es[len(es)-1] != (Entry[int]{Prefix: p, Value: w}) {
			t.Errorf("CoveringPrefix(%v) ends at %v, want %v=%d", p, es, p, w)
		}
		for _, e := range es {
			if e.Prefix.Addr().Is4() != p.Addr().Is4() {
				t.Errorf("CoveringPrefix(%v) lists %v of another family", p, e.Prefix)
			}
			if _, ok := want[e.Prefix]; !ok {
				t.Errorf("CoveringPrefix(%v) lists %v, never inserted", p, e.Prefix)
			}
		}
		sub := subtree(&tr, p)
		if len(sub) == 0 || sub[0] != (Entry[int]{Prefix: p, Value: w}) {
			t.Errorf("Subtree(%v) starts at %v, want %v=%d", p, sub, p, w)
		}
		for _, e := range tr.Covering(p.Addr(), nil) {
			if _, ok := want[e.Prefix]; !ok {
				t.Errorf("Covering(%v) lists %v, never inserted", p.Addr(), e.Prefix)
			}
		}
	}
}
