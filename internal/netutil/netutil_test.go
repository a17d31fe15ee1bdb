package netutil

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"testing/quick"
)

func TestCanonical(t *testing.T) {
	p, err := Canonical(netip.MustParsePrefix("192.0.2.77/24"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.String(), "192.0.2.0/24"; got != want {
		t.Errorf("Canonical = %s, want %s", got, want)
	}
	if _, err := Canonical(netip.Prefix{}); err == nil {
		t.Error("Canonical(zero) did not fail")
	}
}

func TestCovers(t *testing.T) {
	cases := []struct {
		outer, inner string
		want         bool
	}{
		{"10.0.0.0/8", "10.1.0.0/16", true},
		{"10.0.0.0/8", "10.0.0.0/8", true},
		{"10.1.0.0/16", "10.0.0.0/8", false},
		{"10.0.0.0/8", "11.0.0.0/16", false},
		{"10.0.0.0/8", "2001:db8::/32", false},
		{"2001:db8::/32", "2001:db8:1::/48", true},
		{"2001:db8:1::/48", "2001:db8::/32", false},
		{"0.0.0.0/0", "203.0.113.0/24", true},
		{"::/0", "2001:db8::/32", true},
		{"::/0", "203.0.113.0/24", false},
	}
	for _, c := range cases {
		got := Covers(MustPrefix(c.outer), MustPrefix(c.inner))
		if got != c.want {
			t.Errorf("Covers(%s, %s) = %v, want %v", c.outer, c.inner, got, c.want)
		}
	}
}

func TestBit(t *testing.T) {
	a := netip.MustParseAddr("128.0.0.1")
	if Bit(a, 0) != 1 {
		t.Errorf("Bit(%v, 0) = %d, want 1", a, Bit(a, 0))
	}
	if Bit(a, 1) != 0 {
		t.Errorf("Bit(%v, 1) = %d, want 0", a, Bit(a, 1))
	}
	if Bit(a, 31) != 1 {
		t.Errorf("Bit(%v, 31) = %d, want 1", a, Bit(a, 31))
	}
	v6 := netip.MustParseAddr("8000::1")
	if Bit(v6, 0) != 1 || Bit(v6, 127) != 1 || Bit(v6, 64) != 0 {
		t.Errorf("v6 bits wrong: %d %d %d", Bit(v6, 0), Bit(v6, 127), Bit(v6, 64))
	}
}

func TestBitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Bit out of range did not panic")
		}
	}()
	Bit(netip.MustParseAddr("10.0.0.1"), 32)
}

func TestFamilyBits(t *testing.T) {
	if FamilyBits(netip.MustParseAddr("10.0.0.1")) != 32 {
		t.Error("IPv4 family bits != 32")
	}
	if FamilyBits(netip.MustParseAddr("2001:db8::1")) != 128 {
		t.Error("IPv6 family bits != 128")
	}
}

func TestIsSpecialPurpose(t *testing.T) {
	special := []string{
		"127.0.0.1", "10.11.12.13", "192.168.1.1", "0.1.2.3",
		"169.254.0.9", "224.0.0.5", "255.255.255.255", "100.64.3.3",
		"198.18.22.1", "203.0.113.5", "::1", "fe80::1", "fc00::42",
		"2001:db8::1", "ff02::1", "100::9",
	}
	for _, s := range special {
		if !IsSpecialPurpose(netip.MustParseAddr(s)) {
			t.Errorf("IsSpecialPurpose(%s) = false, want true", s)
		}
	}
	public := []string{
		"8.8.8.8", "193.0.6.139", "151.101.1.140", "2001:500:88:200::8",
		"2600:1406::17", "91.198.174.192",
	}
	for _, s := range public {
		if IsSpecialPurpose(netip.MustParseAddr(s)) {
			t.Errorf("IsSpecialPurpose(%s) = true, want false", s)
		}
	}
	if !IsSpecialPurpose(netip.Addr{}) {
		t.Error("zero Addr should be special")
	}
	if !IsSpecialPurpose(netip.AddrFrom16(netip.MustParseAddr("::ffff:8.8.8.8").As16())) {
		t.Error("4-in-6 mapped address should be special")
	}
}

// specialPurposeByScan is IsSpecialPurpose as it was before the dispatch
// table: every block of the registry tried in turn. It is the oracle.
func specialPurposeByScan(a netip.Addr) bool {
	if !a.IsValid() {
		return true
	}
	if a.Is4In6() {
		return true
	}
	for _, p := range specialPurpose {
		if p.Addr().Is4() == a.Is4() && p.Contains(a) {
			return true
		}
	}
	return false
}

// lastAddr is the highest address in p.
func lastAddr(p netip.Prefix) netip.Addr {
	raw := p.Addr().AsSlice()
	for i := p.Bits(); i < len(raw)*8; i++ {
		raw[i/8] |= 1 << (7 - uint(i%8))
	}
	a, _ := netip.AddrFromSlice(raw)
	return a
}

// TestIsSpecialPurposeMatchesScan holds the dispatch to the scan where
// they could part: every block's first and last address and the
// neighbour on either side of it (across a first-octet boundary for the
// blocks shorter than /8), a zoned address, 4-in-6 forms of all the IPv4
// probes, the zero Addr, and a sweep of every first octet in both
// families.
func TestIsSpecialPurposeMatchesScan(t *testing.T) {
	probes := []netip.Addr{{}, netip.MustParseAddr("fe80::1%eth0"), netip.MustParseAddr("::ffff:10.0.0.1"), netip.MustParseAddr("::ffff:8.8.8.8")}
	for _, p := range specialPurpose {
		first, last := p.Addr(), lastAddr(p)
		probes = append(probes, first, last, first.Prev(), last.Next()) // Prev of 0.0.0.0 and :: is the zero Addr
		if first.Is4() {
			probes = append(probes, netip.AddrFrom16(first.As16()), netip.AddrFrom16(last.As16()))
		}
	}
	for o := 0; o < 256; o++ {
		probes = append(probes,
			netip.AddrFrom4([4]byte{byte(o), 0, 0, 1}), netip.AddrFrom4([4]byte{byte(o), 255, 255, 255}),
			netip.AddrFrom16([16]byte{0: byte(o), 15: 1}), netip.AddrFrom16([16]byte{0: byte(o), 1: 0xff, 15: 1}))
	}
	special := 0
	for _, a := range probes {
		want := specialPurposeByScan(a)
		if got := IsSpecialPurpose(a); got != want {
			t.Errorf("IsSpecialPurpose(%v) = %v, the scan of every block says %v", a, got, want)
		}
		if want {
			special++
		}
	}
	if special < 2*len(specialPurpose) || special == len(probes) {
		t.Errorf("%d of %d probes are special: the probes do not straddle the blocks", special, len(probes))
	}
	for fam := range specialByOctet {
		for o, blocks := range specialByOctet[fam] {
			if len(blocks) > 4 {
				t.Errorf("family %d octet %#02x dispatches to %d blocks, want a few", fam, o, len(blocks))
			}
		}
	}
}

func TestComparePrefixesOrdering(t *testing.T) {
	in := []netip.Prefix{
		MustPrefix("2001:db8::/32"),
		MustPrefix("10.0.0.0/8"),
		MustPrefix("10.0.0.0/16"),
		MustPrefix("9.0.0.0/8"),
		MustPrefix("2001:db8::/48"),
	}
	sort.Slice(in, func(i, j int) bool { return ComparePrefixes(in[i], in[j]) < 0 })
	want := []string{"9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16", "2001:db8::/32", "2001:db8::/48"}
	for i, w := range want {
		if in[i].String() != w {
			t.Fatalf("sorted[%d] = %s, want %s", i, in[i], w)
		}
	}
}

// Property: Covers is reflexive on canonical prefixes and antisymmetric
// for distinct ones of the same family.
func TestCoversProperties(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	gen := func() netip.Prefix {
		var b [4]byte
		rnd.Read(b[:])
		bits := rnd.Intn(33)
		return netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
	}
	for i := 0; i < 500; i++ {
		p, q := gen(), gen()
		if !Covers(p, p) {
			t.Fatalf("Covers(%v, %v) not reflexive", p, p)
		}
		if p != q && Covers(p, q) && Covers(q, p) {
			t.Fatalf("Covers antisymmetry violated for %v and %v", p, q)
		}
		// Covers must agree with the netip definition.
		want := p.Bits() <= q.Bits() && p.Contains(q.Addr())
		if Covers(p, q) != want {
			t.Fatalf("Covers(%v, %v) = %v, want %v", p, q, Covers(p, q), want)
		}
	}
}

// Property: Bit reconstructs the address.
func TestBitRoundTrip(t *testing.T) {
	f := func(b [4]byte) bool {
		a := netip.AddrFrom4(b)
		var out [4]byte
		for i := 0; i < 32; i++ {
			if Bit(a, i) == 1 {
				out[i/8] |= 1 << (7 - uint(i%8))
			}
		}
		return out == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	f6 := func(b [16]byte) bool {
		a := netip.AddrFrom16(b)
		var out [16]byte
		for i := 0; i < 128; i++ {
			if Bit(a, i) == 1 {
				out[i/8] |= 1 << (7 - uint(i%8))
			}
		}
		return out == b
	}
	if err := quick.Check(f6, nil); err != nil {
		t.Error(err)
	}
}
