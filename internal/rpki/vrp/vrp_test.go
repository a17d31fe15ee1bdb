package vrp

import (
	"math/rand"
	"net/netip"
	"testing"

	"ripki/internal/netutil"
)

func mustAdd(t *testing.T, s *Set, prefix string, maxLen int, asn uint32) {
	t.Helper()
	if err := s.Add(VRP{Prefix: netutil.MustPrefix(prefix), MaxLength: maxLen, ASN: asn}); err != nil {
		t.Fatal(err)
	}
}

// TestRFC6811TruthTable walks the canonical origin-validation cases.
func TestRFC6811TruthTable(t *testing.T) {
	s := NewSet()
	mustAdd(t, s, "10.0.0.0/16", 24, 64500)
	mustAdd(t, s, "10.0.0.0/16", 16, 64501)
	mustAdd(t, s, "2001:db8::/32", 48, 64500)

	cases := []struct {
		prefix string
		origin uint32
		want   State
	}{
		// Exact prefix, authorised AS.
		{"10.0.0.0/16", 64500, Valid},
		// More-specific within maxLength.
		{"10.0.128.0/24", 64500, Valid},
		// More-specific beyond maxLength → Invalid even for the right AS.
		{"10.0.128.0/25", 64500, Invalid},
		// Covered, wrong AS.
		{"10.0.0.0/16", 64999, Invalid},
		// Second VRP matches at /16 only.
		{"10.0.0.0/16", 64501, Valid},
		{"10.0.0.0/17", 64501, Invalid},
		// Not covered at all.
		{"11.0.0.0/16", 64500, NotFound},
		// Less specific than any VRP is NOT covered (RFC 6811: covered
		// means VRP prefix contains route prefix).
		{"10.0.0.0/8", 64500, NotFound},
		// IPv6.
		{"2001:db8:47::/48", 64500, Valid},
		{"2001:db8:47::/49", 64500, Invalid},
		{"2001:db9::/32", 64500, NotFound},
		// AS0 never validates (AS0 VRPs are a disavowal).
		{"10.0.0.0/16", 0, Invalid},
	}
	for _, c := range cases {
		got := s.Validate(netutil.MustPrefix(c.prefix), c.origin)
		if got != c.want {
			t.Errorf("Validate(%s, AS%d) = %v, want %v", c.prefix, c.origin, got, c.want)
		}
	}
}

func TestValidateExplain(t *testing.T) {
	s := NewSet()
	mustAdd(t, s, "10.0.0.0/16", 24, 64500)
	mustAdd(t, s, "10.0.0.0/8", 8, 64400)
	st, covering := s.ValidateExplain(netutil.MustPrefix("10.0.1.0/24"), 64500)
	if st != Valid {
		t.Fatalf("state = %v, want Valid", st)
	}
	if len(covering) != 2 {
		t.Fatalf("covering = %v, want 2 VRPs", covering)
	}
}

func TestAddValidation(t *testing.T) {
	s := NewSet()
	if err := s.Add(VRP{Prefix: netip.Prefix{}, MaxLength: 24, ASN: 1}); err == nil {
		t.Error("invalid prefix accepted")
	}
	if err := s.Add(VRP{Prefix: netutil.MustPrefix("10.0.0.0/16"), MaxLength: 8, ASN: 1}); err == nil {
		t.Error("maxLength < bits accepted")
	}
	if err := s.Add(VRP{Prefix: netutil.MustPrefix("10.0.0.0/16"), MaxLength: 33, ASN: 1}); err == nil {
		t.Error("maxLength > 32 accepted")
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	s := NewSet()
	mustAdd(t, s, "10.0.0.0/16", 24, 64500)
	mustAdd(t, s, "10.0.0.0/16", 24, 64500)
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	// Same prefix, different maxLength or ASN are distinct.
	mustAdd(t, s, "10.0.0.0/16", 20, 64500)
	mustAdd(t, s, "10.0.0.0/16", 24, 64501)
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	// Insert says which of the two happened, whatever the spelling.
	again := VRP{Prefix: netip.MustParsePrefix("10.0.255.1/16"), MaxLength: 24, ASN: 64501}
	if added, err := s.Insert(again); added || err != nil {
		t.Errorf("Insert of a held VRP = %v, %v", added, err)
	}
	again.ASN++
	if added, err := s.Insert(again); !added || err != nil || s.Len() != 4 {
		t.Errorf("Insert of a new VRP = %v, %v (Len %d)", added, err, s.Len())
	}
	if added, err := s.Insert(VRP{Prefix: again.Prefix, MaxLength: 8}); added || err == nil {
		t.Errorf("Insert of a bad VRP = %v, %v", added, err)
	}
}

func TestAllSorted(t *testing.T) {
	s := NewSet()
	mustAdd(t, s, "192.0.2.0/24", 24, 7)
	mustAdd(t, s, "10.0.0.0/8", 8, 3)
	mustAdd(t, s, "10.0.0.0/8", 8, 1)
	mustAdd(t, s, "2001:db8::/32", 32, 5)
	all := s.All()
	if len(all) != 4 {
		t.Fatalf("All = %v", all)
	}
	want := []VRP{
		{netutil.MustPrefix("10.0.0.0/8"), 8, 1},
		{netutil.MustPrefix("10.0.0.0/8"), 8, 3},
		{netutil.MustPrefix("192.0.2.0/24"), 24, 7},
		{netutil.MustPrefix("2001:db8::/32"), 32, 5},
	}
	for i := range want {
		if all[i] != want[i] {
			t.Errorf("All[%d] = %v, want %v", i, all[i], want[i])
		}
	}
}

func TestDiff(t *testing.T) {
	old := NewSet()
	mustAdd(t, old, "10.0.0.0/8", 8, 1)
	mustAdd(t, old, "11.0.0.0/8", 8, 2)
	cur := NewSet()
	mustAdd(t, cur, "10.0.0.0/8", 8, 1)
	mustAdd(t, cur, "12.0.0.0/8", 8, 3)
	ann, wd := cur.Diff(old)
	if len(ann) != 1 || ann[0].Prefix != netutil.MustPrefix("12.0.0.0/8") {
		t.Errorf("announce = %v", ann)
	}
	if len(wd) != 1 || wd[0].Prefix != netutil.MustPrefix("11.0.0.0/8") {
		t.Errorf("withdraw = %v", wd)
	}
}

func TestStateString(t *testing.T) {
	if NotFound.String() != "not found" || Valid.String() != "valid" || Invalid.String() != "invalid" {
		t.Error("State strings wrong")
	}
	if State(99).String() != "State(99)" {
		t.Error("unknown state string wrong")
	}
}

// Property: Validate agrees with a naive scan over all VRPs.
func TestValidateAgainstNaive(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	s := NewSet()
	var all []VRP
	for i := 0; i < 800; i++ {
		var b [4]byte
		rnd.Read(b[:])
		bits := 8 + rnd.Intn(17) // /8../24
		p := netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
		v := VRP{Prefix: p, MaxLength: bits + rnd.Intn(33-bits), ASN: uint32(rnd.Intn(16))}
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
		all = append(all, v)
	}
	naive := func(p netip.Prefix, asn uint32) State {
		covered, valid := false, false
		for _, v := range all {
			if netutil.Covers(v.Prefix, p) {
				covered = true
				if v.ASN == asn && asn != 0 && p.Bits() <= v.MaxLength {
					valid = true
				}
			}
		}
		switch {
		case valid:
			return Valid
		case covered:
			return Invalid
		default:
			return NotFound
		}
	}
	for i := 0; i < 3000; i++ {
		var b [4]byte
		rnd.Read(b[:])
		bits := 8 + rnd.Intn(25)
		p := netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
		asn := uint32(rnd.Intn(16))
		if got, want := s.Validate(p, asn), naive(p, asn); got != want {
			t.Fatalf("Validate(%v, AS%d) = %v, want %v", p, asn, got, want)
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	rnd := rand.New(rand.NewSource(4))
	s := NewSet()
	for i := 0; i < 20000; i++ {
		var buf [4]byte
		rnd.Read(buf[:])
		bits := 8 + rnd.Intn(17)
		p := netip.PrefixFrom(netip.AddrFrom4(buf), bits).Masked()
		s.Add(VRP{Prefix: p, MaxLength: bits, ASN: uint32(rnd.Intn(65000))})
	}
	queries := make([]netip.Prefix, 1024)
	for i := range queries {
		var buf [4]byte
		rnd.Read(buf[:])
		queries[i] = netip.PrefixFrom(netip.AddrFrom4(buf), 24).Masked()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Validate(queries[i%len(queries)], 64500)
	}
}

// TestValidateIsExplainWithoutTheList: Validate and ValidateExplain
// make the one RFC 6811 decision — over seeded random sets and routes,
// IPv6, AS 0 and lengths past every maxLength included, on Set and on
// Index — and Validate reaches it without building the covering list,
// or anything else.
func TestValidateIsExplainWithoutTheList(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		// VRPs sit on a ladder of lengths, so a route has at most five
		// covering prefixes (Validate's stack buffer holds eight; a deeper
		// chain is correct but spills); routes take any length.
		randomPrefix := func(ladder bool) netip.Prefix {
			bits, nets := 8+rnd.Intn(25), 3 // 12.0.0.0/8 holds no VRP
			if ladder {
				bits, nets = 8+4*rnd.Intn(5), 2
			}
			if rnd.Intn(4) == 0 {
				a := [16]byte{0x20, 0x01, 0x0d, 0xb8, byte(rnd.Intn(4)), byte(rnd.Intn(4))}
				return netip.PrefixFrom(netip.AddrFrom16(a), 24+bits).Masked()
			}
			a := [4]byte{byte(10 + rnd.Intn(nets)), byte(rnd.Intn(4)), byte(rnd.Intn(256)), byte(rnd.Intn(256))}
			return netip.PrefixFrom(netip.AddrFrom4(a), bits).Masked()
		}
		s := NewSet()
		for i := 0; i < 300; i++ {
			p := randomPrefix(true)
			if err := s.Add(VRP{Prefix: p, MaxLength: p.Bits() + rnd.Intn(7), ASN: uint32(rnd.Intn(6))}); err != nil {
				t.Fatal(err)
			}
		}
		ix := IndexOf(s)
		seen := make(map[State]int)
		for i := 0; i < 3000; i++ {
			p, asn := randomPrefix(false), uint32(rnd.Intn(7))
			want, covering := s.ValidateExplain(p, asn)
			if asn == 0 && want == Valid {
				t.Fatalf("seed %d: route %v from AS0 is valid under %v", seed, p, covering)
			}
			if (want == NotFound) != (covering == nil) {
				t.Fatalf("seed %d: ValidateExplain(%v, AS%d) = %v with %d covering VRPs", seed, p, asn, want, len(covering))
			}
			seen[want]++
			var got, gotIx State
			// AllocsPerRun counts every malloc in the process, not only
			// the function's; over 100 runs a stray one rounds to 0, and
			// one allocation a call still reads as 1.
			allocs := testing.AllocsPerRun(100, func() { got, gotIx = s.Validate(p, asn), ix.Validate(p, asn) })
			if ixWant, _ := ix.ValidateExplain(p, asn); got != want || gotIx != want || ixWant != want {
				t.Fatalf("seed %d: route %v AS%d: Set.Validate %v, Index.Validate %v, Index.ValidateExplain %v; Set.ValidateExplain says %v over %v",
					seed, p, asn, got, gotIx, ixWant, want, covering)
			}
			if allocs != 0 {
				t.Fatalf("seed %d: Validate(%v, AS%d) under %d covering VRPs made %v allocations, want 0", seed, p, asn, len(covering), allocs)
			}
		}
		if seen[Valid] == 0 || seen[Invalid] == 0 || seen[NotFound] == 0 {
			t.Errorf("seed %d: probes did not reach every state: %v", seed, seen)
		}
	}
}
