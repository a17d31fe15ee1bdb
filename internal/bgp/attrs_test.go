package bgp

import (
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ripki/internal/netutil"
)

// cat joins attribute encodings into one block.
func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// mpReach is an MP_REACH attribute body: AFI, SAFI, next hop, reserved
// octet, NLRI.
func mpReach(afi uint16, nh []byte, nlri ...byte) []byte {
	b := []byte{byte(afi >> 8), byte(afi), SAFIUnicast, byte(len(nh))}
	b = append(b, nh...)
	b = append(b, 0)
	return append(b, nlri...)
}

var testNextHop6 = netutil.MustAddr("2001:db8::1")

// updateBlock is the attribute block of an UPDATE that announces IPv4
// and IPv6 routes at once, as a collector would copy it out: all five
// known attributes, one unknown, the MP attributes carrying NLRI.
func updateBlock() []byte {
	nh6 := testNextHop6.As16()
	return cat(
		appendAttr(nil, flagTransitive, AttrOrigin, []byte{OriginIGP}),
		appendAttr(nil, flagTransitive, AttrASPath, []byte{SegmentSequence, 3, 0, 0, 0xfb, 0xf4, 0, 0, 0x0d, 0x05, 0, 3, 0, 7}),
		appendAttr(nil, flagTransitive, AttrNextHop, []byte{10, 0, 0, 2}),
		appendAttr(nil, flagOptional, 4, []byte{0, 0, 0, 50}), // MULTI_EXIT_DISC: not kept
		appendAttr(nil, flagOptional, AttrMPReachNLRI, mpReach(AFIIPv6, nh6[:],
			36, 0x20, 0x01, 0x0d, 0xb8, 0x10, // 2001:db8:1000::/36
			12, 0x2a, 0x00)), // 2a00::/12
		appendAttr(nil, flagOptional, AttrMPUnreachNLRI, []byte{0, AFIIPv6, SAFIUnicast,
			48, 0x20, 0x01, 0x0d, 0xb8, 0xde, 0xad}), // 2001:db8:dead::/48
	)
}

func TestParseUpdateBlock(t *testing.T) {
	got, err := ParsePathAttrs(updateBlock())
	if err != nil {
		t.Fatal(err)
	}
	want := PathAttrs{
		Origin:  OriginIGP,
		ASPath:  []Segment{{Type: SegmentSequence, ASNs: []uint32{64500, 3333, 196615}}},
		NextHop: testNextHop6, // MP_REACH wins over NEXT_HOP
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
	// An attribute longer than 255 bytes takes the extended-length header.
	long := PathAttrs{NextHop: netutil.MustAddr("10.0.0.2"),
		ASPath: []Segment{{Type: SegmentSequence, ASNs: make([]uint32, 100)}}}
	wire, err := EncodePathAttrs(long)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = ParsePathAttrs(wire); err != nil || !reflect.DeepEqual(got, long) {
		t.Errorf("extended-length round trip: %+v, %v", got, err)
	}
}

func TestPathAttrsWithASSet(t *testing.T) {
	a := PathAttrs{
		Origin: OriginIncomplete,
		ASPath: []Segment{
			{Type: SegmentSequence, ASNs: []uint32{64500}},
			{Type: SegmentSet, ASNs: []uint32{3333, 3334}},
		},
		NextHop: netutil.MustAddr("10.0.0.2"),
	}
	wire, err := EncodePathAttrs(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePathAttrs(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ASPath) != 2 || got.ASPath[1].Type != SegmentSet {
		t.Errorf("AS_SET lost: %+v", got.ASPath)
	}
	if _, ok := OriginAS(got.ASPath); ok {
		t.Error("OriginAS accepted an AS_SET-terminated path")
	}
}

func TestOriginAS(t *testing.T) {
	cases := []struct {
		path []Segment
		want uint32
		ok   bool
	}{
		{nil, 0, false},
		{[]Segment{{Type: SegmentSequence, ASNs: []uint32{1, 2, 3}}}, 3, true},
		{[]Segment{{Type: SegmentSequence, ASNs: []uint32{1}}, {Type: SegmentSequence, ASNs: []uint32{9}}}, 9, true},
		{[]Segment{{Type: SegmentSet, ASNs: []uint32{1, 2}}}, 0, false},
		{[]Segment{{Type: SegmentSequence, ASNs: nil}}, 0, false},
	}
	for i, c := range cases {
		got, ok := OriginAS(c.path)
		if got != c.want || ok != c.ok {
			t.Errorf("case %d: OriginAS = %d,%v want %d,%v", i, got, ok, c.want, c.ok)
		}
	}
}

// Every malformed-attribute case the UPDATE decoder used to reach, aimed
// at the one decoder that is left.
func TestDecodeRejectsCorruption(t *testing.T) {
	// A block cut anywhere but between two attributes is refused.
	wire := updateBlock()
	boundary := map[int]bool{}
	for rest := wire; len(rest) > 0; {
		boundary[len(wire)-len(rest)] = true
		n := 3 + int(rest[2])
		rest = rest[n:]
	}
	for i := 0; i < len(wire); i++ {
		if _, err := ParsePathAttrs(wire[:i]); (err == nil) != boundary[i] {
			t.Errorf("truncation to %d bytes: err = %v, attribute boundary = %v", i, err, boundary[i])
		}
	}

	nh6 := testNextHop6.As16()
	cases := []struct {
		name, want string
		block      []byte
	}{
		{"truncated attribute header", "truncated attribute header", []byte{flagTransitive, AttrOrigin}},
		{"truncated extended header", "truncated extended attribute header", []byte{flagTransitive | flagExtended, AttrASPath, 0}},
		{"attribute overrun", "overruns block", []byte{flagTransitive, AttrOrigin, 2, 0}},
		{"extended-length overrun", "overruns block", []byte{flagTransitive | flagExtended, AttrASPath, 1, 0, SegmentSequence, 0}},
		{"ORIGIN of two bytes", "bad ORIGIN length", appendAttr(nil, flagTransitive, AttrOrigin, []byte{0, 0})},
		{"empty ORIGIN", "bad ORIGIN length", appendAttr(nil, flagTransitive, AttrOrigin, nil)},
		{"AS_PATH segment header cut", "truncated AS_PATH segment", appendAttr(nil, flagTransitive, AttrASPath, []byte{SegmentSequence})},
		{"AS_PATH segment overrun", "AS_PATH segment overruns", appendAttr(nil, flagTransitive, AttrASPath, []byte{SegmentSequence, 2, 0, 0, 0, 1})},
		{"AS_PATH unknown segment type", "unknown AS_PATH segment type 3", appendAttr(nil, flagTransitive, AttrASPath, []byte{3, 1, 0, 0, 0, 1})},
		{"NEXT_HOP of three bytes", "bad NEXT_HOP length", appendAttr(nil, flagTransitive, AttrNextHop, []byte{10, 0, 0})},
		{"NEXT_HOP of sixteen bytes", "bad NEXT_HOP length", appendAttr(nil, flagTransitive, AttrNextHop, nh6[:])},
		{"MP_REACH too short", "MP_REACH too short", appendAttr(nil, flagOptional, AttrMPReachNLRI, []byte{0, AFIIPv6, SAFIUnicast, 0})},
		{"MP_REACH with IPv4 AFI", "unsupported AFI/SAFI 1/1", appendAttr(nil, flagOptional, AttrMPReachNLRI, mpReach(1, []byte{10, 0, 0, 2}))},
		{"MP_REACH with multicast SAFI", "unsupported AFI/SAFI 2/2", appendAttr(nil, flagOptional, AttrMPReachNLRI, append([]byte{0, AFIIPv6, 2, 16}, make([]byte, 17)...))},
		{"MP_REACH next hop overrun", "next hop overruns", appendAttr(nil, flagOptional, AttrMPReachNLRI, []byte{0, AFIIPv6, SAFIUnicast, 16, 0x20, 0x01})},
		{"MP_REACH short next hop", "next hop length 4 unsupported", appendAttr(nil, flagOptional, AttrMPReachNLRI, mpReach(AFIIPv6, []byte{10, 0, 0, 2}))},
		{"MP_REACH NLRI longer than the family", "exceeds family maximum", appendAttr(nil, flagOptional, AttrMPReachNLRI, mpReach(AFIIPv6, nh6[:], 129))},
		{"MP_REACH NLRI truncated", "truncated NLRI", appendAttr(nil, flagOptional, AttrMPReachNLRI, mpReach(AFIIPv6, nh6[:], 32, 0x20, 0x01))},
		{"MP_REACH NLRI host bits", "host bits set", appendAttr(nil, flagOptional, AttrMPReachNLRI, mpReach(AFIIPv6, nh6[:], 12, 0x2a, 0x01))},
		{"MP_UNREACH too short", "MP_UNREACH too short", appendAttr(nil, flagOptional, AttrMPUnreachNLRI, []byte{0, AFIIPv6})},
		{"MP_UNREACH with IPv4 AFI", "unsupported AFI/SAFI 1/1", appendAttr(nil, flagOptional, AttrMPUnreachNLRI, []byte{0, 1, SAFIUnicast})},
		{"MP_UNREACH NLRI host bits", "host bits set", appendAttr(nil, flagOptional, AttrMPUnreachNLRI, []byte{0, AFIIPv6, SAFIUnicast, 8, 0x2a, 9, 0xff, 0xff})},
		{"MP_UNREACH NLRI longer than the family", "exceeds family maximum", appendAttr(nil, flagOptional, AttrMPUnreachNLRI, []byte{0, AFIIPv6, SAFIUnicast, 200})},
	}
	for _, c := range cases {
		// Alone, and behind a well-formed attribute.
		for _, block := range [][]byte{c.block, cat(appendAttr(nil, flagTransitive, AttrOrigin, []byte{OriginIGP}), c.block)} {
			if _, err := ParsePathAttrs(block); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
			}
		}
	}
}

func TestDecodeFuzzNoPanic(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	wire := updateBlock()
	for i := 0; i < 5000; i++ {
		mut := append([]byte(nil), wire...)
		for j := 0; j < 1+rnd.Intn(6); j++ {
			mut[rnd.Intn(len(mut))] ^= byte(1 << rnd.Intn(8))
		}
		ParsePathAttrs(mut) // must not panic
	}
}

// Property: path attributes round-trip through the MRT-facing codec.
func TestQuickPathAttrsRoundTrip(t *testing.T) {
	f := func(origin uint8, asns []uint32, nh4 [4]byte, useV6 bool, nh16 [16]byte) bool {
		if len(asns) == 0 {
			asns = []uint32{1}
		}
		if len(asns) > 128 {
			asns = asns[:128]
		}
		a := PathAttrs{Origin: origin % 3, ASPath: []Segment{{Type: SegmentSequence, ASNs: asns}}}
		if useV6 {
			addr := netip.AddrFrom16(nh16)
			if addr.Is4In6() {
				return true // 4-in-6 is rejected by design
			}
			a.NextHop = addr
		} else {
			a.NextHop = netip.AddrFrom4(nh4)
		}
		wire, err := EncodePathAttrs(a)
		if err != nil {
			return false
		}
		got, err := ParsePathAttrs(wire)
		if err != nil {
			return false
		}
		return got.Origin == a.Origin && reflect.DeepEqual(got.ASPath, a.ASPath) && got.NextHop == a.NextHop
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
