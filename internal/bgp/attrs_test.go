package bgp

import (
	"bytes"
	"testing"

	"ripki/internal/netutil"
)

// TestEncodePathAttrs holds the encoder to attribute blocks laid out by
// hand, field by field: the attribute header (flags, type code, one- or
// two-octet length) and AS_PATH segments from RFC 4271 §4.3 with the
// 4-octet ASNs MRT carries, and MP_REACH_NLRI from RFC 4760 §3.
func TestEncodePathAttrs(t *testing.T) {
	nh4 := netutil.MustAddr("10.0.0.2")
	long := make([]uint32, 100)
	long[99] = 64500
	var extended []byte
	extended = append(extended, 0x40, 1, 1, 0)
	extended = append(extended, 0x50, 2, 0x01, 0x92, 2, 100) // extended length: 2 + 100*4 = 402 octets
	extended = append(extended, make([]byte, 99*4)...)
	extended = append(extended, 0x00, 0x00, 0xfb, 0xf4)
	extended = append(extended, 0x40, 3, 4, 10, 0, 0, 2)

	cases := []struct {
		name  string
		attrs PathAttrs
		want  []byte
	}{
		{"ipv4", PathAttrs{
			Origin:  OriginIGP,
			ASPath:  []Segment{{Type: SegmentSequence, ASNs: []uint32{64500, 3333, 196615}}},
			NextHop: nh4,
		}, []byte{
			0x40, 1, 1, 0, // ORIGIN: well-known transitive, one octet, IGP
			0x40, 2, 14, // AS_PATH, 14 octets
			2, 3, // AS_SEQUENCE of three
			0x00, 0x00, 0xfb, 0xf4, // 64500
			0x00, 0x00, 0x0d, 0x05, // 3333
			0x00, 0x03, 0x00, 0x07, // 196615
			0x40, 3, 4, 10, 0, 0, 2, // NEXT_HOP 10.0.0.2
		}},
		{"mp-reach", PathAttrs{
			Origin:  OriginIncomplete,
			ASPath:  []Segment{{Type: SegmentSequence, ASNs: []uint32{64500}}},
			NextHop: netutil.MustAddr("2001:db8::1"),
		}, []byte{
			0x40, 1, 1, 2, // ORIGIN INCOMPLETE
			0x40, 2, 6, 2, 1, 0x00, 0x00, 0xfb, 0xf4,
			0x80, 14, 21, // MP_REACH_NLRI: optional non-transitive, 21 octets
			0x00, 0x02, // AFI 2, IPv6
			1,  // SAFI 1, unicast
			16, // next-hop length
			0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x01,
			0, // reserved; no NLRI: a RIB entry's prefix rides in the MRT record
		}},
		{"as-set", PathAttrs{
			Origin: OriginIGP,
			ASPath: []Segment{
				{Type: SegmentSequence, ASNs: []uint32{64500}},
				{Type: SegmentSet, ASNs: []uint32{3333, 3334}},
			},
			NextHop: nh4,
		}, []byte{
			0x40, 1, 1, 0,
			0x40, 2, 16,
			2, 1, 0x00, 0x00, 0xfb, 0xf4, // AS_SEQUENCE 64500
			1, 2, 0x00, 0x00, 0x0d, 0x05, 0x00, 0x00, 0x0d, 0x06, // AS_SET {3333, 3334}
			0x40, 3, 4, 10, 0, 0, 2,
		}},
		{"extended-length", PathAttrs{
			ASPath:  []Segment{{Type: SegmentSequence, ASNs: long}},
			NextHop: nh4,
		}, extended},
		{"no-next-hop", PathAttrs{}, []byte{0x40, 1, 1, 0, 0x40, 2, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := EncodePathAttrs(c.attrs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, c.want) {
				t.Errorf("got  % x\nwant % x", got, c.want)
			}
		})
	}

	if _, err := EncodePathAttrs(PathAttrs{ASPath: []Segment{{Type: SegmentSequence, ASNs: make([]uint32, 256)}}}); err == nil {
		t.Error("a 256-ASN segment, whose count does not fit its octet, was encoded")
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
		{[]Segment{{Type: SegmentSequence, ASNs: []uint32{64500}}, {Type: SegmentSet, ASNs: []uint32{3333, 3334}}}, 0, false},
		{[]Segment{{Type: SegmentSequence, ASNs: nil}}, 0, false},
	}
	for i, c := range cases {
		got, ok := OriginAS(c.path)
		if got != c.want || ok != c.ok {
			t.Errorf("case %d: OriginAS = %d,%v want %d,%v", i, got, ok, c.want, c.ok)
		}
	}
}
