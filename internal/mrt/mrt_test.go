package mrt

import (
	"bytes"
	"io"
	"testing"
	"time"

	"ripki/internal/bgp"
	"ripki/internal/netutil"
)

var stamp = time.Date(2015, 7, 1, 8, 0, 0, 0, time.UTC)

func peers() []Peer {
	return []Peer{
		{BGPID: netutil.MustAddr("193.0.4.1"), Addr: netutil.MustAddr("193.0.4.1"), ASN: 3333},
		{BGPID: netutil.MustAddr("10.0.0.2"), Addr: netutil.MustAddr("2001:db8::2"), ASN: 196615},
	}
}

func seq(asns ...uint32) []bgp.Segment {
	return []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: asns}}
}

// TestWriterKnownAnswer holds the writer to a stream laid out by hand,
// field by field, from RFC 6396 §4 (the common header) and §4.3
// (TABLE_DUMP_V2): a PEER_INDEX_TABLE with an IPv4 and an IPv6 peer, then
// one RIB_IPV4_UNICAST and one RIB_IPV6_UNICAST record.
func TestWriterKnownAnswer(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, stamp)
	if err := w.WritePeerIndexTable(netutil.MustAddr("193.0.4.28"), "rrc00", peers()); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRIB(netutil.MustPrefix("193.0.6.0/24"), []RIBEntry{{
		PeerIndex: 0, Originated: stamp,
		Attrs: bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: seq(3333, 25152), NextHop: netutil.MustAddr("193.0.4.1")},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRIB(netutil.MustPrefix("2001:67c:2e8::/48"), []RIBEntry{{
		PeerIndex: 1, Originated: stamp.Add(-time.Hour),
		Attrs: bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: seq(196615, 680), NextHop: netutil.MustAddr("2001:db8::9")},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var want []byte
	add := func(b ...byte) { want = append(want, b...) }
	// PEER_INDEX_TABLE.
	add(0x55, 0x93, 0x9e, 0x00) // timestamp 2015-07-01T08:00:00Z
	add(0x00, 0x0d)             // type 13, TABLE_DUMP_V2
	add(0x00, 0x01)             // subtype 1, PEER_INDEX_TABLE
	add(0x00, 0x00, 0x00, 51)   // length
	add(193, 0, 4, 28)          // collector BGP ID
	add(0x00, 5)                // view name length
	add('r', 'r', 'c', '0', '0')
	add(0x00, 2) // peer count
	// Peer 0: type 0x02 (4-octet AS, IPv4 address), BGP ID, address, AS.
	add(0x02, 193, 0, 4, 1, 193, 0, 4, 1, 0x00, 0x00, 0x0d, 0x05)
	// Peer 1: type 0x03 (4-octet AS, IPv6 address).
	add(0x03, 10, 0, 0, 2)
	add(0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x02)
	add(0x00, 0x03, 0x00, 0x07) // AS 196615

	// RIB_IPV4_UNICAST for 193.0.6.0/24.
	add(0x55, 0x93, 0x9e, 0x00)
	add(0x00, 0x0d, 0x00, 0x02)                                            // TABLE_DUMP_V2, RIB_IPV4_UNICAST
	add(0x00, 0x00, 0x00, 42)                                              // length
	add(0x00, 0x00, 0x00, 0x00)                                            // sequence number 0
	add(24, 193, 0, 6)                                                     // prefix length, then the prefix's 3 octets
	add(0x00, 1)                                                           // entry count
	add(0x00, 0x00)                                                        // peer index 0
	add(0x55, 0x93, 0x9e, 0x00)                                            // originated time
	add(0x00, 24)                                                          // attribute length
	add(0x40, 1, 1, 0)                                                     // ORIGIN IGP
	add(0x40, 2, 10, 2, 2, 0x00, 0x00, 0x0d, 0x05, 0x00, 0x00, 0x62, 0x40) // AS_PATH: AS_SEQUENCE 3333 25152
	add(0x40, 3, 4, 193, 0, 4, 1)                                          // NEXT_HOP

	// RIB_IPV6_UNICAST for 2001:67c:2e8::/48.
	add(0x55, 0x93, 0x9e, 0x00)
	add(0x00, 0x0d, 0x00, 0x04) // TABLE_DUMP_V2, RIB_IPV6_UNICAST
	add(0x00, 0x00, 0x00, 62)   // length
	add(0x00, 0x00, 0x00, 0x01) // sequence number 1
	add(48, 0x20, 0x01, 0x06, 0x7c, 0x02, 0xe8)
	add(0x00, 1)                // entry count
	add(0x00, 0x01)             // peer index 1
	add(0x55, 0x93, 0x8f, 0xf0) // originated an hour before the dump
	add(0x00, 41)               // attribute length
	add(0x40, 1, 1, 0)
	add(0x40, 2, 10, 2, 2, 0x00, 0x03, 0x00, 0x07, 0x00, 0x00, 0x02, 0xa8) // AS_SEQUENCE 196615 680
	add(0x80, 14, 21, 0x00, 0x02, 1, 16)                                   // MP_REACH_NLRI: AFI 2, SAFI 1, next-hop length
	add(0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x09)
	add(0) // reserved; the prefix rides in the record, not as NLRI

	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("stream differs from RFC 6396 layout\n got  % x\n want % x", got, want)
	}
}

func TestWriterRequiresPeerTableFirst(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, stamp)
	err := w.WriteRIB(netutil.MustPrefix("10.0.0.0/8"), nil)
	if err == nil {
		t.Error("WriteRIB before peer table accepted")
	}
	if err := w.WritePeerIndexTable(netutil.MustAddr("1.2.3.4"), "v", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePeerIndexTable(netutil.MustAddr("1.2.3.4"), "v", nil); err == nil {
		t.Error("double peer table accepted")
	}
}

func BenchmarkWriteRIB(b *testing.B) {
	w := NewWriter(io.Discard, stamp)
	w.WritePeerIndexTable(netutil.MustAddr("1.2.3.4"), "v", peers())
	entry := []RIBEntry{{PeerIndex: 0, Originated: stamp, Attrs: bgp.PathAttrs{ASPath: seq(1, 2, 3), NextHop: netutil.MustAddr("10.0.0.1")}}}
	p := netutil.MustPrefix("193.0.6.0/24")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.WriteRIB(p, entry); err != nil {
			b.Fatal(err)
		}
	}
}
