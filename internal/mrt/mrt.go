// Package mrt writes MRT TABLE_DUMP_V2 files (RFC 6396).
//
// The paper's methodology step (3) consumes "dumps of the active tables
// of the RIPE RIS route servers", which are distributed in exactly this
// format; ripki-worldgen writes the synthetic world's routing table in
// it. No command reads MRT, so there is no reader here; the last one is
// in git history at commit a4c9e58, for whoever wires one in.
//
// Written records: PEER_INDEX_TABLE (subtype 1), RIB_IPV4_UNICAST
// (subtype 2) and RIB_IPV6_UNICAST (subtype 4). Peer entries always use
// 4-octet AS numbers.
package mrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"ripki/internal/bgp"
	"ripki/internal/netutil"
)

// MRT type and subtype codes.
const (
	TypeTableDumpV2 = 13

	SubtypePeerIndexTable = 1
	SubtypeRIBIPv4Unicast = 2
	SubtypeRIBIPv6Unicast = 4
)

// Peer describes one collector peer in the PEER_INDEX_TABLE.
type Peer struct {
	BGPID netip.Addr // IPv4 router ID
	Addr  netip.Addr // peer address (IPv4 or IPv6)
	ASN   uint32
}

// RIBEntry is one peer's path for a prefix.
type RIBEntry struct {
	PeerIndex  uint16
	Originated time.Time
	Attrs      bgp.PathAttrs
}

// RIBRecord is a full RIB record: all known paths for one prefix.
type RIBRecord struct {
	Sequence uint32
	Prefix   netip.Prefix
	Entries  []RIBEntry
}

// Writer emits a TABLE_DUMP_V2 stream: one PEER_INDEX_TABLE followed by
// RIB records.
type Writer struct {
	w         *bufio.Writer
	timestamp uint32
	wrotePeer bool
	seq       uint32
}

// NewWriter creates a writer stamping records with the given time.
func NewWriter(w io.Writer, stamp time.Time) *Writer {
	return &Writer{w: bufio.NewWriter(w), timestamp: uint32(stamp.Unix())}
}

func (w *Writer) header(subtype uint16, length int) {
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], w.timestamp)
	binary.BigEndian.PutUint16(hdr[4:], TypeTableDumpV2)
	binary.BigEndian.PutUint16(hdr[6:], subtype)
	binary.BigEndian.PutUint32(hdr[8:], uint32(length))
	w.w.Write(hdr[:])
}

// WritePeerIndexTable writes the peer table; it must come first.
func (w *Writer) WritePeerIndexTable(collectorID netip.Addr, viewName string, peers []Peer) error {
	if w.wrotePeer {
		return errors.New("mrt: peer index table already written")
	}
	if !collectorID.Is4() {
		return fmt.Errorf("mrt: collector ID %v is not IPv4", collectorID)
	}
	if len(peers) > 65535 {
		return errors.New("mrt: too many peers")
	}
	var body []byte
	id := collectorID.As4()
	body = append(body, id[:]...)
	if len(viewName) > 65535 {
		return errors.New("mrt: view name too long")
	}
	body = binary.BigEndian.AppendUint16(body, uint16(len(viewName)))
	body = append(body, viewName...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(peers)))
	for _, p := range peers {
		if !p.BGPID.Is4() {
			return fmt.Errorf("mrt: peer BGP ID %v is not IPv4", p.BGPID)
		}
		// Peer type: bit 0 = IPv6 address, bit 1 = 4-octet AS (always).
		ptype := byte(0x02)
		if p.Addr.Is6() && !p.Addr.Is4() {
			ptype |= 0x01
		}
		body = append(body, ptype)
		bid := p.BGPID.As4()
		body = append(body, bid[:]...)
		body = append(body, p.Addr.AsSlice()...)
		body = binary.BigEndian.AppendUint32(body, p.ASN)
	}
	w.header(SubtypePeerIndexTable, len(body))
	if _, err := w.w.Write(body); err != nil {
		return err
	}
	w.wrotePeer = true
	return nil
}

// WriteRIB writes one RIB record; the sequence number is assigned
// automatically.
func (w *Writer) WriteRIB(prefix netip.Prefix, entries []RIBEntry) error {
	if !w.wrotePeer {
		return errors.New("mrt: peer index table must be written first")
	}
	cp, err := netutil.Canonical(prefix)
	if err != nil {
		return fmt.Errorf("mrt: %w", err)
	}
	subtype := uint16(SubtypeRIBIPv4Unicast)
	if cp.Addr().Is6() {
		subtype = SubtypeRIBIPv6Unicast
	}
	var body []byte
	body = binary.BigEndian.AppendUint32(body, w.seq)
	w.seq++
	body = append(body, byte(cp.Bits()))
	nbytes := (cp.Bits() + 7) / 8
	raw := cp.Addr().AsSlice()
	body = append(body, raw[:nbytes]...)
	if len(entries) > 65535 {
		return errors.New("mrt: too many RIB entries")
	}
	body = binary.BigEndian.AppendUint16(body, uint16(len(entries)))
	for _, e := range entries {
		body = binary.BigEndian.AppendUint16(body, e.PeerIndex)
		body = binary.BigEndian.AppendUint32(body, uint32(e.Originated.Unix()))
		attrs, err := bgp.EncodePathAttrs(e.Attrs)
		if err != nil {
			return fmt.Errorf("mrt: encoding attributes for %v: %w", cp, err)
		}
		if len(attrs) > 65535 {
			return errors.New("mrt: attributes too long")
		}
		body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
		body = append(body, attrs...)
	}
	w.header(subtype, len(body))
	_, err = w.w.Write(body)
	return err
}

// Flush writes buffered data to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }
