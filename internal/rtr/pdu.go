// Package rtr implements the RPKI-to-Router protocol (RFC 6810).
//
// RTR is how validated ROA payloads reach BGP routers: a cache server
// (the relying party) feeds (prefix, maxLength, origin AS) records to
// router clients, which then perform origin validation locally. The
// paper's authors built RTRlib for exactly this role; this package is
// the equivalent substrate so that the hijack experiments can run
// through the same interface real routers use.
//
// The wire format follows RFC 6810 protocol version 0: an 8-byte header
// (version, type, session/zero, length) followed by a type-specific
// body. PDUs decode from byte slices into caller-owned structs
// (gopacket-style DecodeFromBytes) and serialize by appending to a
// buffer, so steady-state sessions do not allocate per record.
package rtr

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"

	"ripki/internal/rpki/vrp"
)

// Version is the RTR protocol version implemented (RFC 6810).
const Version = 0

// PDU type codes from RFC 6810 §5.
const (
	TypeSerialNotify  = 0
	TypeSerialQuery   = 1
	TypeResetQuery    = 2
	TypeCacheResponse = 3
	TypeIPv4Prefix    = 4
	TypeIPv6Prefix    = 6
	TypeEndOfData     = 7
	TypeCacheReset    = 8
	TypeErrorReport   = 10
)

// Error codes from RFC 6810 §10.
const (
	ErrCorruptData        = 0
	ErrInternal           = 1
	ErrNoDataAvailable    = 2
	ErrInvalidRequest     = 3
	ErrUnsupportedVersion = 4
	ErrUnsupportedPDU     = 5
	ErrUnknownWithdrawal  = 6
	ErrDuplicateAnnounce  = 7
)

// Flags for prefix PDUs.
const (
	// FlagAnnounce marks an announcement; its absence marks a withdrawal.
	FlagAnnounce = 1
)

// Wire lengths of the fixed-size PDUs, header included.
const (
	headerLen     = 8
	endOfDataLen  = 12
	ipv4PrefixLen = 20
	ipv6PrefixLen = 32
)

// maxPDULen bounds accepted PDUs to keep a malicious peer from forcing
// huge allocations. Error reports carry an encapsulated PDU plus text;
// everything else is tiny.
const maxPDULen = 4096

// maxFixedPDULen is the longest PDU that is not an Error Report, an
// IPv6 Prefix: a read buffer this size serves a whole healthy session.
const maxFixedPDULen = ipv6PrefixLen

// PDU is implemented by every protocol data unit.
type PDU interface {
	// Type returns the RFC 6810 type code.
	Type() uint8
	// SerializeTo appends the full wire form (header + body) to dst and
	// returns the extended slice.
	SerializeTo(dst []byte) []byte
}

func header(dst []byte, typ uint8, session uint16, length uint32) []byte {
	dst = append(dst, Version, typ)
	dst = binary.BigEndian.AppendUint16(dst, session)
	dst = binary.BigEndian.AppendUint32(dst, length)
	return dst
}

// SerialNotify tells the router that the cache has new data.
type SerialNotify struct {
	SessionID uint16
	Serial    uint32
}

func (p *SerialNotify) Type() uint8 { return TypeSerialNotify }

func (p *SerialNotify) SerializeTo(dst []byte) []byte {
	dst = header(dst, TypeSerialNotify, p.SessionID, 12)
	return binary.BigEndian.AppendUint32(dst, p.Serial)
}

// SerialQuery asks the cache for changes since Serial.
type SerialQuery struct {
	SessionID uint16
	Serial    uint32
}

func (p *SerialQuery) Type() uint8 { return TypeSerialQuery }

func (p *SerialQuery) SerializeTo(dst []byte) []byte {
	dst = header(dst, TypeSerialQuery, p.SessionID, 12)
	return binary.BigEndian.AppendUint32(dst, p.Serial)
}

// ResetQuery asks the cache for the complete data set.
type ResetQuery struct{}

func (p *ResetQuery) Type() uint8 { return TypeResetQuery }

func (p *ResetQuery) SerializeTo(dst []byte) []byte {
	return header(dst, TypeResetQuery, 0, headerLen)
}

// CacheResponse opens the cache's answer to a query.
type CacheResponse struct {
	SessionID uint16
}

func (p *CacheResponse) Type() uint8 { return TypeCacheResponse }

func (p *CacheResponse) SerializeTo(dst []byte) []byte {
	return header(dst, TypeCacheResponse, p.SessionID, headerLen)
}

// Prefix carries one VRP announcement or withdrawal (IPv4 or IPv6 on
// the wire, chosen by the address family of VRP.Prefix).
type Prefix struct {
	Announce bool
	VRP      vrp.VRP
}

func (p *Prefix) Type() uint8 {
	if p.VRP.Prefix.Addr().Is4() {
		return TypeIPv4Prefix
	}
	return TypeIPv6Prefix
}

func (p *Prefix) SerializeTo(dst []byte) []byte {
	var flags byte
	if p.Announce {
		flags = FlagAnnounce
	}
	if p.VRP.Prefix.Addr().Is4() {
		dst = header(dst, TypeIPv4Prefix, 0, ipv4PrefixLen)
		dst = append(dst, flags, byte(p.VRP.Prefix.Bits()), byte(p.VRP.MaxLength), 0)
		a4 := p.VRP.Prefix.Addr().As4()
		dst = append(dst, a4[:]...)
	} else {
		dst = header(dst, TypeIPv6Prefix, 0, ipv6PrefixLen)
		dst = append(dst, flags, byte(p.VRP.Prefix.Bits()), byte(p.VRP.MaxLength), 0)
		a16 := p.VRP.Prefix.Addr().As16()
		dst = append(dst, a16[:]...)
	}
	return binary.BigEndian.AppendUint32(dst, p.VRP.ASN)
}

// EndOfData closes the cache's answer and carries the new serial.
type EndOfData struct {
	SessionID uint16
	Serial    uint32
}

func (p *EndOfData) Type() uint8 { return TypeEndOfData }

func (p *EndOfData) SerializeTo(dst []byte) []byte {
	dst = header(dst, TypeEndOfData, p.SessionID, endOfDataLen)
	return binary.BigEndian.AppendUint32(dst, p.Serial)
}

// CacheReset tells the router the cache cannot serve an incremental
// update; the router must issue a ResetQuery.
type CacheReset struct{}

func (p *CacheReset) Type() uint8 { return TypeCacheReset }

func (p *CacheReset) SerializeTo(dst []byte) []byte {
	return header(dst, TypeCacheReset, 0, headerLen)
}

// ErrorReport signals a protocol error; it optionally encapsulates the
// offending PDU and a diagnostic message.
type ErrorReport struct {
	Code         uint16
	Encapsulated []byte
	Text         string
}

func (p *ErrorReport) Type() uint8 { return TypeErrorReport }

func (p *ErrorReport) SerializeTo(dst []byte) []byte {
	length := uint32(headerLen + 4 + len(p.Encapsulated) + 4 + len(p.Text))
	dst = header(dst, TypeErrorReport, p.Code, length)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Encapsulated)))
	dst = append(dst, p.Encapsulated...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Text)))
	return append(dst, p.Text...)
}

func (p *ErrorReport) Error() string {
	return fmt.Sprintf("rtr: peer reported error %d: %s", p.Code, p.Text)
}

// frame checks the header of the PDU at the start of buf — version,
// a plausible length, all of it present — and returns the PDU's own
// bytes.
func frame(buf []byte) ([]byte, error) {
	if len(buf) < headerLen {
		return nil, fmt.Errorf("rtr: short header (%d bytes)", len(buf))
	}
	if buf[0] != Version {
		return nil, fmt.Errorf("rtr: unsupported protocol version %d", buf[0])
	}
	length := binary.BigEndian.Uint32(buf[4:8])
	if length < headerLen || length > maxPDULen {
		return nil, fmt.Errorf("rtr: implausible PDU length %d", length)
	}
	if uint32(len(buf)) < length {
		return nil, fmt.Errorf("rtr: truncated PDU (have %d, need %d)", len(buf), length)
	}
	return buf[:length], nil
}

// Decode parses one complete PDU from buf (header included). It returns
// the PDU and the number of bytes consumed.
func Decode(buf []byte) (PDU, int, error) {
	buf, err := frame(buf)
	if err != nil {
		return nil, 0, err
	}
	typ := buf[1]
	session := binary.BigEndian.Uint16(buf[2:4])
	body := buf[headerLen:]
	n := len(buf)
	switch typ {
	case TypeSerialNotify, TypeSerialQuery, TypeEndOfData:
		if len(body) != 4 {
			return nil, 0, fmt.Errorf("rtr: type %d body length %d, want 4", typ, len(body))
		}
		serial := binary.BigEndian.Uint32(body)
		switch typ {
		case TypeSerialNotify:
			return &SerialNotify{SessionID: session, Serial: serial}, n, nil
		case TypeSerialQuery:
			return &SerialQuery{SessionID: session, Serial: serial}, n, nil
		default:
			return &EndOfData{SessionID: session, Serial: serial}, n, nil
		}
	case TypeResetQuery:
		if len(body) != 0 {
			return nil, 0, fmt.Errorf("rtr: reset query with body")
		}
		return &ResetQuery{}, n, nil
	case TypeCacheResponse:
		if len(body) != 0 {
			return nil, 0, fmt.Errorf("rtr: cache response with body")
		}
		return &CacheResponse{SessionID: session}, n, nil
	case TypeCacheReset:
		if len(body) != 0 {
			return nil, 0, fmt.Errorf("rtr: cache reset with body")
		}
		return &CacheReset{}, n, nil
	case TypeIPv4Prefix, TypeIPv6Prefix:
		p, err := parsePrefix(buf)
		if err != nil {
			return nil, 0, err
		}
		return &p, n, nil
	case TypeErrorReport:
		if len(body) < 8 {
			return nil, 0, fmt.Errorf("rtr: error report too short")
		}
		// The two inner lengths are the peer's: compared in 64 bits, so
		// that one near 2^32 cannot wrap past the check.
		encLen := binary.BigEndian.Uint32(body)
		if uint64(len(body)) < 4+uint64(encLen)+4 {
			return nil, 0, fmt.Errorf("rtr: error report encapsulation overruns PDU")
		}
		enc := append([]byte(nil), body[4:4+encLen]...)
		rest := body[4+encLen:]
		textLen := binary.BigEndian.Uint32(rest)
		if uint64(len(rest)) < 4+uint64(textLen) {
			return nil, 0, fmt.Errorf("rtr: error report text overruns PDU")
		}
		return &ErrorReport{Code: session, Encapsulated: enc, Text: string(rest[4 : 4+textLen])}, n, nil
	default:
		return nil, 0, fmt.Errorf("rtr: unsupported PDU type %d", typ)
	}
}

// parsePrefix parses a framed IPv4 or IPv6 Prefix PDU into a value the
// caller owns: a sync reads one per VRP, and through Decode each would
// cost an allocation to box it. What it accepts always passes the
// checks a vrp.Set makes.
func parsePrefix(pdu []byte) (Prefix, error) {
	body, v6, fam, asnOff := pdu[headerLen:], pdu[1] == TypeIPv6Prefix, 32, 8
	if v6 {
		fam, asnOff = 128, 20
	}
	if len(body) != asnOff+4 {
		return Prefix{}, fmt.Errorf("rtr: type %d prefix body length %d, want %d", pdu[1], len(body), asnOff+4)
	}
	flags, bits, maxLen := body[0], int(body[1]), int(body[2])
	var addr netip.Addr
	if v6 {
		addr = netip.AddrFrom16([16]byte(body[4:20]))
	} else {
		addr = netip.AddrFrom4([4]byte(body[4:8]))
	}
	if bits > fam || maxLen > fam || maxLen < bits {
		return Prefix{}, fmt.Errorf("rtr: inconsistent prefix lengths bits=%d max=%d", bits, maxLen)
	}
	p := netip.PrefixFrom(addr, bits)
	if p.Masked() != p {
		return Prefix{}, fmt.Errorf("rtr: prefix %v has host bits set", p)
	}
	return Prefix{
		Announce: flags&FlagAnnounce != 0,
		VRP:      vrp.VRP{Prefix: p, MaxLength: maxLen, ASN: binary.BigEndian.Uint32(body[asnOff:])},
	}, nil
}

// ReadPDU reads exactly one PDU from r. It is the blocking, stream-based
// counterpart to Decode.
func ReadPDU(r io.Reader) (PDU, error) {
	var buf []byte
	return readPDU(r, &buf)
}

// readPDU is ReadPDU through a buffer the caller keeps between calls
// (see readFrame). Reuse is sound because a decoded PDU holds no
// reference into the bytes it came from — Decode copies an Error
// Report's encapsulated PDU and text, everything else is scalars.
func readPDU(r io.Reader, buf *[]byte) (PDU, error) {
	pdu, err := readFrame(r, buf)
	if err != nil {
		return nil, err
	}
	p, _, err := Decode(pdu)
	return p, err
}

// readFrame reads the bytes of exactly one PDU from r into *buf, which
// grows to the longest PDU read so far, so a session's records stop
// costing a buffer each. It makes the checks frame makes, so what it
// returns may go to parsePrefix directly. The bytes are valid until the
// next read.
func readFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	if cap(*buf) < headerLen {
		*buf = make([]byte, headerLen, maxFixedPDULen)
	}
	hdr := (*buf)[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if hdr[0] != Version {
		return nil, fmt.Errorf("rtr: unsupported protocol version %d", hdr[0])
	}
	length := binary.BigEndian.Uint32(hdr[4:8])
	if length < headerLen || length > maxPDULen {
		return nil, fmt.Errorf("rtr: implausible PDU length %d", length)
	}
	if uint32(cap(*buf)) < length {
		*buf = append(make([]byte, 0, length), hdr...)
	}
	pdu := (*buf)[:length]
	if _, err := io.ReadFull(r, pdu[headerLen:]); err != nil {
		return nil, fmt.Errorf("rtr: reading PDU body: %w", err)
	}
	return pdu, nil
}

// WritePDU serializes p and writes it to w.
func WritePDU(w io.Writer, p PDU) error {
	buf := p.SerializeTo(nil)
	_, err := w.Write(buf)
	return err
}
