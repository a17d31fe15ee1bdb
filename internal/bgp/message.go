// Package bgp implements the subset of BGP-4 (RFC 4271) that a route
// collector needs: message framing, OPEN negotiation with the 4-octet
// AS capability (RFC 6793), UPDATE encoding/decoding with the path
// attributes relevant to origin extraction (ORIGIN, AS_PATH, NEXT_HOP,
// and MP-BGP reach/unreach for IPv6, RFC 4760). RouteEvent is the
// flattened per-prefix form the RIB and router layers consume.
//
// The paper derives each route's origin AS as "the right most ASN in
// the AS path" and excludes AS_SET routes; OriginAS implements exactly
// that rule.
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"

	"ripki/internal/netutil"
)

// Message type codes (RFC 4271 §4.1).
const (
	TypeOpen         = 1
	TypeUpdate       = 2
	TypeNotification = 3
	TypeKeepalive    = 4
)

// Path-attribute type codes.
const (
	AttrOrigin        = 1
	AttrASPath        = 2
	AttrNextHop       = 3
	AttrMultiExitDisc = 4
	AttrLocalPref     = 5
	AttrMPReachNLRI   = 14
	AttrMPUnreachNLRI = 15
)

// ORIGIN attribute values.
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// AS_PATH segment types.
const (
	SegmentSet      = 1
	SegmentSequence = 2
)

// AFI/SAFI for MP-BGP.
const (
	AFIIPv4     = 1
	AFIIPv6     = 2
	SAFIUnicast = 1
)

// ASTrans is the 2-octet placeholder AS (RFC 6793).
const ASTrans = 23456

const (
	markerLen  = 16
	headerLen  = markerLen + 3
	maxMsgLen  = 4096
	minMsgLen  = headerLen
	bgpVersion = 4
)

// Message is implemented by the four BGP message kinds.
type Message interface {
	// Type returns the RFC 4271 message type code.
	Type() uint8
	// body appends the message body (after the 19-byte header).
	body(dst []byte) ([]byte, error)
}

// Segment is one AS_PATH segment.
type Segment struct {
	Type uint8 // SegmentSet or SegmentSequence
	ASNs []uint32
}

// Open is the session-establishment message. This implementation always
// advertises the 4-octet AS capability and requires it from peers, so
// AS_PATH segments are uniformly 4 bytes per ASN.
type Open struct {
	ASN      uint32
	HoldTime uint16
	ID       netip.Addr // router ID; must be IPv4
}

func (m *Open) Type() uint8 { return TypeOpen }

func (m *Open) body(dst []byte) ([]byte, error) {
	if !m.ID.Is4() {
		return nil, fmt.Errorf("bgp: router ID %v is not IPv4", m.ID)
	}
	dst = append(dst, bgpVersion)
	as2 := uint16(ASTrans)
	if m.ASN < 65536 {
		as2 = uint16(m.ASN)
	}
	dst = binary.BigEndian.AppendUint16(dst, as2)
	dst = binary.BigEndian.AppendUint16(dst, m.HoldTime)
	id := m.ID.As4()
	dst = append(dst, id[:]...)
	// One optional parameter: capabilities (type 2), containing the
	// 4-octet AS capability (code 65, RFC 6793).
	cap4 := []byte{65, 4, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(cap4[2:], m.ASN)
	param := append([]byte{2, byte(len(cap4))}, cap4...)
	dst = append(dst, byte(len(param)))
	dst = append(dst, param...)
	return dst, nil
}

// Keepalive is the empty liveness message.
type Keepalive struct{}

func (m *Keepalive) Type() uint8                     { return TypeKeepalive }
func (m *Keepalive) body(dst []byte) ([]byte, error) { return dst, nil }

// Notification reports a fatal session error.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

func (m *Notification) Type() uint8 { return TypeNotification }

func (m *Notification) body(dst []byte) ([]byte, error) {
	dst = append(dst, m.Code, m.Subcode)
	return append(dst, m.Data...), nil
}

func (m *Notification) Error() string {
	return fmt.Sprintf("bgp: notification code %d subcode %d", m.Code, m.Subcode)
}

// MPReach carries IPv6 reachability (RFC 4760).
type MPReach struct {
	NextHop netip.Addr
	NLRI    []netip.Prefix
}

// Update announces and withdraws routes. IPv4 routes ride the classic
// fields; IPv6 routes ride MPReach/MPUnreach.
type Update struct {
	// Withdrawn lists IPv4 prefixes no longer reachable.
	Withdrawn []netip.Prefix
	// Origin is the ORIGIN attribute (OriginIGP unless set).
	Origin uint8
	// ASPath is the AS_PATH attribute as 4-octet segments.
	ASPath []Segment
	// NextHop is the IPv4 next hop; required when NLRI is non-empty.
	NextHop netip.Addr
	// NLRI lists announced IPv4 prefixes.
	NLRI []netip.Prefix
	// MPReach, if non-nil, announces IPv6 prefixes.
	MPReach *MPReach
	// MPUnreach lists withdrawn IPv6 prefixes.
	MPUnreach []netip.Prefix
}

func (m *Update) Type() uint8 { return TypeUpdate }

func appendNLRI(dst []byte, ps []netip.Prefix) ([]byte, error) {
	for _, p := range ps {
		cp, err := netutil.Canonical(p)
		if err != nil {
			return nil, fmt.Errorf("bgp: %w", err)
		}
		dst = append(dst, byte(cp.Bits()))
		nbytes := (cp.Bits() + 7) / 8
		raw := cp.Addr().AsSlice()
		dst = append(dst, raw[:nbytes]...)
	}
	return dst, nil
}

func parseNLRI(buf []byte, v6 bool) ([]netip.Prefix, error) {
	var out []netip.Prefix
	famBytes, famBits := 4, 32
	if v6 {
		famBytes, famBits = 16, 128
	}
	for len(buf) > 0 {
		bits := int(buf[0])
		buf = buf[1:]
		if bits > famBits {
			return nil, fmt.Errorf("bgp: NLRI prefix length %d exceeds family maximum %d", bits, famBits)
		}
		nbytes := (bits + 7) / 8
		if len(buf) < nbytes {
			return nil, fmt.Errorf("bgp: truncated NLRI (need %d bytes, have %d)", nbytes, len(buf))
		}
		raw := make([]byte, famBytes)
		copy(raw, buf[:nbytes])
		buf = buf[nbytes:]
		addr, _ := netip.AddrFromSlice(raw)
		p := netip.PrefixFrom(addr, bits)
		if p.Masked() != p {
			return nil, fmt.Errorf("bgp: NLRI %v has host bits set", p)
		}
		out = append(out, p)
	}
	return out, nil
}

// attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtended   = 0x10
)

func appendAttr(dst []byte, flags, typ uint8, body []byte) []byte {
	if len(body) > 255 {
		flags |= flagExtended
	}
	dst = append(dst, flags, typ)
	if flags&flagExtended != 0 {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(body)))
	} else {
		dst = append(dst, byte(len(body)))
	}
	return append(dst, body...)
}

func (m *Update) body(dst []byte) ([]byte, error) {
	// Withdrawn routes.
	wd, err := appendNLRI(nil, m.Withdrawn)
	if err != nil {
		return nil, err
	}
	if len(wd) > 65535 {
		return nil, errors.New("bgp: withdrawn routes overflow")
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(wd)))
	dst = append(dst, wd...)

	// Path attributes.
	var attrs []byte
	hasRoutes := len(m.NLRI) > 0 || (m.MPReach != nil && len(m.MPReach.NLRI) > 0)
	if hasRoutes {
		attrs = appendAttr(attrs, flagTransitive, AttrOrigin, []byte{m.Origin})
		var pathBody []byte
		for _, seg := range m.ASPath {
			if len(seg.ASNs) > 255 {
				return nil, errors.New("bgp: AS_PATH segment too long")
			}
			pathBody = append(pathBody, seg.Type, byte(len(seg.ASNs)))
			for _, asn := range seg.ASNs {
				pathBody = binary.BigEndian.AppendUint32(pathBody, asn)
			}
		}
		attrs = appendAttr(attrs, flagTransitive, AttrASPath, pathBody)
	}
	if len(m.NLRI) > 0 {
		if !m.NextHop.Is4() {
			return nil, fmt.Errorf("bgp: IPv4 NLRI requires an IPv4 next hop, got %v", m.NextHop)
		}
		nh := m.NextHop.As4()
		attrs = appendAttr(attrs, flagTransitive, AttrNextHop, nh[:])
	}
	if m.MPReach != nil && len(m.MPReach.NLRI) > 0 {
		if !m.MPReach.NextHop.Is6() || m.MPReach.NextHop.Is4() {
			return nil, fmt.Errorf("bgp: MP_REACH next hop %v is not IPv6", m.MPReach.NextHop)
		}
		var b []byte
		b = binary.BigEndian.AppendUint16(b, AFIIPv6)
		b = append(b, SAFIUnicast)
		nh := m.MPReach.NextHop.As16()
		b = append(b, 16)
		b = append(b, nh[:]...)
		b = append(b, 0) // reserved
		if b, err = appendNLRI(b, m.MPReach.NLRI); err != nil {
			return nil, err
		}
		attrs = appendAttr(attrs, flagOptional, AttrMPReachNLRI, b)
	}
	if len(m.MPUnreach) > 0 {
		var b []byte
		b = binary.BigEndian.AppendUint16(b, AFIIPv6)
		b = append(b, SAFIUnicast)
		if b, err = appendNLRI(b, m.MPUnreach); err != nil {
			return nil, err
		}
		attrs = appendAttr(attrs, flagOptional, AttrMPUnreachNLRI, b)
	}
	if len(attrs) > 65535 {
		return nil, errors.New("bgp: path attributes overflow")
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(attrs)))
	dst = append(dst, attrs...)

	// NLRI.
	if dst, err = appendNLRI(dst, m.NLRI); err != nil {
		return nil, err
	}
	return dst, nil
}

// Encode serialises msg with header and marker, appending to dst.
func Encode(dst []byte, msg Message) ([]byte, error) {
	start := len(dst)
	for i := 0; i < markerLen; i++ {
		dst = append(dst, 0xff)
	}
	dst = append(dst, 0, 0, msg.Type()) // length placeholder
	var err error
	dst, err = msg.body(dst)
	if err != nil {
		return nil, err
	}
	total := len(dst) - start
	if total > maxMsgLen {
		return nil, fmt.Errorf("bgp: message length %d exceeds maximum %d", total, maxMsgLen)
	}
	binary.BigEndian.PutUint16(dst[start+markerLen:], uint16(total))
	return dst, nil
}

// WriteMessage encodes and writes one message.
func WriteMessage(w io.Writer, msg Message) error {
	buf, err := Encode(nil, msg)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadMessage reads and decodes one message from r.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	for _, b := range hdr[:markerLen] {
		if b != 0xff {
			return nil, errors.New("bgp: connection not synchronised (bad marker)")
		}
	}
	length := int(binary.BigEndian.Uint16(hdr[markerLen : markerLen+2]))
	typ := hdr[markerLen+2]
	if length < minMsgLen || length > maxMsgLen {
		return nil, fmt.Errorf("bgp: bad message length %d", length)
	}
	body := make([]byte, length-headerLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("bgp: reading body: %w", err)
	}
	return decodeBody(typ, body)
}

// Decode parses one message from buf and returns the bytes consumed.
func Decode(buf []byte) (Message, int, error) {
	if len(buf) < headerLen {
		return nil, 0, errors.New("bgp: short header")
	}
	for _, b := range buf[:markerLen] {
		if b != 0xff {
			return nil, 0, errors.New("bgp: bad marker")
		}
	}
	length := int(binary.BigEndian.Uint16(buf[markerLen : markerLen+2]))
	typ := buf[markerLen+2]
	if length < minMsgLen || length > maxMsgLen {
		return nil, 0, fmt.Errorf("bgp: bad message length %d", length)
	}
	if len(buf) < length {
		return nil, 0, fmt.Errorf("bgp: truncated message (have %d, need %d)", len(buf), length)
	}
	msg, err := decodeBody(typ, buf[headerLen:length])
	if err != nil {
		return nil, 0, err
	}
	return msg, length, nil
}

func decodeBody(typ uint8, body []byte) (Message, error) {
	switch typ {
	case TypeOpen:
		return decodeOpen(body)
	case TypeUpdate:
		return decodeUpdate(body)
	case TypeKeepalive:
		if len(body) != 0 {
			return nil, errors.New("bgp: keepalive with body")
		}
		return &Keepalive{}, nil
	case TypeNotification:
		if len(body) < 2 {
			return nil, errors.New("bgp: notification too short")
		}
		return &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
	default:
		return nil, fmt.Errorf("bgp: unknown message type %d", typ)
	}
}

func decodeOpen(body []byte) (*Open, error) {
	if len(body) < 10 {
		return nil, errors.New("bgp: OPEN too short")
	}
	if body[0] != bgpVersion {
		return nil, fmt.Errorf("bgp: unsupported version %d", body[0])
	}
	as2 := binary.BigEndian.Uint16(body[1:3])
	hold := binary.BigEndian.Uint16(body[3:5])
	var id4 [4]byte
	copy(id4[:], body[5:9])
	optLen := int(body[9])
	opts := body[10:]
	if len(opts) != optLen {
		return nil, fmt.Errorf("bgp: OPEN optional parameter length %d does not match body %d", optLen, len(opts))
	}
	open := &Open{ASN: uint32(as2), HoldTime: hold, ID: netip.AddrFrom4(id4)}
	// Scan for the 4-octet AS capability.
	for len(opts) >= 2 {
		ptype, plen := opts[0], int(opts[1])
		if len(opts) < 2+plen {
			return nil, errors.New("bgp: OPEN optional parameter overruns")
		}
		val := opts[2 : 2+plen]
		opts = opts[2+plen:]
		if ptype != 2 {
			continue // not capabilities
		}
		for len(val) >= 2 {
			code, clen := val[0], int(val[1])
			if len(val) < 2+clen {
				return nil, errors.New("bgp: capability overruns")
			}
			if code == 65 && clen == 4 {
				open.ASN = binary.BigEndian.Uint32(val[2:6])
			}
			val = val[2+clen:]
		}
	}
	if len(opts) != 0 {
		return nil, errors.New("bgp: trailing bytes in OPEN optional parameters")
	}
	if open.ASN == uint32(ASTrans) && as2 == ASTrans {
		return nil, errors.New("bgp: peer did not advertise the 4-octet AS capability")
	}
	return open, nil
}

func decodeUpdate(body []byte) (*Update, error) {
	if len(body) < 4 {
		return nil, errors.New("bgp: UPDATE too short")
	}
	wdLen := int(binary.BigEndian.Uint16(body[:2]))
	if len(body) < 2+wdLen+2 {
		return nil, errors.New("bgp: UPDATE withdrawn routes overrun")
	}
	up := &Update{}
	var err error
	if up.Withdrawn, err = parseNLRI(body[2:2+wdLen], false); err != nil {
		return nil, err
	}
	rest := body[2+wdLen:]
	attrLen := int(binary.BigEndian.Uint16(rest[:2]))
	if len(rest) < 2+attrLen {
		return nil, errors.New("bgp: UPDATE attributes overrun")
	}
	attrs := rest[2 : 2+attrLen]
	nlri := rest[2+attrLen:]
	if up.NLRI, err = parseNLRI(nlri, false); err != nil {
		return nil, err
	}
	if err := parseAttrs(attrs, up); err != nil {
		return nil, err
	}
	return up, nil
}

// parseAttrs decodes a path-attribute block into up.
func parseAttrs(attrs []byte, up *Update) error {
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return errors.New("bgp: truncated attribute header")
		}
		flags, typ := attrs[0], attrs[1]
		var alen, hdr int
		if flags&flagExtended != 0 {
			if len(attrs) < 4 {
				return errors.New("bgp: truncated extended attribute header")
			}
			alen, hdr = int(binary.BigEndian.Uint16(attrs[2:4])), 4
		} else {
			alen, hdr = int(attrs[2]), 3
		}
		if len(attrs) < hdr+alen {
			return errors.New("bgp: attribute overruns message")
		}
		val := attrs[hdr : hdr+alen]
		attrs = attrs[hdr+alen:]
		switch typ {
		case AttrOrigin:
			if len(val) != 1 {
				return errors.New("bgp: bad ORIGIN length")
			}
			up.Origin = val[0]
		case AttrASPath:
			for len(val) > 0 {
				if len(val) < 2 {
					return errors.New("bgp: truncated AS_PATH segment")
				}
				styp, n := val[0], int(val[1])
				if styp != SegmentSet && styp != SegmentSequence {
					return fmt.Errorf("bgp: unknown AS_PATH segment type %d", styp)
				}
				if len(val) < 2+4*n {
					return errors.New("bgp: AS_PATH segment overruns")
				}
				seg := Segment{Type: styp, ASNs: make([]uint32, n)}
				for i := 0; i < n; i++ {
					seg.ASNs[i] = binary.BigEndian.Uint32(val[2+4*i:])
				}
				up.ASPath = append(up.ASPath, seg)
				val = val[2+4*n:]
			}
		case AttrNextHop:
			if len(val) != 4 {
				return errors.New("bgp: bad NEXT_HOP length")
			}
			var a [4]byte
			copy(a[:], val)
			up.NextHop = netip.AddrFrom4(a)
		case AttrMPReachNLRI:
			if len(val) < 5 {
				return errors.New("bgp: MP_REACH too short")
			}
			afi := binary.BigEndian.Uint16(val[:2])
			safi := val[2]
			nhLen := int(val[3])
			if afi != AFIIPv6 || safi != SAFIUnicast {
				return fmt.Errorf("bgp: unsupported AFI/SAFI %d/%d", afi, safi)
			}
			if len(val) < 4+nhLen+1 {
				return errors.New("bgp: MP_REACH next hop overruns")
			}
			if nhLen != 16 {
				return fmt.Errorf("bgp: MP_REACH next hop length %d unsupported", nhLen)
			}
			var nh [16]byte
			copy(nh[:], val[4:20])
			nlri6, err := parseNLRI(val[4+nhLen+1:], true)
			if err != nil {
				return err
			}
			up.MPReach = &MPReach{NextHop: netip.AddrFrom16(nh), NLRI: nlri6}
		case AttrMPUnreachNLRI:
			if len(val) < 3 {
				return errors.New("bgp: MP_UNREACH too short")
			}
			afi := binary.BigEndian.Uint16(val[:2])
			safi := val[2]
			if afi != AFIIPv6 || safi != SAFIUnicast {
				return fmt.Errorf("bgp: unsupported AFI/SAFI %d/%d", afi, safi)
			}
			wd6, err := parseNLRI(val[3:], true)
			if err != nil {
				return err
			}
			up.MPUnreach = wd6
		default:
			// Unknown attributes are tolerated (transitive semantics are
			// out of scope for a collector).
		}
	}
	return nil
}

// OriginAS returns the origin AS of a path: the last ASN of the final
// AS_SEQUENCE segment. If the path ends in an AS_SET the origin is
// ambiguous and ok is false — such routes are excluded from the study,
// matching the paper ("entries with an AS_SET are excluded ... which is
// why the function is deprecated with the deployment of RPKI").
func OriginAS(path []Segment) (asn uint32, ok bool) {
	if len(path) == 0 {
		return 0, false
	}
	last := path[len(path)-1]
	if last.Type != SegmentSequence || len(last.ASNs) == 0 {
		return 0, false
	}
	return last.ASNs[len(last.ASNs)-1], true
}
