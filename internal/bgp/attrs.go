// Package bgp holds what a table-dump reader and a router need of BGP-4
// (RFC 4271): the path-attribute block as MRT TABLE_DUMP_V2 RIB entries
// carry it (ORIGIN, AS_PATH with 4-octet ASNs, NEXT_HOP, and the MP-BGP
// next hop for IPv6, RFC 4760), the origin-AS rule, and RouteEvent, the
// flattened per-prefix form the RIB and router layers consume. The
// paper's BGP is a collector's table dump, never a live session, so
// there is no session layer and no message framing here: the former is
// in this repository's history at PR 11 (bgp.Collector / Speaker), the
// latter at PR 23 (OPEN / UPDATE / KEEPALIVE / NOTIFICATION codecs).
//
// The paper derives each route's origin AS as "the right most ASN in
// the AS path" and excludes AS_SET routes; OriginAS implements exactly
// that rule.
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Path-attribute type codes.
const (
	AttrOrigin        = 1
	AttrASPath        = 2
	AttrNextHop       = 3
	AttrMPReachNLRI   = 14
	AttrMPUnreachNLRI = 15
)

// ORIGIN attribute values.
const (
	OriginIGP        = 0
	OriginIncomplete = 2
)

// AS_PATH segment types.
const (
	SegmentSet      = 1
	SegmentSequence = 2
)

// AFI/SAFI for MP-BGP.
const (
	AFIIPv6     = 2
	SAFIUnicast = 1
)

// attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtended   = 0x10
)

// Segment is one AS_PATH segment.
type Segment struct {
	Type uint8 // SegmentSet or SegmentSequence
	ASNs []uint32
}

// PathAttrs is the attribute set attached to one RIB entry: the subset
// of UPDATE attributes that MRT TABLE_DUMP_V2 RIB records carry.
type PathAttrs struct {
	Origin  uint8
	ASPath  []Segment
	NextHop netip.Addr // IPv4 → NEXT_HOP, IPv6 → MP_REACH next hop
}

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

// EncodePathAttrs renders a path-attribute block as it appears inside
// MRT RIB entries.
func EncodePathAttrs(a PathAttrs) ([]byte, error) {
	var attrs []byte
	attrs = appendAttr(attrs, flagTransitive, AttrOrigin, []byte{a.Origin})
	var pathBody []byte
	for _, seg := range a.ASPath {
		if len(seg.ASNs) > 255 {
			return nil, errors.New("bgp: AS_PATH segment too long")
		}
		pathBody = append(pathBody, seg.Type, byte(len(seg.ASNs)))
		for _, asn := range seg.ASNs {
			pathBody = binary.BigEndian.AppendUint32(pathBody, asn)
		}
	}
	attrs = appendAttr(attrs, flagTransitive, AttrASPath, pathBody)
	switch {
	case a.NextHop.Is4():
		nh := a.NextHop.As4()
		attrs = appendAttr(attrs, flagTransitive, AttrNextHop, nh[:])
	case a.NextHop.Is6():
		// The UPDATE MP_REACH layout with an empty NLRI: AFI(2),
		// SAFI(1), next-hop length(1), next hop, reserved(1).
		var b []byte
		b = append(b, 0, AFIIPv6, SAFIUnicast, 16)
		nh := a.NextHop.As16()
		b = append(b, nh[:]...)
		b = append(b, 0) // reserved
		attrs = appendAttr(attrs, flagOptional, AttrMPReachNLRI, b)
	case a.NextHop.IsValid():
		return nil, fmt.Errorf("bgp: unsupported next hop %v", a.NextHop)
	}
	return attrs, nil
}

// ParsePathAttrs decodes a path-attribute block: one produced by
// EncodePathAttrs, or one a collector copied out of an UPDATE. The block
// arrives from a file, so every attribute is bounds-checked, the
// MP_REACH / MP_UNREACH NLRI included though only the next hop is kept.
// An MP_REACH next hop wins over NEXT_HOP; unknown attributes are
// skipped (transitive semantics are out of scope for a table reader).
func ParsePathAttrs(attrs []byte) (PathAttrs, error) {
	var a PathAttrs
	var mpNextHop netip.Addr
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return PathAttrs{}, errors.New("bgp: truncated attribute header")
		}
		flags, typ := attrs[0], attrs[1]
		var alen, hdr int
		if flags&flagExtended != 0 {
			if len(attrs) < 4 {
				return PathAttrs{}, errors.New("bgp: truncated extended attribute header")
			}
			alen, hdr = int(binary.BigEndian.Uint16(attrs[2:4])), 4
		} else {
			alen, hdr = int(attrs[2]), 3
		}
		if len(attrs) < hdr+alen {
			return PathAttrs{}, errors.New("bgp: attribute overruns block")
		}
		val := attrs[hdr : hdr+alen]
		attrs = attrs[hdr+alen:]
		switch typ {
		case AttrOrigin:
			if len(val) != 1 {
				return PathAttrs{}, errors.New("bgp: bad ORIGIN length")
			}
			a.Origin = val[0]
		case AttrASPath:
			for len(val) > 0 {
				if len(val) < 2 {
					return PathAttrs{}, errors.New("bgp: truncated AS_PATH segment")
				}
				styp, n := val[0], int(val[1])
				if styp != SegmentSet && styp != SegmentSequence {
					return PathAttrs{}, fmt.Errorf("bgp: unknown AS_PATH segment type %d", styp)
				}
				if len(val) < 2+4*n {
					return PathAttrs{}, errors.New("bgp: AS_PATH segment overruns")
				}
				seg := Segment{Type: styp, ASNs: make([]uint32, n)}
				for i := 0; i < n; i++ {
					seg.ASNs[i] = binary.BigEndian.Uint32(val[2+4*i:])
				}
				a.ASPath = append(a.ASPath, seg)
				val = val[2+4*n:]
			}
		case AttrNextHop:
			if len(val) != 4 {
				return PathAttrs{}, errors.New("bgp: bad NEXT_HOP length")
			}
			a.NextHop = netip.AddrFrom4([4]byte(val))
		case AttrMPReachNLRI:
			if len(val) < 5 {
				return PathAttrs{}, errors.New("bgp: MP_REACH too short")
			}
			afi := binary.BigEndian.Uint16(val[:2])
			safi := val[2]
			nhLen := int(val[3])
			if afi != AFIIPv6 || safi != SAFIUnicast {
				return PathAttrs{}, fmt.Errorf("bgp: unsupported AFI/SAFI %d/%d", afi, safi)
			}
			if len(val) < 4+nhLen+1 {
				return PathAttrs{}, errors.New("bgp: MP_REACH next hop overruns")
			}
			if nhLen != 16 {
				return PathAttrs{}, fmt.Errorf("bgp: MP_REACH next hop length %d unsupported", nhLen)
			}
			if err := parseNLRI(val[4+nhLen+1:]); err != nil {
				return PathAttrs{}, err
			}
			mpNextHop = netip.AddrFrom16([16]byte(val[4:20]))
		case AttrMPUnreachNLRI:
			if len(val) < 3 {
				return PathAttrs{}, errors.New("bgp: MP_UNREACH too short")
			}
			afi := binary.BigEndian.Uint16(val[:2])
			safi := val[2]
			if afi != AFIIPv6 || safi != SAFIUnicast {
				return PathAttrs{}, fmt.Errorf("bgp: unsupported AFI/SAFI %d/%d", afi, safi)
			}
			if err := parseNLRI(val[3:]); err != nil {
				return PathAttrs{}, err
			}
		}
	}
	if mpNextHop.IsValid() {
		a.NextHop = mpNextHop
	}
	return a, nil
}

// parseNLRI checks a run of IPv6 NLRI entries (length octet, then the
// prefix's leading bytes): each length within the family, each prefix
// whole and without host bits. A RIB entry's prefix rides in the MRT
// record, not here, so the prefixes themselves are not kept.
func parseNLRI(buf []byte) error {
	for len(buf) > 0 {
		bits := int(buf[0])
		buf = buf[1:]
		if bits > 128 {
			return fmt.Errorf("bgp: NLRI prefix length %d exceeds family maximum 128", bits)
		}
		nbytes := (bits + 7) / 8
		if len(buf) < nbytes {
			return fmt.Errorf("bgp: truncated NLRI (need %d bytes, have %d)", nbytes, len(buf))
		}
		var raw [16]byte
		copy(raw[:], buf[:nbytes])
		buf = buf[nbytes:]
		if p := netip.PrefixFrom(netip.AddrFrom16(raw), bits); p.Masked() != p {
			return fmt.Errorf("bgp: NLRI %v has host bits set", p)
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
