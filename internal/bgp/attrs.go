// Package bgp holds what a table-dump writer and a router need of BGP-4
// (RFC 4271): the path-attribute block as MRT TABLE_DUMP_V2 RIB entries
// carry it (ORIGIN, AS_PATH with 4-octet ASNs, NEXT_HOP, and the MP-BGP
// next hop for IPv6, RFC 4760), the origin-AS rule, and RouteEvent, the
// flattened per-prefix form the RIB and router layers consume. The
// paper's BGP is a collector's table dump, never a live session, so
// there is no session layer, no message framing and, since no command
// reads a dump, no attribute decoder here. Git history has each: the
// session layer at commit d4a9d72, the OPEN / UPDATE / KEEPALIVE /
// NOTIFICATION codecs at 9027a64, and the attribute decoder at a4c9e58.
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
	AttrOrigin      = 1
	AttrASPath      = 2
	AttrNextHop     = 3
	AttrMPReachNLRI = 14
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
