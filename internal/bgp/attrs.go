// Package bgp holds what a router needs of BGP-4 (RFC 4271): AS_PATH
// segments, the origin-AS rule, and RouteEvent, the flattened
// per-prefix form the RIB and router layers consume. The paper's BGP is
// a collector's table dump, never a live session, so there is no
// session layer, no message framing and, since no command reads or
// writes a dump, no path-attribute codec here. Git history has each:
// the session layer at commit d4a9d72, the OPEN / UPDATE / KEEPALIVE /
// NOTIFICATION codecs at 9027a64, the attribute decoder at a4c9e58, and
// the attribute encoder with internal/mrt's TABLE_DUMP_V2 writer at 57822a8.
//
// The paper derives each route's origin AS as "the right most ASN in
// the AS path" and excludes AS_SET routes; OriginAS implements exactly
// that rule.
package bgp

// AS_PATH segment types.
const (
	SegmentSet      = 1
	SegmentSequence = 2
)

// Segment is one AS_PATH segment.
type Segment struct {
	Type uint8 // SegmentSet or SegmentSequence
	ASNs []uint32
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
