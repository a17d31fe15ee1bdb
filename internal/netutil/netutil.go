// Package netutil provides IP address and prefix helpers shared by the
// routing, RPKI, and measurement packages.
//
// It wraps net/netip with the handful of operations the RiPKI pipeline
// needs beyond the standard library: covering/containment tests between
// prefixes, canonicalisation, bit extraction for trie keys, and the IANA
// special-purpose address registry used to discard invalid DNS answers
// (step 2 of the paper's methodology).
package netutil

import (
	"fmt"
	"net/netip"
)

// Canonical returns p masked to its prefix length, so that two prefixes
// describing the same address block compare equal. It returns an error if
// p is not valid.
func Canonical(p netip.Prefix) (netip.Prefix, error) {
	if !p.IsValid() {
		return netip.Prefix{}, fmt.Errorf("netutil: invalid prefix %v", p)
	}
	return p.Masked(), nil
}

// MustPrefix parses s as a canonical prefix and panics on error. It is
// intended for tests and static tables.
func MustPrefix(s string) netip.Prefix {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p.Masked()
}

// Covers reports whether outer contains the whole of inner: both must be
// the same address family, outer must be no longer than inner, and
// inner's network address must fall inside outer.
func Covers(outer, inner netip.Prefix) bool {
	if outer.Addr().Is4() != inner.Addr().Is4() {
		return false
	}
	if outer.Bits() > inner.Bits() {
		return false
	}
	return outer.Contains(inner.Addr())
}

// Bit returns the i-th most significant bit (0-based) of the address, as
// 0 or 1. For IPv4 addresses the bit index is relative to the 32-bit
// form. It panics if i is out of range for the address family.
func Bit(a netip.Addr, i int) int {
	raw := a.AsSlice()
	if i < 0 || i >= len(raw)*8 {
		panic(fmt.Sprintf("netutil: bit index %d out of range for %v", i, a))
	}
	if raw[i/8]&(1<<(7-uint(i%8))) != 0 {
		return 1
	}
	return 0
}

// FamilyBits returns the number of address bits for the family of a:
// 32 for IPv4, 128 for IPv6.
func FamilyBits(a netip.Addr) int {
	if a.Is4() {
		return 32
	}
	return 128
}

// specialPurpose lists the IANA special-purpose registries for IPv4
// (RFC 6890 and successors) and IPv6. A DNS answer inside any of these
// blocks is not a usable public web-server address; the paper excludes
// such answers ("We exclude all invalid DNS answers, i.e. all
// special-purpose IPv4 and IPv6 addresses reserved by the IANA").
var specialPurpose = []netip.Prefix{
	// IPv4
	MustPrefix("0.0.0.0/8"),          // "this network"
	MustPrefix("10.0.0.0/8"),         // private
	MustPrefix("100.64.0.0/10"),      // shared address space (CGN)
	MustPrefix("127.0.0.0/8"),        // loopback
	MustPrefix("169.254.0.0/16"),     // link local
	MustPrefix("172.16.0.0/12"),      // private
	MustPrefix("192.0.0.0/24"),       // IETF protocol assignments
	MustPrefix("192.0.2.0/24"),       // TEST-NET-1
	MustPrefix("192.88.99.0/24"),     // 6to4 relay anycast (deprecated)
	MustPrefix("192.168.0.0/16"),     // private
	MustPrefix("198.18.0.0/15"),      // benchmarking
	MustPrefix("198.51.100.0/24"),    // TEST-NET-2
	MustPrefix("203.0.113.0/24"),     // TEST-NET-3
	MustPrefix("224.0.0.0/4"),        // multicast
	MustPrefix("240.0.0.0/4"),        // reserved
	MustPrefix("255.255.255.255/32"), // limited broadcast
	// IPv6
	MustPrefix("::/128"),        // unspecified
	MustPrefix("::1/128"),       // loopback
	MustPrefix("::ffff:0:0/96"), // IPv4-mapped
	MustPrefix("64:ff9b::/96"),  // IPv4-IPv6 translation
	MustPrefix("100::/64"),      // discard only
	MustPrefix("2001::/23"),     // IETF protocol assignments
	MustPrefix("2001:db8::/32"), // documentation
	MustPrefix("2002::/16"),     // 6to4
	MustPrefix("fc00::/7"),      // unique local
	MustPrefix("fe80::/10"),     // link local
	MustPrefix("ff00::/8"),      // multicast
}

// specialByOctet lists the blocks an address can fall in by family (0
// IPv4, 1 IPv6) and first octet: four at most (00::/8), none for most.
var specialByOctet = func() (t [2][256][]netip.Prefix) {
	for _, p := range specialPurpose {
		fam, first := p.Addr().BitLen()/128, int(p.Addr().AsSlice()[0])
		for o := first; o < first+1<<max(8-p.Bits(), 0); o++ { // shorter than /8: several octets
			t[fam][o] = append(t[fam][o], p)
		}
	}
	return t
}()

// IsSpecialPurpose reports whether a falls inside any IANA
// special-purpose block and is therefore an invalid answer for a public
// web server. Invalid (zero) addresses are also reported as special.
func IsSpecialPurpose(a netip.Addr) bool {
	if !a.IsValid() || a.Is4In6() {
		return true
	}
	raw, fam := a.As16(), a.BitLen()/128 // an IPv4 address is raw's last four bytes
	for _, p := range specialByOctet[fam][raw[12-12*fam]] {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// ComparePrefixes orders prefixes first by family (IPv4 before IPv6),
// then by address bytes, then by prefix length. It returns -1, 0 or +1
// and is suitable for sort functions.
func ComparePrefixes(a, b netip.Prefix) int {
	af, bf := a.Addr().Is4(), b.Addr().Is4()
	if af != bf {
		if af {
			return -1
		}
		return 1
	}
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	switch {
	case a.Bits() < b.Bits():
		return -1
	case a.Bits() > b.Bits():
		return 1
	}
	return 0
}
