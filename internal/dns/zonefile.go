package dns

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"unicode"
)

// WriteZoneTSV dumps every A, AAAA, CNAME and DNSKEY record as
// tab-separated "name TYPE TTL value" lines, the TTL in seconds: the
// format ripki-worldgen emits and LoadZoneTSV reads back.
func (r *Registry) WriteZoneTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, name := range r.Names() {
		for _, typ := range []uint16{TypeA, TypeAAAA, TypeCNAME, TypeDNSKEY} {
			for _, rr := range r.Lookup(name, typ) {
				var err error
				switch typ {
				case TypeCNAME:
					_, err = fmt.Fprintf(bw, "%s\tCNAME\t%d\t%s\n", name, rr.TTL, rr.Target)
				case TypeA:
					_, err = fmt.Fprintf(bw, "%s\tA\t%d\t%s\n", name, rr.TTL, rr.Addr)
				case TypeAAAA:
					_, err = fmt.Fprintf(bw, "%s\tAAAA\t%d\t%s\n", name, rr.TTL, rr.Addr)
				case TypeDNSKEY:
					_, err = fmt.Fprintf(bw, "%s\tDNSKEY\t%d\t%x\n", name, rr.TTL, rr.Data.DNSKEY.PublicKey)
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// LoadZoneTSV reads the WriteZoneTSV format into a fresh registry, built
// as its base. Unknown record types and blank lines are skipped;
// malformed lines are errors, a name or CNAME target that zoneName
// refuses among them.
func LoadZoneTSV(r io.Reader) (*Registry, error) {
	var b Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) != 4 {
			return nil, fmt.Errorf("dns: zone line %d: want 4 fields, got %d", line, len(parts))
		}
		name, typ, val := parts[0], parts[1], parts[3]
		if !zoneName(name) || (typ == "CNAME" && !zoneName(val)) {
			return nil, fmt.Errorf("dns: zone line %d: bad name in %q", line, text)
		}
		n, err := strconv.ParseUint(parts[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("dns: zone line %d: bad TTL: %w", line, err)
		}
		ttl := uint32(n)
		switch typ {
		case "A", "AAAA":
			addr, err := netip.ParseAddr(val)
			if err != nil {
				return nil, fmt.Errorf("dns: zone line %d: %w", line, err)
			}
			t := uint16(TypeA)
			if typ == "AAAA" {
				t = TypeAAAA
			}
			if (t == TypeA) != addr.Is4() || addr.Zone() != "" {
				return nil, fmt.Errorf("dns: zone line %d: %s record with %v", line, typ, addr)
			}
			b.Add(RR{Name: name, Type: t, TTL: ttl, Addr: addr})
		case "CNAME":
			b.Add(RR{Name: name, Type: TypeCNAME, TTL: ttl, Target: val})
		case "DNSKEY":
			key := make([]byte, len(val)/2)
			if _, err := fmt.Sscanf(val, "%x", &key); err != nil {
				return nil, fmt.Errorf("dns: zone line %d: bad DNSKEY hex: %w", line, err)
			}
			b.Add(RR{Name: name, Type: TypeDNSKEY, TTL: ttl, Data: &RData{DNSKEY: &DNSKEYData{Flags: 257, Protocol: 3, Algorithm: 8, PublicKey: key}}})
		default:
			// Tolerate future record types in dumps.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return Build(&b), nil
}

// zoneName reports whether a dump may carry s as a name: labels that are
// not empty and hold no white space, with at most one trailing dot. Any
// other name would not read back as written once canonicalised — a
// trailing space is trimmed from the line, and a second trailing dot
// from the name.
func zoneName(s string) bool {
	s = strings.TrimSuffix(s, ".")
	return !strings.HasPrefix(s, ".") && !strings.HasSuffix(s, ".") && !strings.Contains(s, "..") &&
		!strings.ContainsFunc(s, unicode.IsSpace)
}
