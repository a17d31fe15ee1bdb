// Package dns implements the subset of the Domain Name System needed by
// the measurement pipeline: RFC 1035 wire format with name compression,
// a UDP server, a stub resolver client, and an in-memory zone registry
// with CNAME chasing: a column store built once from bulk records, with
// an overlay for the writes made after.
//
// Methodology step (2) of the paper resolves every Alexa domain (with
// and without the "www" label) through several public resolvers,
// collecting A, AAAA and CNAME records; the CDN heuristic in §4.3 then
// counts CNAME indirections. This package provides both the wire path
// (real UDP queries against a server) and an in-process path backed by
// the same zone data, so the 1M-domain sweeps do not pay per-query
// syscalls while examples and tools still exercise real sockets.
package dns

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Record types.
const (
	TypeA      = 1
	TypeNS     = 2
	TypeCNAME  = 5
	TypeSOA    = 6
	TypeTXT    = 16
	TypeAAAA   = 28
	TypeDNSKEY = 48
)

// Classes.
const ClassINET = 1

// Response codes.
const (
	RCodeSuccess        = 0
	RCodeFormatError    = 1
	RCodeServerFailure  = 2
	RCodeNameError      = 3 // NXDOMAIN
	RCodeNotImplemented = 4
	RCodeRefused        = 5
)

// maxMessageLen is the classic UDP payload bound.
const maxMessageLen = 4096

// Header is the fixed 12-byte message header, unpacked.
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              uint8
}

// Question is one query.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// DNSKEYData is the RDATA of a DNSKEY record (RFC 4034 §2). The key
// material is opaque here; its presence at a zone apex is what the
// DNSSEC-adoption comparison measures.
type DNSKEYData struct {
	Flags     uint16
	Protocol  uint8
	Algorithm uint8
	PublicKey []byte
}

// SOAData is the RDATA of an SOA record.
type SOAData struct {
	MName   string
	RName   string
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// RR is one resource record. Exactly one payload is meaningful, chosen
// by Type: Addr for A/AAAA, Target for CNAME/NS, Data.SOA, Data.TXT or
// Data.DNSKEY for the rest. The payloads that are rare in a web world sit
// behind Data, which is nil on A, AAAA, CNAME and NS records, so every
// record of a registry pays one pointer for them rather than five words.
type RR struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32

	Addr   netip.Addr
	Target string
	Data   *RData
}

// RData holds the payload of an SOA, TXT or DNSKEY record.
type RData struct {
	SOA    *SOAData
	TXT    []string
	DNSKEY *DNSKEYData
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// CanonicalName lower-cases s and strips one trailing dot. The empty
// string canonicalises to "." (the root).
func CanonicalName(s string) string {
	s = strings.ToLower(strings.TrimSuffix(s, "."))
	if s == "" {
		return "."
	}
	return s
}

// packName appends the wire encoding of name, compressing against
// offsets already recorded in table (suffix name → message offset).
func packName(dst []byte, name string, table map[string]int) ([]byte, error) {
	name = CanonicalName(name)
	if name == "." {
		return append(dst, 0), nil
	}
	if len(name) > 253 {
		return nil, fmt.Errorf("dns: name %q too long", name)
	}
	for name != "" {
		if off, ok := table[name]; ok && off < 0x4000 {
			return binary.BigEndian.AppendUint16(dst, uint16(0xC000|off)), nil
		}
		if table != nil && len(dst) < 0x4000 {
			table[name] = len(dst)
		}
		label, rest, dotted := strings.Cut(name, ".")
		if dotted && rest == "" {
			// A second trailing dot is an empty last label, not the root.
			return nil, fmt.Errorf("dns: bad label in %q", name)
		}
		name = rest
		if len(label) == 0 || len(label) > 63 {
			return nil, fmt.Errorf("dns: bad label %q", label)
		}
		dst = append(dst, byte(len(label)))
		dst = append(dst, label...)
	}
	return append(dst, 0), nil
}

// unpackName reads a possibly compressed name starting at off in msg.
// It returns the name and the offset just past the name's storage in
// the original location.
func unpackName(msg []byte, off int) (string, int, error) {
	var buf [253 + 1 + 63]byte // room for the longest name plus one label
	name := buf[:0]
	jumped := false
	next := 0
	steps := 0
	for {
		if steps++; steps > 128 {
			return "", 0, errors.New("dns: compression loop")
		}
		if off >= len(msg) {
			return "", 0, errors.New("dns: name overruns message")
		}
		b := msg[off]
		switch {
		case b == 0:
			if !jumped {
				next = off + 1
			}
			if len(name) == 0 {
				return ".", next, nil
			}
			return string(name), next, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, errors.New("dns: truncated compression pointer")
			}
			ptr := int(binary.BigEndian.Uint16(msg[off:]) & 0x3FFF)
			if !jumped {
				next = off + 2
				jumped = true
			}
			if ptr >= off {
				return "", 0, errors.New("dns: forward compression pointer")
			}
			off = ptr
		case b&0xC0 != 0:
			return "", 0, fmt.Errorf("dns: reserved label type %#x", b&0xC0)
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return "", 0, errors.New("dns: label overruns message")
			}
			if len(name) > 0 {
				name = append(name, '.')
			}
			name = append(name, msg[off+1:off+1+l]...)
			off += 1 + l
			if len(name) > 253 {
				return "", 0, errors.New("dns: name too long")
			}
		}
	}
}

func (h Header) flags() uint16 {
	var f uint16
	if h.Response {
		f |= 1 << 15
	}
	f |= uint16(h.Opcode&0xF) << 11
	if h.Authoritative {
		f |= 1 << 10
	}
	if h.Truncated {
		f |= 1 << 9
	}
	if h.RecursionDesired {
		f |= 1 << 8
	}
	if h.RecursionAvailable {
		f |= 1 << 7
	}
	f |= uint16(h.RCode & 0xF)
	return f
}

func headerFromFlags(id, f uint16) Header {
	return Header{
		ID:                 id,
		Response:           f&(1<<15) != 0,
		Opcode:             uint8(f >> 11 & 0xF),
		Authoritative:      f&(1<<10) != 0,
		Truncated:          f&(1<<9) != 0,
		RecursionDesired:   f&(1<<8) != 0,
		RecursionAvailable: f&(1<<7) != 0,
		RCode:              uint8(f & 0xF),
	}
}

// Pack serialises the message.
func (m *Message) Pack() ([]byte, error) {
	dst := make([]byte, 0, 512)
	dst = binary.BigEndian.AppendUint16(dst, m.Header.ID)
	dst = binary.BigEndian.AppendUint16(dst, m.Header.flags())
	for _, n := range []int{len(m.Questions), len(m.Answers), len(m.Authority), len(m.Additional)} {
		if n > 0xFFFF {
			return nil, errors.New("dns: too many records")
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(n))
	}
	table := make(map[string]int)
	var err error
	for _, q := range m.Questions {
		if dst, err = packName(dst, q.Name, table); err != nil {
			return nil, err
		}
		dst = binary.BigEndian.AppendUint16(dst, q.Type)
		dst = binary.BigEndian.AppendUint16(dst, q.Class)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			if dst, err = packRR(dst, rr, table); err != nil {
				return nil, err
			}
		}
	}
	if len(dst) > maxMessageLen {
		return nil, fmt.Errorf("dns: message length %d exceeds %d", len(dst), maxMessageLen)
	}
	return dst, nil
}

func packRR(dst []byte, rr RR, table map[string]int) ([]byte, error) {
	var err error
	if dst, err = packName(dst, rr.Name, table); err != nil {
		return nil, err
	}
	dst = binary.BigEndian.AppendUint16(dst, rr.Type)
	dst = binary.BigEndian.AppendUint16(dst, rr.Class)
	dst = binary.BigEndian.AppendUint32(dst, rr.TTL)
	lenAt := len(dst)
	dst = append(dst, 0, 0) // RDLENGTH placeholder
	switch rr.Type {
	case TypeA:
		if !rr.Addr.Is4() {
			return nil, fmt.Errorf("dns: A record %q with non-IPv4 address %v", rr.Name, rr.Addr)
		}
		a := rr.Addr.As4()
		dst = append(dst, a[:]...)
	case TypeAAAA:
		if !rr.Addr.Is6() || rr.Addr.Is4() {
			return nil, fmt.Errorf("dns: AAAA record %q with non-IPv6 address %v", rr.Name, rr.Addr)
		}
		a := rr.Addr.As16()
		dst = append(dst, a[:]...)
	case TypeCNAME, TypeNS:
		if dst, err = packName(dst, rr.Target, table); err != nil {
			return nil, err
		}
	case TypeSOA:
		if rr.Data == nil || rr.Data.SOA == nil {
			return nil, fmt.Errorf("dns: SOA record %q without data", rr.Name)
		}
		soa := rr.Data.SOA
		if dst, err = packName(dst, soa.MName, table); err != nil {
			return nil, err
		}
		if dst, err = packName(dst, soa.RName, table); err != nil {
			return nil, err
		}
		for _, v := range []uint32{soa.Serial, soa.Refresh, soa.Retry, soa.Expire, soa.Minimum} {
			dst = binary.BigEndian.AppendUint32(dst, v)
		}
	case TypeTXT:
		var txt []string
		if rr.Data != nil {
			txt = rr.Data.TXT
		}
		for _, s := range txt {
			if len(s) > 255 {
				return nil, errors.New("dns: TXT string too long")
			}
			dst = append(dst, byte(len(s)))
			dst = append(dst, s...)
		}
	case TypeDNSKEY:
		if rr.Data == nil || rr.Data.DNSKEY == nil {
			return nil, fmt.Errorf("dns: DNSKEY record %q without data", rr.Name)
		}
		key := rr.Data.DNSKEY
		dst = binary.BigEndian.AppendUint16(dst, key.Flags)
		dst = append(dst, key.Protocol, key.Algorithm)
		dst = append(dst, key.PublicKey...)
	default:
		return nil, fmt.Errorf("dns: cannot pack record type %d", rr.Type)
	}
	rdLen := len(dst) - lenAt - 2
	if rdLen > 0xFFFF {
		return nil, errors.New("dns: RDATA too long")
	}
	binary.BigEndian.PutUint16(dst[lenAt:], uint16(rdLen))
	return dst, nil
}

// Unpack parses a wire-format message.
func (m *Message) Unpack(msg []byte) error {
	if len(msg) < 12 {
		return errors.New("dns: message shorter than header")
	}
	id := binary.BigEndian.Uint16(msg[0:2])
	flags := binary.BigEndian.Uint16(msg[2:4])
	m.Header = headerFromFlags(id, flags)
	counts := [4]int{}
	for i := range counts {
		counts[i] = int(binary.BigEndian.Uint16(msg[4+2*i:]))
	}
	off := 12
	m.Questions = nil
	if counts[0] > 0 {
		m.Questions = make([]Question, 0, min(counts[0], (len(msg)-off)/minQuestionLen))
	}
	for i := 0; i < counts[0]; i++ {
		name, next, err := unpackName(msg, off)
		if err != nil {
			return err
		}
		if next+4 > len(msg) {
			return errors.New("dns: question overruns message")
		}
		m.Questions = append(m.Questions, Question{
			Name:  name,
			Type:  binary.BigEndian.Uint16(msg[next:]),
			Class: binary.BigEndian.Uint16(msg[next+2:]),
		})
		off = next + 4
	}
	var err error
	if m.Answers, off, err = unpackSection(msg, off, counts[1]); err != nil {
		return err
	}
	if m.Authority, off, err = unpackSection(msg, off, counts[2]); err != nil {
		return err
	}
	if m.Additional, _, err = unpackSection(msg, off, counts[3]); err != nil {
		return err
	}
	return nil
}

// The shortest question and record on the wire: a root name (one byte)
// and the fixed fields. A header's counts size the sections only as far
// as the bytes left could hold, so a 12-byte message promising 65 535
// records allocates nothing for them.
const (
	minQuestionLen = 1 + 4
	minRRLen       = 1 + 10
)

func unpackSection(msg []byte, off, count int) ([]RR, int, error) {
	var out []RR
	if count > 0 {
		out = make([]RR, 0, min(count, (len(msg)-off)/minRRLen))
	}
	for i := 0; i < count; i++ {
		rr, next, err := unpackRR(msg, off)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, rr)
		off = next
	}
	return out, off, nil
}

func unpackRR(msg []byte, off int) (RR, int, error) {
	var rr RR
	name, next, err := unpackName(msg, off)
	if err != nil {
		return rr, 0, err
	}
	if next+10 > len(msg) {
		return rr, 0, errors.New("dns: record header overruns message")
	}
	rr.Name = name
	rr.Type = binary.BigEndian.Uint16(msg[next:])
	rr.Class = binary.BigEndian.Uint16(msg[next+2:])
	rr.TTL = binary.BigEndian.Uint32(msg[next+4:])
	rdLen := int(binary.BigEndian.Uint16(msg[next+8:]))
	rdStart := next + 10
	if rdStart+rdLen > len(msg) {
		return rr, 0, errors.New("dns: RDATA overruns message")
	}
	rd := msg[rdStart : rdStart+rdLen]
	switch rr.Type {
	case TypeA:
		if rdLen != 4 {
			return rr, 0, errors.New("dns: bad A RDATA length")
		}
		var a [4]byte
		copy(a[:], rd)
		rr.Addr = netip.AddrFrom4(a)
	case TypeAAAA:
		if rdLen != 16 {
			return rr, 0, errors.New("dns: bad AAAA RDATA length")
		}
		var a [16]byte
		copy(a[:], rd)
		rr.Addr = netip.AddrFrom16(a)
	case TypeCNAME, TypeNS:
		t, _, err := unpackName(msg, rdStart)
		if err != nil {
			return rr, 0, err
		}
		rr.Target = t
	case TypeSOA:
		m, o, err := unpackName(msg, rdStart)
		if err != nil {
			return rr, 0, err
		}
		r, o, err := unpackName(msg, o)
		if err != nil {
			return rr, 0, err
		}
		if o+20 > len(msg) || o+20 > rdStart+rdLen {
			return rr, 0, errors.New("dns: SOA RDATA too short")
		}
		rr.Data = &RData{SOA: &SOAData{
			MName:   m,
			RName:   r,
			Serial:  binary.BigEndian.Uint32(msg[o:]),
			Refresh: binary.BigEndian.Uint32(msg[o+4:]),
			Retry:   binary.BigEndian.Uint32(msg[o+8:]),
			Expire:  binary.BigEndian.Uint32(msg[o+12:]),
			Minimum: binary.BigEndian.Uint32(msg[o+16:]),
		}}
	case TypeTXT:
		rr.Data = &RData{}
		for len(rd) > 0 {
			l := int(rd[0])
			if 1+l > len(rd) {
				return rr, 0, errors.New("dns: TXT string overruns RDATA")
			}
			rr.Data.TXT = append(rr.Data.TXT, string(rd[1:1+l]))
			rd = rd[1+l:]
		}
	case TypeDNSKEY:
		if rdLen < 4 {
			return rr, 0, errors.New("dns: DNSKEY RDATA too short")
		}
		rr.Data = &RData{DNSKEY: &DNSKEYData{
			Flags:     binary.BigEndian.Uint16(rd),
			Protocol:  rd[2],
			Algorithm: rd[3],
			PublicKey: append([]byte(nil), rd[4:]...),
		}}
	default:
		// Preserve nothing; unknown types are tolerated but empty.
	}
	return rr, rdStart + rdLen, nil
}
