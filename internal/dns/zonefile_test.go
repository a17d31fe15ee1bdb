package dns

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
)

func TestZoneTSVRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Add(RR{Name: "example.com", Type: TypeA, TTL: 60, Addr: netip.MustParseAddr("198.51.100.10")})
	reg.Add(RR{Name: "example.com", Type: TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("2001:db8::1")})
	reg.AddCNAME("www.example.com", "edge.cdn.wld", 300)
	reg.Add(RR{Name: "edge.cdn.wld", Type: TypeA, TTL: 30, Addr: netip.MustParseAddr("203.0.113.5")})
	reg.Add(RR{Name: "signed.example", Type: TypeDNSKEY, TTL: 3600, Data: &RData{DNSKEY: &DNSKEYData{Flags: 257, Protocol: 3, Algorithm: 8, PublicKey: []byte{1, 2, 3, 4}}}})

	var buf bytes.Buffer
	if err := reg.WriteZoneTSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadZoneTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != reg.Len() {
		t.Fatalf("names: %d vs %d", got.Len(), reg.Len())
	}
	res, err := (RegistryResolver{Registry: got}).LookupWeb("www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if res.CNAMECount() != 1 || len(res.Addrs) != 1 || res.Addrs[0] != netip.MustParseAddr("203.0.113.5") {
		t.Errorf("reloaded resolution: %+v", res)
	}
	signed, err := (RegistryResolver{Registry: got}).HasDNSKEY("signed.example")
	if err != nil || !signed {
		t.Errorf("DNSKEY lost in round trip: %v %v", signed, err)
	}
	if keys := got.Lookup("signed.example", TypeDNSKEY); len(keys) != 1 || !bytes.Equal(keys[0].Data.DNSKEY.PublicKey, []byte{1, 2, 3, 4}) {
		t.Errorf("DNSKEY payload mismatch: %+v", keys)
	}
	for _, name := range reg.Names() {
		for _, typ := range []uint16{TypeA, TypeAAAA, TypeCNAME, TypeDNSKEY} {
			want, have := reg.Lookup(name, typ), got.Lookup(name, typ)
			for i := range min(len(want), len(have)) {
				if have[i].TTL != want[i].TTL {
					t.Errorf("%s type %d: TTL %d read back, %d written", name, typ, have[i].TTL, want[i].TTL)
				}
			}
		}
	}
}

func TestLoadZoneTSVValidation(t *testing.T) {
	bad := []string{
		"a.com\tA\t300",                      // missing value
		"a.com\tA\t198.51.100.1",             // missing TTL
		"a.com\tA\t-1\t198.51.100.1",         // negative TTL
		"a.com\tA\t4294967296\t198.51.100.1", // TTL beyond 32 bits
		"a.com\tA\t300\tnotanip",             // bad address
		"a.com\tA\t300\t2001:db8::1",         // family mismatch
		"a.com\tAAAA\t300\t198.51.100.1",     // family mismatch
		"a.com\tAAAA\t300\tfe80::1%eth0",     // a scoped address: a record carries no zone
		"a.com\tDNSKEY\t3600\tzz",            // bad hex
		"a.com..\tA\t300\t198.51.100.1",      // a second trailing dot: "a.com." would be written
		".a.com\tA\t300\t198.51.100.1",       // empty first label
		"a b.com\tA\t300\t198.51.100.1",      // white space in a name
		"a.com\tCNAME\t300\tb.com .",         // " ." would be written as a trailing space
		"a.com\tCNAME\t300\tb..com",          // empty label in a target
	}
	for _, in := range bad {
		if _, err := LoadZoneTSV(strings.NewReader(in)); err == nil {
			t.Errorf("LoadZoneTSV(%q) accepted bad input", in)
		}
	}
	// Comments, blanks and unknown types are tolerated.
	reg, err := LoadZoneTSV(strings.NewReader("# c\n\na.com\tMX\t300\t10 mail\na.com\tA\t300\t198.51.100.1\n"))
	if err != nil || reg.Len() != 1 {
		t.Errorf("tolerant parse failed: %v %d", err, reg.Len())
	}
}

// FuzzLoadZoneTSV: ripki-dnsd -zones hands a file to this decoder. It
// must not panic, and what it accepts is written back as a fixed point:
// loading WriteZoneTSV's output and writing again gives the same bytes.
// (The first write may differ from the input: names are canonicalised,
// records regrouped by name and type, hex lower-cased.) The seeds are the
// committed corpus under testdata/fuzz/FuzzLoadZoneTSV, a 200-domain
// world's dump among them.
func FuzzLoadZoneTSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		reg, err := LoadZoneTSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := reg.WriteZoneTSV(&once); err != nil {
			t.Fatal(err)
		}
		back, err := LoadZoneTSV(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("LoadZoneTSV rejects WriteZoneTSV's output: %v\n%s", err, once.Bytes())
		}
		if err := back.WriteZoneTSV(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("written dump is not a fixed point\nonce:\n%s\ntwice:\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
