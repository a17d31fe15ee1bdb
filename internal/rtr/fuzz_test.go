package rtr

import (
	"bytes"
	"reflect"
	"testing"

	"ripki/internal/rpki/vrp"
)

// FuzzDecode: whatever the bytes, Decode does not panic and never claims
// to have consumed more than it was given. What it accepts serialises
// back to a PDU that decodes to the same value; a prefix it accepts
// passes the checks a vrp.Set makes (the client relies on it); and on
// every input framed as a prefix PDU the client's unboxed decode agrees
// with it: the same error-or-not, the same flag, the same VRP. The
// seeds are the committed corpus under testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pdu, n, err := Decode(data)
		if n < 0 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		if framed, ferr := frame(data); ferr == nil && (framed[1] == TypeIPv4Prefix || framed[1] == TypeIPv6Prefix) {
			rec, rerr := parsePrefix(framed)
			if (rerr == nil) != (err == nil) {
				t.Fatalf("record decode: %v, Decode: %v", rerr, err)
			}
			if err == nil && !reflect.DeepEqual(pdu, &rec) {
				t.Fatalf("record decode: %+v, Decode: %+v", rec, pdu)
			}
		}
		if err != nil {
			if pdu != nil || n != 0 {
				t.Fatalf("Decode failed (%v) and still returned %v, %d", err, pdu, n)
			}
			return
		}
		if n < headerLen {
			t.Fatalf("Decode accepted a PDU of %d bytes", n)
		}
		if p, ok := pdu.(*Prefix); ok {
			if added, err := vrp.NewSet().Insert(p.VRP); err != nil || !added {
				t.Fatalf("Decode accepted %+v, which no set takes: %v", p, err)
			}
		}
		wire := pdu.SerializeTo(nil)
		back, m, err := Decode(wire)
		if err != nil || m != len(wire) || !reflect.DeepEqual(back, pdu) {
			t.Fatalf("%#v serialises to % x, which decodes to %#v (%d bytes, %v)", pdu, wire, back, m, err)
		}
		// Reserved bytes aside, the wire form is canonical.
		if again := back.SerializeTo(nil); !bytes.Equal(again, wire) {
			t.Fatalf("serialising twice gives % x then % x", wire, again)
		}
	})
}
