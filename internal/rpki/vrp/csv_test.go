package vrp

import (
	"bytes"
	"strings"
	"testing"

	"ripki/internal/netutil"
)

func TestCSVRoundTrip(t *testing.T) {
	s := NewSet()
	mustAdd(t, s, "193.0.6.0/24", 24, 3333)
	mustAdd(t, s, "10.0.0.0/8", 16, 64500)
	mustAdd(t, s, "2001:db8::/32", 48, 64501)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("Len = %d", got.Len())
	}
	if st := got.Validate(netutil.MustPrefix("193.0.6.0/24"), 3333); st != Valid {
		t.Errorf("reloaded set: %v", st)
	}
}

func TestReadCSVFlexible(t *testing.T) {
	in := "# comment\n193.0.6.0/24,24,3333\n10.0.0.0/8,16,AS64500\n\n"
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestReadCSVRejectsBadInput(t *testing.T) {
	cases := []string{
		"notaprefix,24,1",
		"10.0.0.0/8,x,1",
		"10.0.0.0/8,16,ASx",
		"10.0.0.0/8,16",
		"10.0.0.0/8,4,1", // maxLength < bits
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV(%q) accepted bad input", in)
		}
	}
}

// TestReadCSVOrderFree: rows out of order make ReadCSV rebuild the set
// in order, which must change nothing a caller can see.
func TestReadCSVOrderFree(t *testing.T) {
	sorted := "10.0.0.0/8,16,AS64500\n10.0.0.0/8,24,AS64500\n193.0.6.0/24,24,AS3333\n2001:db8::/32,48,AS64501\n"
	scrambled := "2001:db8::/32,48,AS64501\n193.0.6.0/24,24,AS3333\n10.0.0.0/8,24,AS64500\n10.0.0.0/8,16,AS64500\n"
	a, err := ReadCSV(strings.NewReader(sorted))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadCSV(strings.NewReader(scrambled))
	if err != nil {
		t.Fatal(err)
	}
	if ann, wd := a.Diff(b); len(ann) != 0 || len(wd) != 0 || a.Len() != 4 || b.Len() != 4 {
		t.Fatalf("row order changed the set: +%v -%v, Len %d and %d", ann, wd, a.Len(), b.Len())
	}
}
