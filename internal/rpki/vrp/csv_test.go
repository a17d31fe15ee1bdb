package vrp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"slices"
	"strconv"
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
	for _, in := range []string{
		"# comment\n193.0.6.0/24,24,3333\n10.0.0.0/8,16,AS64500\n\n",
		// The header is the first line that is neither blank nor a
		// comment, wherever that falls.
		"\n# exported 2015-08-01\nprefix,maxLength,ASN\n193.0.6.0/24,24,as3333\n 10.0.0.0/8 , 16 , AS64500 \n",
		"Prefix,MaxLength,ASN\n10.0.0.0/8,16,64500\n193.0.6.0/24,24,3333\n10.0.0.0/8,16,64500\n",
	} {
		s, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			t.Fatalf("ReadCSV(%q): %v", in, err)
		}
		if s.Len() != 2 || !s.Contains(VRP{Prefix: netutil.MustPrefix("10.0.0.0/8"), MaxLength: 16, ASN: 64500}) {
			t.Fatalf("ReadCSV(%q) = %v", in, s.All())
		}
	}
}

func TestReadCSVRejectsBadInput(t *testing.T) {
	cases := []string{
		"notaprefix,24,1",
		"10.0.0.0/8,x,1",
		"10.0.0.0/8,16,ASx",
		"10.0.0.0/8,16",
		"10.0.0.0/8,4,1", // maxLength < bits
		// A header is only a header in first place.
		"10.0.0.0/8,16,1\nprefix,maxLength,ASN",
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV(%q) accepted bad input", in)
		}
	}
}

// TestReadCSVErrorsNameTheLine: every rejection says which line, the
// one the scanner itself gives up on (longer than its 64 KiB token
// limit) included.
func TestReadCSVErrorsNameTheLine(t *testing.T) {
	long := strings.Repeat("x", 70<<10)
	for in, want := range map[string]string{
		"# c\n\n10.0.0.0/8,16,1\n10.0.0.0/8,4,1\n":      "vrp: line 4: vrp: maxLength 4 out of range",
		"prefix,maxLength,ASN\n10.0.0.0/8,16\n":         "vrp: line 2: want 3 fields, got 2",
		"10.0.0.0/8,16,1\n11.0.0.0/8,16,1\n" + long:     "vrp: line 3: bufio.Scanner: token too long",
		long + "\n10.0.0.0/8,16,1\n":                    "vrp: line 1: bufio.Scanner: token too long",
		"10.0.0.0/8,16,1\n# " + long + "\n10.0.0.0/8\n": "vrp: line 2: bufio.Scanner: token too long",
	} {
		_, err := ReadCSV(strings.NewReader(in))
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("ReadCSV(%.40q…) = %v, want %q…", in, err, want)
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

// readCSVOracle is ReadCSV as it was before it sorted first and built
// once: every row added to a set as it is read (a lookup, a slice copy
// and an insertion per row), and the set built a second time from its
// own All when the rows had come out of order. The header and
// long-line rules are today's; building is what it is the oracle for.
func readCSVOracle(r io.Reader) (*Set, error) {
	s := NewSet()
	sc := bufio.NewScanner(r)
	line := 0
	inOrder, first := true, true
	var last VRP
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if first {
			first = false
			if strings.HasPrefix(strings.ToLower(text), "prefix,") {
				continue
			}
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("vrp: line %d: want 3 fields, got %d", line, len(parts))
		}
		prefix, err := netip.ParsePrefix(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("vrp: line %d: %w", line, err)
		}
		maxLen, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("vrp: line %d: bad maxLength: %w", line, err)
		}
		asnText := strings.TrimPrefix(strings.TrimSpace(strings.ToUpper(parts[2])), "AS")
		asn, err := strconv.ParseUint(asnText, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("vrp: line %d: bad ASN: %w", line, err)
		}
		v := VRP{Prefix: prefix.Masked(), MaxLength: maxLen, ASN: uint32(asn)}
		if err := s.Add(v); err != nil {
			return nil, fmt.Errorf("vrp: line %d: %w", line, err)
		}
		inOrder = inOrder && Compare(last, v) <= 0
		last = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("vrp: line %d: %w", line+1, err)
	}
	if !inOrder {
		return FromVRPs(s.All())
	}
	return s, nil
}

// csvOf renders VRPs as CSV rows in the order given, without a header.
func csvOf(vs []VRP) []byte {
	var b bytes.Buffer
	for _, v := range vs {
		fmt.Fprintf(&b, "%s,%d,AS%d\n", v.Prefix, v.MaxLength, v.ASN)
	}
	return b.Bytes()
}

// sameTable fails unless the set holds exactly want, in order, under a
// tree of one node-held slice per distinct prefix.
func sameTable(t testing.TB, what string, s *Set, want []VRP) {
	t.Helper()
	if got := s.All(); !slices.Equal(got, want) || s.Len() != len(want) {
		t.Fatalf("%s: All() = %v (Len %d), want %v", what, got, s.Len(), want)
	}
	prefixes := 0
	for i, v := range want {
		if i == 0 || want[i-1].Prefix != v.Prefix {
			prefixes++
		}
	}
	if s.tree.Len() != prefixes {
		t.Fatalf("%s: %d tree entries for %d distinct prefixes", what, s.tree.Len(), prefixes)
	}
}

// FuzzReadCSV: whatever the bytes, ReadCSV does not panic and agrees
// with the row-at-a-time oracle — the same set or the same error, line
// number included. What it accepts survives WriteCSV → ReadCSV, reads
// back the same from its rows in any order and with rows repeated, and
// equals FromVRPs of those rows. The seeds are the committed corpus
// under testdata/fuzz/FuzzReadCSV.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCSV(bytes.NewReader(data))
		want, wantErr := readCSVOracle(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("ReadCSV: %v, oracle: %v", err, wantErr)
		}
		if err != nil {
			return
		}
		all := want.All()
		if !slices.IsSortedFunc(all, Compare) || len(slices.Compact(slices.Clone(all))) != len(all) {
			t.Fatalf("oracle's All is not strictly ordered: %v", all)
		}
		sameTable(t, "as read", got, all)

		var out bytes.Buffer
		if err := got.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("ReadCSV rejects WriteCSV's output: %v", err)
		}
		sameTable(t, "written and read back", back, all)

		// The rows again, shuffled and with every third one repeated.
		rows := slices.Clone(all)
		for i := 0; i < len(all); i += 3 {
			rows = append(rows, all[i])
		}
		rand.New(rand.NewSource(int64(len(data)))).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		shuffled, err := ReadCSV(bytes.NewReader(csvOf(rows)))
		if err != nil {
			t.Fatalf("ReadCSV rejects its own rows reordered: %v", err)
		}
		sameTable(t, "shuffled with repeats", shuffled, all)
		rowwise, err := FromVRPs(rows)
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, "FromVRPs of the same rows", rowwise, all)
	})
}

// TestReadCSVMatchesOracle runs the fuzz target's comparison over files
// big enough to span several parse chunks, in order and shuffled.
func TestReadCSVMatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	vs := randomVRPs(rnd, 3*builderChunk+17)
	vs = append(vs, VRP{Prefix: netutil.MustPrefix("2001:db8::/32"), MaxLength: 48, ASN: 64501})
	sorted, err := FromVRPs(vs)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"in order": csvOf(sorted.All()), "shuffled": csvOf(vs)} {
		got, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		want, err := readCSVOracle(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, name, got, want.All())
	}
}

// validatorVRPs draws n distinct VRPs shaped like a validator's export
// (seed 1): six in seven IPv4, /12 to /24 with room to a /24, the rest
// IPv6 /32 to /48, nearly one a prefix.
func validatorVRPs(n int) []VRP {
	rnd := rand.New(rand.NewSource(1))
	seen := make(map[VRP]bool, n)
	vs := make([]VRP, 0, n)
	for len(vs) < n {
		v := VRP{ASN: uint32(64500 + rnd.Intn(40000))}
		if rnd.Intn(7) == 0 {
			bits := 32 + 4*rnd.Intn(5)
			v.Prefix = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, byte(rnd.Intn(16)), byte(rnd.Intn(256)), byte(rnd.Intn(256)), byte(rnd.Intn(256)), byte(rnd.Intn(256))}), bits).Masked()
			v.MaxLength = bits + rnd.Intn(3)
		} else {
			bits := 12 + rnd.Intn(13)
			v.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(1 + rnd.Intn(222)), byte(rnd.Intn(256)), byte(rnd.Intn(256)), 0}), bits).Masked()
			v.MaxLength = bits + rnd.Intn(25-bits)
		}
		if !seen[v] {
			seen[v] = true
			vs = append(vs, v)
		}
	}
	return vs
}

// BenchmarkReadCSV is a daemon's -vrps start-up at the size the
// real RPKI has: 300 000 rows, as a validator exports them (in order)
// and as the repository benchmark hands them over (shuffled).
func BenchmarkReadCSV(b *testing.B) {
	const rows = 300000
	vs := validatorVRPs(rows)
	ordered := slices.Clone(vs)
	slices.SortFunc(ordered, Compare)
	for _, bc := range []struct {
		name string
		data []byte
	}{{"shuffled", csvOf(vs)}, {"in-order", csvOf(ordered)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.data)))
			for i := 0; i < b.N; i++ {
				s, err := ReadCSV(bytes.NewReader(bc.data))
				if err != nil {
					b.Fatal(err)
				}
				if s.Len() != rows {
					b.Fatalf("read %d VRPs, want %d", s.Len(), rows)
				}
			}
		})
	}
}
