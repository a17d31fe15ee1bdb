package rtr

import (
	"bytes"
	"math/rand"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"ripki/internal/netutil"
	"ripki/internal/rpki/vrp"
)

func v(prefix string, maxLen int, asn uint32) vrp.VRP {
	return vrp.VRP{Prefix: netutil.MustPrefix(prefix), MaxLength: maxLen, ASN: asn}
}

func TestPDURoundTrips(t *testing.T) {
	pdus := []PDU{
		&SerialNotify{SessionID: 7, Serial: 42},
		&SerialQuery{SessionID: 7, Serial: 41},
		&ResetQuery{},
		&CacheResponse{SessionID: 7},
		&Prefix{Announce: true, VRP: v("193.0.6.0/24", 24, 3333)},
		&Prefix{Announce: false, VRP: v("2001:db8::/32", 48, 64500)},
		&EndOfData{SessionID: 7, Serial: 42},
		&CacheReset{},
		&ErrorReport{Code: ErrCorruptData, Encapsulated: []byte{1, 2, 3}, Text: "bad"},
		&ErrorReport{Code: ErrNoDataAvailable},
	}
	for _, p := range pdus {
		wire := p.SerializeTo(nil)
		got, n, err := Decode(wire)
		if err != nil {
			t.Fatalf("Decode(%T): %v", p, err)
		}
		if n != len(wire) {
			t.Errorf("Decode(%T) consumed %d of %d", p, n, len(wire))
		}
		back := got.SerializeTo(nil)
		if !bytes.Equal(back, wire) {
			t.Errorf("%T round trip mismatch:\n  %x\n  %x", p, wire, back)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	wire := (&Prefix{Announce: true, VRP: v("193.0.6.0/24", 24, 3333)}).SerializeTo(nil)

	// Truncation at every boundary.
	for i := 0; i < len(wire); i++ {
		if _, _, err := Decode(wire[:i]); err == nil {
			t.Errorf("Decode accepted truncation to %d bytes", i)
		}
	}
	// Wrong version.
	bad := append([]byte(nil), wire...)
	bad[0] = 1
	if _, _, err := Decode(bad); err == nil {
		t.Error("Decode accepted wrong version")
	}
	// Unknown type.
	bad = append([]byte(nil), wire...)
	bad[1] = 99
	if _, _, err := Decode(bad); err == nil {
		t.Error("Decode accepted unknown type")
	}
	// Absurd length field.
	bad = append([]byte(nil), wire...)
	bad[4], bad[5], bad[6], bad[7] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := Decode(bad); err == nil {
		t.Error("Decode accepted absurd length")
	}
	// maxLen < bits.
	bad = append([]byte(nil), wire...)
	bad[9], bad[10] = 24, 20
	if _, _, err := Decode(bad); err == nil {
		t.Error("Decode accepted maxLen < bits")
	}
	// Host bits set.
	bad = append([]byte(nil), wire...)
	bad[15] = 0x01 // low byte of the address
	if _, _, err := Decode(bad); err == nil {
		t.Error("Decode accepted prefix with host bits")
	}
}

func TestDecodeErrorReportBounds(t *testing.T) {
	// encLen overruns the PDU.
	er := (&ErrorReport{Code: 0, Encapsulated: []byte{1}, Text: "x"}).SerializeTo(nil)
	er[8+3] = 0xff // encLen low byte huge
	if _, _, err := Decode(er); err == nil {
		t.Error("Decode accepted error report with overrunning encapsulation")
	}
}

func TestReadPDUStream(t *testing.T) {
	var buf bytes.Buffer
	want := []PDU{
		&ResetQuery{},
		&CacheResponse{SessionID: 1},
		&Prefix{Announce: true, VRP: v("10.0.0.0/8", 8, 64500)},
		&EndOfData{SessionID: 1, Serial: 0},
	}
	for _, p := range want {
		if err := WritePDU(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		got, err := ReadPDU(&buf)
		if err != nil {
			t.Fatalf("ReadPDU[%d]: %v", i, err)
		}
		if !bytes.Equal(got.SerializeTo(nil), w.SerializeTo(nil)) {
			t.Errorf("ReadPDU[%d] = %T, want %T", i, got, w)
		}
	}
}

// TestSessionBufferIsReusedNotAliased: reading a stream through one
// kept buffer yields the PDUs ReadPDU yields, a PDU read earlier is not
// rewritten by the reads after it (an Error Report's encapsulated PDU
// and text are the only variable-length fields), the buffer grows for
// the long PDU and serves the short ones after it, and a record then
// costs its PDU value alone.
func TestSessionBufferIsReusedNotAliased(t *testing.T) {
	report := &ErrorReport{Code: ErrCorruptData, Encapsulated: (&ResetQuery{}).SerializeTo(nil), Text: strings.Repeat("long ", 40)}
	want := []PDU{
		&CacheResponse{SessionID: 1},
		report,
		&Prefix{Announce: true, VRP: v("2001:db8::/32", 48, 64500)},
		&Prefix{Announce: false, VRP: v("10.0.0.0/8", 8, 64501)},
		&EndOfData{SessionID: 1, Serial: 7},
	}
	var stream bytes.Buffer
	for _, p := range want {
		if err := WritePDU(&stream, p); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	var got []PDU
	for range want {
		p, err := readPDU(&stream, &buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
	}
	for i, w := range want {
		if !bytes.Equal(got[i].SerializeTo(nil), w.SerializeTo(nil)) {
			t.Errorf("PDU %d read through the session buffer = %+v, want %+v", i, got[i], w)
		}
	}
	if cap(buf) < len(report.SerializeTo(nil)) {
		t.Errorf("buffer holds %d bytes after a %d-byte PDU", cap(buf), len(report.SerializeTo(nil)))
	}

	record := (&Prefix{Announce: true, VRP: v("10.0.0.0/8", 8, 64500)}).SerializeTo(nil)
	r := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(record)
		if _, err := readPDU(r, &buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("a record through the session buffer made %v allocations, want the PDU value alone", allocs)
	}
}

func startServer(t *testing.T, set *vrp.Set) (*Server, string) {
	t.Helper()
	srv := NewServer(set, 911)
	srv.Logf = t.Logf
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func TestClientFullSync(t *testing.T) {
	set := vrp.NewSet()
	set.Add(v("193.0.6.0/24", 24, 3333))
	set.Add(v("10.0.0.0/8", 16, 64500))
	set.Add(v("2001:db8::/32", 48, 64501))

	_, addr := startServer(t, set)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("client has %d VRPs, want 3", c.Len())
	}
	got := c.Set()
	if st := got.Validate(netutil.MustPrefix("193.0.6.0/24"), 3333); st != vrp.Valid {
		t.Errorf("validation through RTR = %v, want valid", st)
	}
}

func TestClientIncrementalSync(t *testing.T) {
	set := vrp.NewSet()
	set.Add(v("10.0.0.0/8", 8, 1))
	srv, addr := startServer(t, set)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if c.Serial() != 0 || c.Len() != 1 {
		t.Fatalf("after reset: serial=%d len=%d", c.Serial(), c.Len())
	}

	// Update the cache: drop 10/8, add two more.
	set2 := vrp.NewSet()
	set2.Add(v("11.0.0.0/8", 8, 2))
	set2.Add(v("12.0.0.0/8", 8, 3))
	done := make(chan error, 1)
	go func() {
		_, err := c.WaitNotify()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let WaitNotify block first
	srv.Update(set2)
	if err := <-done; err != nil {
		t.Fatalf("WaitNotify: %v", err)
	}
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if c.Serial() != 1 {
		t.Errorf("serial = %d, want 1", c.Serial())
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	got := c.Set()
	if got.Validate(netutil.MustPrefix("10.0.0.0/8"), 1) != vrp.NotFound {
		t.Error("withdrawn VRP still present")
	}
	if got.Validate(netutil.MustPrefix("11.0.0.0/8"), 2) != vrp.Valid {
		t.Error("announced VRP missing")
	}
}

func TestClientPollNoChanges(t *testing.T) {
	set := vrp.NewSet()
	set.Add(v("10.0.0.0/8", 8, 1))
	_, addr := startServer(t, set)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d after no-op poll", c.Len())
	}
}

func TestClientFallsBackToResetAfterHistoryLoss(t *testing.T) {
	set := vrp.NewSet()
	srv, addr := startServer(t, set)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	// Push more updates than the server retains.
	for i := 0; i < 20; i++ {
		s := vrp.NewSet()
		s.Add(v("10.0.0.0/8", 8, uint32(i+1)))
		srv.Update(s)
	}
	// Drain notifies so the response stream stays aligned.
	for i := 0; i < 20; i++ {
		if _, err := c.WaitNotify(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if c.Serial() != 20 {
		t.Errorf("serial = %d, want 20", c.Serial())
	}
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

func TestPollBeforeResetDoesFullSync(t *testing.T) {
	set := vrp.NewSet()
	set.Add(v("10.0.0.0/8", 8, 1))
	_, addr := startServer(t, set)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

func TestServerManyVRPs(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	set := vrp.NewSet()
	n := 5000
	for i := 0; i < n; i++ {
		var b [4]byte
		rnd.Read(b[:])
		bits := 8 + rnd.Intn(17)
		p := netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
		set.Add(vrp.VRP{Prefix: p, MaxLength: bits, ASN: uint32(i)})
	}
	want := set.Len()
	_, addr := startServer(t, set)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != want {
		t.Errorf("client VRPs = %d, want %d", c.Len(), want)
	}
}

func BenchmarkPrefixSerialize(b *testing.B) {
	p := &Prefix{Announce: true, VRP: v("193.0.6.0/24", 24, 3333)}
	buf := make([]byte, 0, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = p.SerializeTo(buf[:0])
	}
}

func BenchmarkPrefixDecode(b *testing.B) {
	wire := (&Prefix{Announce: true, VRP: v("193.0.6.0/24", 24, 3333)}).SerializeTo(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}
