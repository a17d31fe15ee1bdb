package dns

import (
	"math/rand"
	"net"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestCanonicalName(t *testing.T) {
	cases := map[string]string{
		"Example.COM":  "example.com",
		"example.com.": "example.com",
		"":             ".",
		".":            ".",
		"WWW.Foo.Bar.": "www.foo.bar",
	}
	for in, want := range cases {
		if got := CanonicalName(in); got != want {
			t.Errorf("CanonicalName(%q) = %q, want %q", in, got, want)
		}
	}
}

func sampleMessage() *Message {
	return &Message{
		Header: Header{ID: 0x1234, Response: true, Authoritative: true, RecursionDesired: true, RecursionAvailable: true},
		Questions: []Question{
			{Name: "www.example.com", Type: TypeA, Class: ClassINET},
		},
		Answers: []RR{
			{Name: "www.example.com", Type: TypeCNAME, Class: ClassINET, TTL: 300, Target: "www.example.com.edgekey.net"},
			{Name: "www.example.com.edgekey.net", Type: TypeCNAME, Class: ClassINET, TTL: 300, Target: "e1234.a.cdn.net"},
			{Name: "e1234.a.cdn.net", Type: TypeA, Class: ClassINET, TTL: 20, Addr: netip.MustParseAddr("203.0.113.77")},
			{Name: "e1234.a.cdn.net", Type: TypeAAAA, Class: ClassINET, TTL: 20, Addr: netip.MustParseAddr("2001:db8::77")},
		},
		Authority: []RR{
			{Name: "cdn.net", Type: TypeSOA, Class: ClassINET, TTL: 900, Data: &RData{SOA: &SOAData{
				MName: "ns1.cdn.net", RName: "hostmaster.cdn.net",
				Serial: 2015070101, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 300,
			}}},
		},
		Additional: []RR{
			{Name: "cdn.net", Type: TypeTXT, Class: ClassINET, TTL: 60, Data: &RData{TXT: []string{"v=spf1 -all", "x"}}},
			{Name: "cdn.net", Type: TypeNS, Class: ClassINET, TTL: 60, Target: "ns1.cdn.net"},
		},
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if got.Header != m.Header {
		t.Errorf("header: %+v vs %+v", got.Header, m.Header)
	}
	if !reflect.DeepEqual(got.Questions, m.Questions) {
		t.Errorf("questions: %+v vs %+v", got.Questions, m.Questions)
	}
	if len(got.Answers) != len(m.Answers) {
		t.Fatalf("answers: %d vs %d", len(got.Answers), len(m.Answers))
	}
	for i := range m.Answers {
		w, g := m.Answers[i], got.Answers[i]
		if g.Name != CanonicalName(w.Name) || g.Type != w.Type || g.TTL != w.TTL {
			t.Errorf("answer %d header mismatch: %+v vs %+v", i, g, w)
		}
		if w.Type == TypeCNAME && g.Target != CanonicalName(w.Target) {
			t.Errorf("answer %d target = %q", i, g.Target)
		}
		if (w.Type == TypeA || w.Type == TypeAAAA) && g.Addr != w.Addr {
			t.Errorf("answer %d addr = %v", i, g.Addr)
		}
	}
	if !reflect.DeepEqual(got.Authority[0].Data, m.Authority[0].Data) {
		t.Errorf("SOA: %+v vs %+v", got.Authority[0].Data.SOA, m.Authority[0].Data.SOA)
	}
	if !reflect.DeepEqual(got.Additional[0].Data, m.Additional[0].Data) {
		t.Errorf("TXT: %v vs %v", got.Additional[0].Data.TXT, m.Additional[0].Data.TXT)
	}
	if got.Additional[1].Target != "ns1.cdn.net" {
		t.Errorf("NS target = %q", got.Additional[1].Target)
	}
}

func TestCompressionSavesSpace(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Names repeat heavily in this message, so the encoder must emit
	// compression pointers (0xC0-prefixed 2-byte references).
	pointers := 0
	for i := 0; i+1 < len(wire); i++ {
		if wire[i]&0xC0 == 0xC0 {
			pointers++
		}
	}
	if pointers < 3 {
		t.Errorf("only %d compression pointers in %d-byte message", pointers, len(wire))
	}
	// And the compressed form must be meaningfully smaller than the sum
	// of full name encodings.
	var rawNames int
	for _, rr := range append(append(append([]RR{}, m.Answers...), m.Authority...), m.Additional...) {
		rawNames += len(rr.Name) + 2
	}
	if len(wire) >= 12+rawNames+120 {
		t.Errorf("message is %d bytes; compression appears ineffective", len(wire))
	}
}

func TestPackRejectsBadNames(t *testing.T) {
	long := strings.Repeat("a", 64)
	if _, err := (&Message{Questions: []Question{{Name: long + ".com", Type: TypeA, Class: ClassINET}}}).Pack(); err == nil {
		t.Error("63+ byte label accepted")
	}
	huge := strings.Repeat("abc.", 80) + "com"
	if _, err := (&Message{Questions: []Question{{Name: huge, Type: TypeA, Class: ClassINET}}}).Pack(); err == nil {
		t.Error("over-long name accepted")
	}
}

func TestPackRejectsWrongFamilies(t *testing.T) {
	if _, err := (&Message{Answers: []RR{{Name: "a.b", Type: TypeA, Class: ClassINET, Addr: netip.MustParseAddr("2001:db8::1")}}}).Pack(); err == nil {
		t.Error("A record with IPv6 address accepted")
	}
	if _, err := (&Message{Answers: []RR{{Name: "a.b", Type: TypeAAAA, Class: ClassINET, Addr: netip.MustParseAddr("10.0.0.1")}}}).Pack(); err == nil {
		t.Error("AAAA record with IPv4 address accepted")
	}
}

func TestUnpackRejectsCorruption(t *testing.T) {
	wire, _ := sampleMessage().Pack()
	for i := 0; i < len(wire); i += 2 {
		var m Message
		m.Unpack(wire[:i]) // must not panic
	}
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		mut := append([]byte(nil), wire...)
		for j := 0; j < 1+rnd.Intn(4); j++ {
			mut[rnd.Intn(len(mut))] ^= byte(1 << rnd.Intn(8))
		}
		var m Message
		m.Unpack(mut) // must not panic
	}
}

func TestUnpackRejectsPointerLoops(t *testing.T) {
	// Craft a message whose QNAME points at itself.
	raw := make([]byte, 16)
	raw[4], raw[5] = 0, 1 // QDCOUNT = 1
	raw[12], raw[13] = 0xC0, 0x0C
	var m Message
	if err := m.Unpack(raw); err == nil {
		t.Error("self-referential compression pointer accepted")
	}
}

// AddCNAME is shorthand for a CNAME record, for the tests that write
// registries by hand.
func (r *Registry) AddCNAME(name, target string, ttl uint32) {
	r.Add(RR{Name: name, Type: TypeCNAME, TTL: ttl, Target: target})
}

func newWorld() *Registry {
	reg := NewRegistry()
	reg.Add(RR{Name: "example.com", Type: TypeA, TTL: 60, Addr: netip.MustParseAddr("198.51.100.10")})
	reg.AddCNAME("www.example.com", "www.example.com.edgekey.net", 300)
	reg.AddCNAME("www.example.com.edgekey.net", "e1234.a.cdn.net", 300)
	reg.Add(RR{Name: "e1234.a.cdn.net", Type: TypeA, TTL: 20, Addr: netip.MustParseAddr("203.0.113.77")})
	reg.Add(RR{Name: "e1234.a.cdn.net", Type: TypeAAAA, TTL: 20, Addr: netip.MustParseAddr("2001:db8::77")})
	reg.AddCNAME("dangling.example.com", "gone.example.net", 60)
	reg.AddCNAME("loop-a.example.com", "loop-b.example.com", 60)
	reg.AddCNAME("loop-b.example.com", "loop-a.example.com", 60)
	return reg
}

func TestRegistryResolve(t *testing.T) {
	reg := newWorld()
	ans, rcode := reg.Resolve("www.example.com", TypeA)
	if rcode != RCodeSuccess {
		t.Fatalf("rcode = %d", rcode)
	}
	var cnames, as int
	for _, rr := range ans {
		switch rr.Type {
		case TypeCNAME:
			cnames++
		case TypeA:
			as++
		}
	}
	if cnames != 2 || as != 1 {
		t.Fatalf("answer shape: %d CNAME, %d A (%v)", cnames, as, ans)
	}
	if _, rcode := reg.Resolve("nosuch.example.com", TypeA); rcode != RCodeNameError {
		t.Errorf("missing name rcode = %d, want NXDOMAIN", rcode)
	}
	// NODATA: name exists, type does not.
	ans, rcode = reg.Resolve("example.com", TypeAAAA)
	if rcode != RCodeSuccess || len(ans) != 0 {
		t.Errorf("NODATA = %v, %d", ans, rcode)
	}
	// Dangling CNAME yields the chain with no terminal records.
	ans, rcode = reg.Resolve("dangling.example.com", TypeA)
	if rcode != RCodeSuccess || len(ans) != 1 || ans[0].Type != TypeCNAME {
		t.Errorf("dangling = %v, %d", ans, rcode)
	}
	// Loop terminates.
	ans, _ = reg.Resolve("loop-a.example.com", TypeA)
	if len(ans) > maxChase {
		t.Errorf("loop produced %d answers", len(ans))
	}
}

func TestRegistryResolverLookupWeb(t *testing.T) {
	reg := newWorld()
	res, err := RegistryResolver{Registry: reg}.LookupWeb("www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if res.CNAMECount() != 2 {
		t.Errorf("CNAMECount = %d, want 2", res.CNAMECount())
	}
	if len(res.Addrs) != 2 {
		t.Errorf("Addrs = %v", res.Addrs)
	}
	if res.NXDomain {
		t.Error("NXDomain set")
	}
	res, err = RegistryResolver{Registry: reg}.LookupWeb("nosuch.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if !res.NXDomain {
		t.Error("NXDomain not set for missing name")
	}
}

func startServer(t *testing.T, h Handler) string {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h)
	srv.Logf = t.Logf
	go srv.Serve(conn)
	t.Cleanup(func() { srv.Close() })
	return conn.LocalAddr().String()
}

// exchange sends q to the server at addr as a hand-built query through
// the Message codec and returns the server's response.
func exchange(t *testing.T, addr string, q Question) *Message {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := Message{Header: Header{ID: 0x5eed, RecursionDesired: true}, Questions: []Question{q}}
	wire, err := req.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, maxMessageLen)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("query %q type %d: %v", q.Name, q.Type, err)
	}
	var resp Message
	if err := resp.Unpack(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Response || resp.Header.ID != req.Header.ID {
		t.Fatalf("reply header %+v to query id %#x", resp.Header, req.Header.ID)
	}
	return &resp
}

func TestClientServerExchange(t *testing.T) {
	reg := newWorld()
	addr := startServer(t, reg)

	resp := exchange(t, addr, Question{Name: "www.example.com", Type: TypeA, Class: ClassINET})
	if resp.Header.RCode != RCodeSuccess || len(resp.Answers) != 3 {
		t.Fatalf("response: rcode=%d answers=%v", resp.Header.RCode, resp.Answers)
	}

	overUDP := func(q Question) ([]RR, uint8, error) {
		resp := exchange(t, addr, q)
		return resp.Answers, resp.Header.RCode, nil
	}
	res, err := lookupWeb("www.example.com", overUDP)
	if err != nil {
		t.Fatal(err)
	}
	if res.CNAMECount() != 2 || len(res.Addrs) != 2 {
		t.Errorf("LookupWeb over UDP: %+v", res)
	}

	res, err = lookupWeb("example.com", overUDP)
	if err != nil {
		t.Fatal(err)
	}
	if res.CNAMECount() != 0 || len(res.Addrs) != 1 || res.Addrs[0] != netip.MustParseAddr("198.51.100.10") {
		t.Errorf("apex LookupWeb: %+v", res)
	}
}

func TestServerIgnoresGarbageAndResponses(t *testing.T) {
	reg := newWorld()
	addr := startServer(t, reg)
	raw, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.Write([]byte{1, 2, 3})
	// A response message must be dropped, not answered.
	m := Message{Header: Header{ID: 1, Response: true}, Questions: []Question{{Name: "a.b", Type: TypeA, Class: ClassINET}}}
	wire, _ := m.Pack()
	raw.Write(wire)
	raw.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 512)
	if n, _ := raw.Read(buf); n > 0 {
		t.Error("server answered garbage or response datagram")
	}
	// Server still works afterwards.
	if resp := exchange(t, addr, Question{Name: "example.com", Type: TypeA, Class: ClassINET}); resp.Header.RCode != RCodeSuccess {
		t.Fatalf("server after garbage: rcode %d", resp.Header.RCode)
	}
}

func TestRegistryAccessors(t *testing.T) {
	reg := newWorld()
	if len(reg.Lookup("example.com", TypeA)) == 0 || len(reg.Lookup("zzz", TypeA)) != 0 {
		t.Error("Lookup wrong")
	}
	if reg.Len() == 0 {
		t.Error("Len = 0")
	}
	names := reg.Names()
	if len(names) != reg.Len() {
		t.Error("Names length mismatch")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("Names not sorted")
		}
	}
	if got := reg.Lookup("e1234.a.cdn.net", TypeA); len(got) != 1 {
		t.Errorf("Lookup = %v", got)
	}
}

// Property: pack/unpack round-trips random A-record messages.
func TestPackUnpackRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	labels := []string{"a", "bb", "ccc", "www", "cdn", "example", "net", "org"}
	randomName := func() string {
		n := 2 + rnd.Intn(3)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = labels[rnd.Intn(len(labels))]
		}
		return strings.Join(parts, ".")
	}
	for i := 0; i < 500; i++ {
		m := &Message{
			Header:    Header{ID: uint16(rnd.Intn(1 << 16)), Response: rnd.Intn(2) == 0},
			Questions: []Question{{Name: randomName(), Type: TypeA, Class: ClassINET}},
		}
		n := rnd.Intn(6)
		for j := 0; j < n; j++ {
			var b [4]byte
			rnd.Read(b[:])
			m.Answers = append(m.Answers, RR{
				Name: randomName(), Type: TypeA, Class: ClassINET,
				TTL: uint32(rnd.Intn(100000)), Addr: netip.AddrFrom4(b),
			})
		}
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		var got Message
		if err := got.Unpack(wire); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if len(got.Answers) != len(m.Answers) {
			t.Fatalf("iteration %d: answers %d vs %d", i, len(got.Answers), len(m.Answers))
		}
		for j := range m.Answers {
			if got.Answers[j].Addr != m.Answers[j].Addr || got.Answers[j].Name != CanonicalName(m.Answers[j].Name) {
				t.Fatalf("iteration %d answer %d mismatch", i, j)
			}
		}
	}
}

func BenchmarkPack(b *testing.B) {
	m := sampleMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpack(b *testing.B) {
	wire, _ := sampleMessage().Pack()
	var m Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegistryResolve(b *testing.B) {
	reg := newWorld()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.Resolve("www.example.com", TypeA)
	}
}

func TestRegistryRemove(t *testing.T) {
	r := NewRegistry()
	r.Add(RR{Name: "Cache.CDN.wld", Type: TypeA, TTL: 20, Addr: netip.MustParseAddr("192.0.2.1")})
	r.Add(RR{Name: "cache.cdn.wld", Type: TypeA, TTL: 20, Addr: netip.MustParseAddr("192.0.2.2")})
	r.Add(RR{Name: "cache.cdn.wld", Type: TypeAAAA, TTL: 20, Addr: netip.MustParseAddr("2001:db8::1")})

	if got := r.Remove("CACHE.cdn.wld", TypeA); got != 2 {
		t.Errorf("Remove A = %d, want 2", got)
	}
	if rrs := r.Lookup("cache.cdn.wld", TypeA); len(rrs) != 0 {
		t.Errorf("A records survived: %v", rrs)
	}
	if rrs := r.Lookup("cache.cdn.wld", TypeAAAA); len(rrs) != 1 {
		t.Errorf("AAAA records lost: %v", rrs)
	}
	if got := r.Remove("cache.cdn.wld", TypeAAAA); got != 1 {
		t.Errorf("Remove AAAA = %d, want 1", got)
	}
	if names := r.Names(); len(names) != 0 {
		t.Errorf("owner name survived removing its last record: %v", names)
	}
	if got := r.Remove("never.was.here", TypeA); got != 0 {
		t.Errorf("Remove on missing name = %d, want 0", got)
	}
}

// Every field added to RR regrows every record of every world: a
// generated registry holds about 2.26 records per domain, all of them
// copied by its chunks, overlays and Clone. A payload that few records
// carry belongs behind RR.Data.
func TestRRSize(t *testing.T) {
	if got := unsafe.Sizeof(RR{}); got != 72 {
		t.Errorf("unsafe.Sizeof(RR{}) = %d, want 72", got)
	}
}

// canonicalNames rewrites every name in m as Pack writes it.
func canonicalNames(m *Message) {
	for i := range m.Questions {
		m.Questions[i].Name = CanonicalName(m.Questions[i].Name)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			rr := &sec[i]
			rr.Name = CanonicalName(rr.Name)
			if rr.Type == TypeCNAME || rr.Type == TypeNS {
				rr.Target = CanonicalName(rr.Target)
			}
			if rr.Data != nil && rr.Data.SOA != nil {
				rr.Data.SOA.MName = CanonicalName(rr.Data.SOA.MName)
				rr.Data.SOA.RName = CanonicalName(rr.Data.SOA.RName)
			}
		}
	}
}

// FuzzMessage holds the codec every query to a dns.Server goes through
// to three things: no input panics; a message that decodes and encodes
// again decodes to what it was, names written canonically (lower case,
// no trailing dot), as Pack writes them; and decoding allocates in
// proportion to the bytes read, whatever counts the header promises.
// The seeds are queries and answers from a 200-domain world.
func FuzzMessage(f *testing.F) {
	f.Add(make([]byte, 12))
	f.Add([]byte{0, 1, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // 65 535 of everything
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})       // and no question before them
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var m Message
		err := m.Unpack(data)
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(4096+128*len(data)); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, more than %d", len(data), alloc, bound)
		}
		if err != nil {
			return
		}
		wire, err := m.Pack()
		if err != nil {
			return
		}
		var back Message
		if err := back.Unpack(wire); err != nil {
			t.Fatalf("Unpack rejects Pack's output: %v\n%x", err, wire)
		}
		canonicalNames(&m)
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip moved the message\nfirst: %+v\nagain: %+v", m, back)
		}
	})
}
