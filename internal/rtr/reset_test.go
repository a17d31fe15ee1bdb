package rtr

import (
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"testing"

	"ripki/internal/rpki/vrp"
)

// generatedSet is a seeded table of n distinct VRPs shaped like a
// validator's export: six in seven IPv4 at /12../24, the rest IPv6 at
// /32../48, several payloads at some prefixes.
func generatedSet(t testing.TB, n int) *vrp.Set {
	t.Helper()
	rnd := rand.New(rand.NewSource(1))
	seen := make(map[vrp.VRP]bool, n)
	vs := make([]vrp.VRP, 0, n)
	for len(vs) < n {
		v := vrp.VRP{ASN: uint32(64500 + rnd.Intn(40000))}
		if rnd.Intn(7) == 0 {
			bits := 32 + 4*rnd.Intn(5)
			a := [16]byte{0x20, byte(rnd.Intn(16)), byte(rnd.Intn(256)), byte(rnd.Intn(256)), byte(rnd.Intn(256)), byte(rnd.Intn(256))}
			v.Prefix = netip.PrefixFrom(netip.AddrFrom16(a), bits).Masked()
			v.MaxLength = bits + rnd.Intn(3)
		} else {
			bits := 12 + rnd.Intn(13)
			a := [4]byte{byte(1 + rnd.Intn(222)), byte(rnd.Intn(256)), byte(rnd.Intn(256)), 0}
			v.Prefix = netip.PrefixFrom(netip.AddrFrom4(a), bits).Masked()
			v.MaxLength = bits + rnd.Intn(25-bits)
		}
		if !seen[v] {
			seen[v] = true
			vs = append(vs, v)
		}
	}
	set, err := vrp.FromVRPs(vs)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// servedSet serves set from an in-process cache on loopback.
func servedSet(t testing.TB, set *vrp.Set) (addr string) {
	t.Helper()
	srv := NewServer(set, 3)
	srv.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// fullSync is one router start: dial, full sync, drain the changed
// prefixes.
func fullSync(t testing.TB, addr string, want int) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != want {
		t.Fatalf("synced %d VRPs, cache serves %d", c.Len(), want)
	}
	if delta := c.TakeDelta(); len(delta) == 0 {
		t.Fatal("a first sync reports no changed prefix")
	}
}

// TestFullSyncAllocationBound holds a full sync to the allocations its
// result needs: a tree node per prefix and per branch, not a boxed PDU,
// a slice and a map entry per record. Counted process-wide, so the
// cache's side of the exchange (one All, one reply buffer) is in it;
// the per-record client made 3.7 allocations a VRP.
func TestFullSyncAllocationBound(t *testing.T) {
	const n = 50000
	addr := servedSet(t, generatedSet(t, n))
	fullSync(t, addr, n) // connection set-up paths warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fullSync(t, addr, n)
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > 5*n/2 {
		t.Errorf("a %d-VRP full sync made %d allocations, want fewer than %d (2.5 a VRP)", n, got, 5*n/2)
	} else {
		t.Logf("%d-VRP full sync: %d allocations (%.2f a VRP)", n, got, float64(got)/n)
	}
}

// BenchmarkClientReset: a router's start against a 300 000-VRP cache,
// over loopback — dial, full sync, and the changed-prefix list a
// revalidation would ask for.
func BenchmarkClientReset(b *testing.B) {
	const n = 300000
	addr := servedSet(b, generatedSet(b, n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fullSync(b, addr, n)
	}
}
