package rtr

import (
	"math/rand"
	"net"
	"net/netip"
	"slices"
	"testing"
	"time"

	"ripki/internal/netutil"
	"ripki/internal/rpki/vrp"
)

// recordsOracle is the client's record keeping as it was when the
// client mirrored its vrp.Set in a map of every VRP held: membership
// from the map, Len its size, a full resync marking every key.
type recordsOracle struct {
	records map[vrp.VRP]bool
	changed map[netip.Prefix]struct{}
}

func newRecordsOracle() *recordsOracle {
	return &recordsOracle{records: map[vrp.VRP]bool{}, changed: map[netip.Prefix]struct{}{}}
}

// apply folds one cache response into the oracle; full says it answered
// a reset query.
func (o *recordsOracle) apply(full bool, pdus []PDU) {
	for _, pdu := range pdus {
		switch p := pdu.(type) {
		case *CacheResponse:
			if full {
				for v := range o.records {
					o.changed[v.Prefix] = struct{}{}
				}
				o.records = map[vrp.VRP]bool{}
			}
		case *Prefix:
			if p.Announce {
				if !o.records[p.VRP] {
					o.records[p.VRP] = true
					o.changed[p.VRP.Prefix] = struct{}{}
				}
			} else if o.records[p.VRP] {
				delete(o.records, p.VRP)
				o.changed[p.VRP.Prefix] = struct{}{}
			}
		}
	}
}

func (o *recordsOracle) all() []vrp.VRP {
	out := make([]vrp.VRP, 0, len(o.records))
	for v := range o.records {
		out = append(out, v)
	}
	slices.SortFunc(out, vrp.Compare)
	return out
}

func (o *recordsOracle) takeDelta() []netip.Prefix {
	if len(o.changed) == 0 {
		return nil
	}
	out := make([]netip.Prefix, 0, len(o.changed))
	for p := range o.changed {
		out = append(out, p)
	}
	clear(o.changed)
	slices.SortFunc(out, netutil.ComparePrefixes)
	return out
}

// scriptedCache answers each query it reads with the next scripted
// response, whatever the query was.
func scriptedCache(t *testing.T) (addr string, script chan<- []PDU) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	// Sized to the most responses one client call consumes: a Cache
	// Reset and the full response that follows it.
	responses := make(chan []PDU, 2)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			if _, err := ReadPDU(conn); err != nil {
				return
			}
			var buf []byte
			for _, pdu := range <-responses {
				buf = pdu.SerializeTo(buf)
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), responses
}

// TestClientStateMatchesRecordsOracle drives clients through seeded
// sequences of full syncs, random incremental responses and Cache Reset
// fallbacks, the incremental responses salted with duplicate
// announcements and withdrawals of VRPs not held, the full ones with
// repeats, several VRPs to a prefix. After each sync Len, Set, View and
// (at random intervals, so that marks accumulate across polls and across
// one or several full syncs) TakeDelta must equal what the records-map
// bookkeeping gives — its map-and-sort takeDelta is the body the
// client's had — and every Set handed out earlier must still read as it
// did.
func TestClientStateMatchesRecordsOracle(t *testing.T) {
	universe := make([]vrp.VRP, 0, 240)
	for i := 0; i < 60; i++ {
		bits := 12 + i%3*6
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i * 3), byte(i * 16), 0}), bits).Masked()
		if i%5 == 0 {
			p = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(i)}), 40).Masked()
		}
		for k := 0; k < 4; k++ {
			universe = append(universe, vrp.VRP{Prefix: p, MaxLength: p.Bits() + k%2, ASN: uint32(64500 + k/2)})
		}
	}
	for seed := int64(23); seed < 29; seed++ {
		clientAgainstOracle(t, rand.New(rand.NewSource(seed)), universe)
	}
}

func clientAgainstOracle(t *testing.T, rnd *rand.Rand, universe []vrp.VRP) {
	addr, script := scriptedCache(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oracle := newRecordsOracle()

	var serial uint32
	// response builds one cache response of n random records over the
	// universe: announce or withdraw drawn blind, so duplicates and
	// withdrawals of absent VRPs come up by themselves.
	response := func(n int, announceOnly bool) []PDU {
		serial++
		pdus := []PDU{&CacheResponse{SessionID: 5}}
		for i := 0; i < n; i++ {
			pdus = append(pdus, &Prefix{
				Announce: announceOnly || rnd.Intn(5) < 3,
				VRP:      universe[rnd.Intn(len(universe))],
			})
		}
		return append(pdus, &EndOfData{SessionID: 5, Serial: serial})
	}

	type handedOut struct {
		set  *vrp.Set
		want []vrp.VRP
	}
	var earlier []handedOut
	check := func(step string) {
		t.Helper()
		want := oracle.all()
		if c.Len() != len(want) {
			t.Fatalf("%s: Len = %d, oracle holds %d", step, c.Len(), len(want))
		}
		if c.Serial() != serial {
			t.Fatalf("%s: Serial = %d, cache sent %d", step, c.Serial(), serial)
		}
		set := c.Set()
		if got := set.All(); !slices.Equal(got, want) {
			t.Fatalf("%s: Set = %v, oracle %v", step, got, want)
		}
		if got := c.View().All(); !slices.Equal(got, want) {
			t.Fatalf("%s: View = %v, oracle %v", step, got, want)
		}
		if rnd.Intn(3) == 0 {
			if got, want := c.TakeDelta(), oracle.takeDelta(); !slices.Equal(got, want) {
				t.Fatalf("%s: TakeDelta = %v, oracle %v", step, got, want)
			}
		}
		for _, h := range earlier {
			if got := h.set.All(); !slices.Equal(got, h.want) {
				t.Fatalf("%s: a Set handed out earlier now reads %v, was %v", step, got, h.want)
			}
		}
		earlier = append(earlier, handedOut{set: set, want: want})
	}

	resets := 0
	for i := 0; i < 70; i++ {
		switch pick := rnd.Intn(10); {
		case i == 0 || pick == 0:
			full := response(rnd.Intn(150), true)
			script <- full
			oracle.apply(true, full)
			if err := c.Reset(); err != nil {
				t.Fatal(err)
			}
			resets++
			check("reset")
		case pick == 1:
			// The cache lost its history: Cache Reset, then the client's
			// own reset query gets a different full set.
			full := response(rnd.Intn(150), true)
			script <- []PDU{&CacheReset{}}
			script <- full
			oracle.apply(true, full)
			if err := c.Poll(); err != nil {
				t.Fatal(err)
			}
			resets++
			check("cache reset fallback")
		default:
			delta := response(1+rnd.Intn(30), false)
			script <- delta
			oracle.apply(false, delta)
			if err := c.Poll(); err != nil {
				t.Fatal(err)
			}
			check("poll")
		}
	}
	if got := c.Resets(); got != resets {
		t.Fatalf("Resets = %d after %d full syncs", got, resets)
	}
	if got, want := c.TakeDelta(), oracle.takeDelta(); !slices.Equal(got, want) {
		t.Fatalf("final TakeDelta = %v, oracle %v", got, want)
	}
}

// TestNotifyOvertakingResponseIsNotLost: the cache bumps its serial and
// writes the notify from one goroutine while another is still writing
// the response to a query it read at the old serial, so the notify can
// arrive first. The client must not swallow it — nothing else will ever
// announce that serial — so the next WaitNotify returns at once.
func TestNotifyOvertakingResponseIsNotLost(t *testing.T) {
	addr, script := scriptedCache(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	script <- []PDU{
		&CacheResponse{SessionID: 5},
		&Prefix{Announce: true, VRP: v("10.0.0.0/8", 8, 1)},
		&EndOfData{SessionID: 5, Serial: 1},
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	// A notify the response catches up with is spent; one it does not
	// reach is owed.
	script <- []PDU{
		&SerialNotify{SessionID: 5, Serial: 2},
		&CacheResponse{SessionID: 5},
		&Prefix{Announce: true, VRP: v("11.0.0.0/8", 8, 2)},
		&EndOfData{SessionID: 5, Serial: 2},
	}
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	script <- []PDU{
		&SerialNotify{SessionID: 5, Serial: 4},
		&CacheResponse{SessionID: 5},
		&Prefix{Announce: true, VRP: v("12.0.0.0/8", 8, 3)},
		&EndOfData{SessionID: 5, Serial: 3},
	}
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	serial, err := c.WaitNotify()
	if err != nil || serial != 4 {
		t.Fatalf("WaitNotify = %d, %v; the notify for serial 4 arrived before the response ending at 3", serial, err)
	}
	// It is handed over once: the next wait blocks on the wire again.
	c.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if serial, err := c.WaitNotify(); err == nil {
		t.Fatalf("second WaitNotify returned %d without a notify on the wire", serial)
	}
}
