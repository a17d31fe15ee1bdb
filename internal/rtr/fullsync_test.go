package rtr

import (
	"net"
	"runtime"
	"slices"
	"testing"
	"weak"

	"ripki/internal/netutil"
	"ripki/internal/rpki/vrp"
)

// rawReply is one scripted answer: bytes written as they are, then
// perhaps a hang-up.
type rawReply struct {
	bytes  []byte
	hangup bool
}

// rawCache is a cache that answers each query it reads with the next
// scripted bytes, whatever they are, and reports the queries it read.
func rawCache(t *testing.T) (addr string, script chan<- rawReply, queries <-chan PDU) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	// Both sized to what one test queues before it reads any back.
	replies, asked := make(chan rawReply, 8), make(chan PDU, 8)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			q, err := ReadPDU(conn)
			if err != nil {
				return
			}
			asked <- q
			r := <-replies
			if _, err := conn.Write(r.bytes); err != nil || r.hangup {
				return
			}
		}
	}()
	return ln.Addr().String(), replies, asked
}

func wire(pdus ...PDU) []byte {
	var buf []byte
	for _, p := range pdus {
		buf = p.SerializeTo(buf)
	}
	return buf
}

func announce(vs ...vrp.VRP) []PDU {
	var out []PDU
	for _, x := range vs {
		out = append(out, &Prefix{Announce: true, VRP: x})
	}
	return out
}

// primed returns a client that has synced a table at serial 1, polled a
// delta to serial 2 and not yet drained its changed-prefix record, so a
// failed sync has a table, a serial and a delta record to damage.
func primed(t *testing.T) (*Client, chan<- rawReply, <-chan PDU) {
	t.Helper()
	addr, script, queries := rawCache(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	full := append([]PDU{&CacheResponse{SessionID: 9}}, announce(
		v("10.0.0.0/8", 8, 1), v("10.0.0.0/8", 16, 2), v("10.1.0.0/16", 16, 1),
		v("192.0.2.0/24", 24, 3), v("2001:db8::/32", 48, 4))...)
	script <- rawReply{bytes: wire(append(full, &EndOfData{SessionID: 9, Serial: 1})...)}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	c.TakeDelta()
	script <- rawReply{bytes: wire(
		&CacheResponse{SessionID: 9},
		&Prefix{Announce: false, VRP: v("10.1.0.0/16", 16, 1)},
		&Prefix{Announce: true, VRP: v("198.51.100.0/24", 24, 5)},
		&EndOfData{SessionID: 9, Serial: 2})}
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	<-queries
	<-queries
	return c, script, queries
}

// TestFailedFullSyncLeavesTheSessionAsItWas: a full response that does
// not reach End of Data must change nothing — not the table, not the
// serial, not the changed-prefix record — and where the connection
// survives, the next Poll asks from the serial the client still holds.
func TestFailedFullSyncLeavesTheSessionAsItWas(t *testing.T) {
	partial := append([]PDU{&CacheResponse{SessionID: 12}}, announce(
		v("10.0.0.0/8", 8, 1), v("172.16.0.0/12", 12, 7), v("2001:db8:1::/48", 48, 8))...)
	record := (&Prefix{Announce: true, VRP: v("203.0.113.0/24", 24, 9)}).SerializeTo(nil)
	otherVersion := append([]byte{1}, wire(&Prefix{Announce: true, VRP: v("203.0.113.0/24", 24, 9)}, &EndOfData{SessionID: 12, Serial: 3})[1:]...)
	cases := []struct {
		name     string
		reply    rawReply
		survives bool
	}{
		{"error report", rawReply{bytes: wire(append(partial, &ErrorReport{Code: ErrInternal, Text: "boom"})...)}, true},
		{"unexpected PDU", rawReply{bytes: wire(append(partial, &SerialQuery{SessionID: 12, Serial: 3})...)}, true},
		{"close mid-record", rawReply{bytes: append(wire(partial...), record[:13]...), hangup: true}, false},
		{"cache reset to a reset query", rawReply{bytes: wire(&CacheReset{})}, true},
		{"record of another protocol version", rawReply{bytes: append(wire(partial...), otherVersion...)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			control, controlScript, _ := primed(t)
			c, script, queries := primed(t)
			view := c.View()
			wantAll, wantSerial := control.View().All(), control.Serial()

			script <- tc.reply
			if err := c.Reset(); err == nil {
				t.Fatal("Reset succeeded on a response that never reached End of Data")
			}
			<-queries
			if got := c.View().All(); !slices.Equal(got, wantAll) {
				t.Errorf("table after the failed sync:\n got %v\nwant %v", got, wantAll)
			}
			if got := view.All(); !slices.Equal(got, wantAll) {
				t.Errorf("a View taken before the failed sync now lists %v, want %v", got, wantAll)
			}
			if c.Serial() != wantSerial || c.Len() != len(wantAll) {
				t.Errorf("Serial, Len = %d, %d; want %d, %d", c.Serial(), c.Len(), wantSerial, len(wantAll))
			}
			if tc.survives {
				// The control makes the same poll, so the two changed-prefix
				// records stay comparable.
				next := rawReply{bytes: wire(
					&CacheResponse{SessionID: 9},
					&Prefix{Announce: true, VRP: v("203.0.113.0/24", 24, 9)},
					&EndOfData{SessionID: 9, Serial: 3})}
				script <- next
				controlScript <- next
				if err := c.Poll(); err != nil {
					t.Fatalf("Poll after the failed sync: %v", err)
				}
				if err := control.Poll(); err != nil {
					t.Fatal(err)
				}
				if q, ok := (<-queries).(*SerialQuery); !ok || q.Serial != wantSerial || q.SessionID != 9 {
					t.Errorf("Poll after the failed sync sent %#v, want a Serial Query from session 9 serial %d", q, wantSerial)
				}
				if got, want := c.View().All(), control.View().All(); !slices.Equal(got, want) {
					t.Errorf("table after the following poll:\n got %v\nwant %v", got, want)
				}
			}
			if got, want := c.TakeDelta(), control.TakeDelta(); !slices.Equal(got, want) {
				t.Errorf("TakeDelta after the failed sync:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestFullSyncIsLenientAndAtomic: inside a full response the last record
// for a triple decides — a repeated announcement counts once, a
// withdrawal cancels what came before it and an announcement after that
// counts again — and a View taken before the sync keeps listing the
// table it was taken from.
func TestFullSyncIsLenientAndAtomic(t *testing.T) {
	c, script, _ := primed(t)
	before := c.View()
	wantBefore := before.All()
	heldBefore := before.Prefixes()
	c.TakeDelta()

	a, b, d := v("10.0.0.0/8", 8, 1), v("172.16.0.0/12", 12, 7), v("2001:db8:1::/48", 48, 8)
	script <- rawReply{bytes: wire(
		&CacheResponse{SessionID: 12},
		&Prefix{Announce: true, VRP: a},
		&Prefix{Announce: true, VRP: a},
		&Prefix{Announce: true, VRP: b},
		&Prefix{Announce: false, VRP: b},
		&Prefix{Announce: true, VRP: b},
		&Prefix{Announce: true, VRP: d},
		&Prefix{Announce: false, VRP: d},
		&Prefix{Announce: false, VRP: v("192.0.2.0/24", 24, 3)},
		&EndOfData{SessionID: 12, Serial: 40})}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.View().All(), []vrp.VRP{a, b}; !slices.Equal(got, want) {
		t.Errorf("table after the sync = %v, want %v", got, want)
	}
	if c.Serial() != 40 || c.Len() != 2 {
		t.Errorf("Serial, Len = %d, %d; want 40, 2", c.Serial(), c.Len())
	}
	if got := before.All(); !slices.Equal(got, wantBefore) {
		t.Errorf("the View taken before the sync now lists %v, want %v", got, wantBefore)
	}
	// Everything held before and everything held after, in order.
	want := append(heldBefore, a.Prefix, b.Prefix)
	slices.SortFunc(want, netutil.ComparePrefixes)
	want = slices.Compact(want)
	if got := c.TakeDelta(); !slices.Equal(got, want) {
		t.Errorf("TakeDelta after the sync = %v, want %v", got, want)
	}
	if got := c.TakeDelta(); len(got) != 0 {
		t.Errorf("second TakeDelta = %v, want nothing", got)
	}
}

// TestCacheResetReleasesTheReplacedTable: nothing in the client holds
// the table a mid-session Cache Reset replaced — the changed-prefix
// record keeps its prefixes, not the table — so once the delta is
// drained a collection frees it.
func TestCacheResetReleasesTheReplacedTable(t *testing.T) {
	c, script, _ := primed(t)
	c.TakeDelta()
	replaced := weak.Make(c.View())
	script <- rawReply{bytes: wire(&CacheReset{})}
	script <- rawReply{bytes: wire(append(append([]PDU{&CacheResponse{SessionID: 10}},
		announce(v("10.0.0.0/8", 8, 1), v("203.0.113.0/24", 24, 6))...),
		&EndOfData{SessionID: 10, Serial: 1})...)}
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if c.Resets() != 2 {
		t.Fatalf("%d full syncs, want the first and the Cache Reset's", c.Resets())
	}
	// Held before: 10/8, 192.0.2/24, 198.51.100/24, 2001:db8::/32.
	if n := len(c.TakeDelta()); n != 5 {
		t.Errorf("TakeDelta lists %d prefixes, want the 5 held before or after", n)
	}
	runtime.GC()
	if replaced.Value() != nil {
		t.Error("the replaced table is still reachable after the drain")
	}
}
