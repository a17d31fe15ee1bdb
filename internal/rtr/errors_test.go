package rtr

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"ripki/internal/netutil"
	"ripki/internal/rpki/vrp"
)

// TestServerRejectsUnsupportedPDU checks the cache answers a stray
// Cache Response (a server-role PDU) with an Error Report and keeps the
// session alive.
func TestServerRejectsUnsupportedPDU(t *testing.T) {
	set := vrp.NewSet()
	set.Add(v("10.0.0.0/8", 8, 1))
	_, addr := startServer(t, set)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WritePDU(conn, &CacheResponse{SessionID: 9}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	pdu, err := ReadPDU(conn)
	if err != nil {
		t.Fatal(err)
	}
	er, ok := pdu.(*ErrorReport)
	if !ok {
		t.Fatalf("expected ErrorReport, got %T", pdu)
	}
	if er.Code != ErrUnsupportedPDU {
		t.Errorf("error code = %d", er.Code)
	}
	if er.Error() == "" {
		t.Error("empty error text rendering")
	}
	// Session still serves a proper query afterwards.
	if err := WritePDU(conn, &ResetQuery{}); err != nil {
		t.Fatal(err)
	}
	pdu, err = ReadPDU(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pdu.(*CacheResponse); !ok {
		t.Fatalf("expected CacheResponse after error, got %T", pdu)
	}
}

// TestServerSessionMismatchTriggersCacheReset checks a serial query
// with a stale session ID is answered with Cache Reset.
func TestServerSessionMismatchTriggersCacheReset(t *testing.T) {
	set := vrp.NewSet()
	_, addr := startServer(t, set) // session 911
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WritePDU(conn, &SerialQuery{SessionID: 1, Serial: 0}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	pdu, err := ReadPDU(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pdu.(*CacheReset); !ok {
		t.Fatalf("expected CacheReset, got %T", pdu)
	}
}

// TestClientErrorReportSurfaces checks a cache-side error report aborts
// the sync with the report as the error.
func TestClientErrorReportSurfaces(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := ReadPDU(conn); err != nil { // consume the reset query
			return
		}
		WritePDU(conn, &ErrorReport{Code: ErrInternal, Text: "cache exploded"})
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Reset()
	if err == nil {
		t.Fatal("Reset succeeded despite error report")
	}
	er, ok := err.(*ErrorReport)
	if !ok || er.Code != ErrInternal {
		t.Fatalf("error = %v", err)
	}
}

// TestClientRejectsCacheResetToResetQuery: answering a reset query with
// Cache Reset is a protocol violation the client must flag.
func TestClientRejectsCacheResetToResetQuery(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := ReadPDU(conn); err != nil {
			return
		}
		WritePDU(conn, &CacheReset{})
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Reset(); err == nil {
		t.Fatal("Reset accepted a CacheReset answer")
	}
}

// TestServerCloseDisconnectsClients checks Close tears sessions down.
func TestServerCloseDisconnectsClients(t *testing.T) {
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
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitNotify(); err == nil {
		t.Error("WaitNotify survived server shutdown")
	}
	// Serving again on a closed server fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := srv.Serve(ln); err == nil {
		t.Error("Serve on closed server succeeded")
	}
}

// TestServeAfterCloseClosesListener: a listener handed to a closed
// server is closed, not left accepting connections nobody serves.
func TestServeAfterCloseClosesListener(t *testing.T) {
	srv := NewServer(vrp.NewSet(), 1)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Bounds the Accept below when the listener is left open.
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(time.Second))
	if err := srv.Serve(ln); err == nil {
		t.Error("Serve on closed server succeeded")
	}
	if conn, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		if conn != nil {
			conn.Close()
		}
		t.Errorf("Accept after Serve on a closed server: %v, want net.ErrClosed", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("Dial to closed port succeeded")
	}
}

func TestServerSerialAccessor(t *testing.T) {
	srv := NewServer(nil, 1)
	if srv.Serial() != 0 {
		t.Error("initial serial != 0")
	}
	s2 := vrp.NewSet()
	s2.Add(vrp.VRP{Prefix: netutil.MustPrefix("10.0.0.0/8"), MaxLength: 8, ASN: 5})
	srv.Update(s2)
	if srv.Serial() != 1 {
		t.Error("serial after update != 1")
	}
}

// TestServerLogsEveryFailedReply: each of a Serial Query's three answers
// (Cache Reset on a session mismatch, Cache Reset on lost history, the
// empty End of Data that confirms a serial) reports a failed write, as
// the full and delta replies do.
func TestServerLogsEveryFailedReply(t *testing.T) {
	srv := NewServer(nil, 7)
	for i := 0; i < 20; i++ { // serial 20; deltas from serials below 4 are gone
		srv.UpdateDelta([]vrp.VRP{churnVRP(i)}, nil)
	}
	var logged []string
	srv.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	dead, peer := net.Pipe()
	peer.Close()
	for _, c := range []struct {
		q    SerialQuery
		want string
	}{
		{SerialQuery{SessionID: 8, Serial: 20}, "send cache reset"},
		{SerialQuery{SessionID: 7, Serial: 1}, "send cache reset"},
		{SerialQuery{SessionID: 7, Serial: 20}, "send incremental"},
	} {
		logged = nil
		srv.sendIncremental(dead, &c.q)
		if len(logged) != 1 || !strings.Contains(logged[0], c.want) {
			t.Errorf("query %+v on a dead connection logged %q, want one line naming %q", c.q, logged, c.want)
		}
	}
}

// TestServerNeverWritesTheCallersSet: the sets handed to NewServer and
// Update stay the caller's — deltas applied to the cache do not reach
// them, and the caller's later edits do not reach the cache.
func TestServerNeverWritesTheCallersSet(t *testing.T) {
	first, second := churnSet(t, 0, 10), churnSet(t, 0, 12)
	srv := NewServer(first, 1)
	srv.UpdateDelta([]vrp.VRP{churnVRP(50)}, []vrp.VRP{churnVRP(3)})
	if want := churnSet(t, 0, 10).All(); !slices.Equal(first.All(), want) {
		t.Errorf("set handed to NewServer now holds %v", first.All())
	}
	srv.Update(second)
	srv.UpdateDelta([]vrp.VRP{churnVRP(51)}, []vrp.VRP{churnVRP(4)})
	if want := churnSet(t, 0, 12).All(); !slices.Equal(second.All(), want) {
		t.Errorf("set handed to Update now holds %v", second.All())
	}
	second.Remove(churnVRP(5))
	srv.mu.Lock()
	held := srv.current.Contains(churnVRP(5)) && srv.current.Contains(churnVRP(51)) && !srv.current.Contains(churnVRP(4))
	srv.mu.Unlock()
	if !held {
		t.Error("the cache's set followed the caller's edit, or lost its own")
	}
}
