// Package obstest holds the regression checks every HTTP listener of a
// ripki command is held to, for the commands' own tests to run against
// the server they build.
package obstest

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// SlowLorisIsCutOff serves srv — built the way the command under test
// builds it, and not yet started — on a loopback listener and checks
// that a peer that opens a connection and trickles half a request line
// is dropped once the header deadline passes, and meanwhile costs a
// well-behaved client nothing: GET okPath must answer 200 beside it.
// The bounds must be set and no WriteTimeout (long-polls, profiles and
// progress pollers hold a response open legitimately); the header
// deadline is then shortened so the test does not wait out the
// production constant.
func SlowLorisIsCutOff(t *testing.T, srv *http.Server, okPath string) {
	t.Helper()
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("listener bounds not set: header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut long-lived responses off", srv.WriteTimeout)
	}
	const bound = 300 * time.Millisecond
	srv.ReadHeaderTimeout = bound
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	// Taken before the dial: the server arms its header deadline when it
	// starts reading the accepted connection, which can be before Dial
	// returns here, and the lower bound below must hold regardless.
	began := time.Now()
	loris, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	if _, err := io.WriteString(loris, "GET /heal"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + okPath)
	if err != nil {
		t.Fatalf("well-formed request beside the stalled one: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("well-formed request beside the stalled one: %d", resp.StatusCode)
	}

	// The server hangs up (perhaps after a 408): the read ends, and not
	// because the test's own deadline ran out.
	loris.SetReadDeadline(began.Add(20 * bound))
	if _, err := io.Copy(io.Discard, loris); err != nil {
		t.Fatalf("stalled connection still open %v after a %v header deadline: %v", time.Since(began), bound, err)
	}
	if waited := time.Since(began); waited < bound {
		t.Fatalf("stalled connection closed after %v, before the %v deadline", waited, bound)
	}
}
