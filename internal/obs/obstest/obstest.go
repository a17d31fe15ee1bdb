// Package obstest holds the regression checks every HTTP listener of a
// ripki command is held to, for the commands' own tests to run against
// the server they build.
package obstest

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
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
	stalledIsCutOff(t, srv, "GET /heal", okPath, bound)
}

// SlowBodyIsCutOff is the same check one step into a request: a peer
// that sends a whole POST header for path and stalls in the body it
// promised is answered 408 and dropped once bound — the handler's body
// deadline, as the caller has shortened it — passes, and not before.
func SlowBodyIsCutOff(t *testing.T, srv *http.Server, path, okPath string, bound time.Duration) {
	t.Helper()
	answer := stalledIsCutOff(t, srv, "POST "+path+" HTTP/1.1\r\nHost: x\r\nContent-Length: 64\r\n\r\n{\"routes\": [", okPath, bound)
	if !strings.HasPrefix(answer, "HTTP/1.1 408 ") {
		t.Fatalf("stalled body answered %q, want a 408", answer)
	}
}

// stalledIsCutOff serves srv, opens a connection that writes stalled and
// then nothing, and returns what the server answered before it hung up:
// after bound, and with GET okPath answering 200 meanwhile.
func stalledIsCutOff(t *testing.T, srv *http.Server, stalled, okPath string, bound time.Duration) string {
	t.Helper()
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

	// Taken before the dial: the server arms its deadline when it starts
	// reading the accepted connection, which can be before Dial returns
	// here, and the lower bound below must hold regardless.
	began := time.Now()
	loris, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	if _, err := io.WriteString(loris, stalled); err != nil {
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
	answer, err := io.ReadAll(loris)
	if err != nil {
		t.Fatalf("stalled connection still open %v after a %v deadline: %v", time.Since(began), bound, err)
	}
	if waited := time.Since(began); waited < bound {
		t.Fatalf("stalled connection closed after %v, before the %v deadline", waited, bound)
	}
	return string(answer)
}
