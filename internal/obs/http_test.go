package obs

import (
	"net/http"
	"testing"

	"ripki/internal/obs/obstest"
)

// TestPprofListenerCutsSlowLoris: the bounded server every command's
// listener is built from, here under the pprof side listener's mux, drops
// a peer that never finishes its request header.
func TestPprofListenerCutsSlowLoris(t *testing.T) {
	mux := http.NewServeMux()
	RegisterPprof(mux)
	srv := NewServer(mux)
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || srv.IdleTimeout != IdleTimeout {
		t.Fatalf("NewServer set header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	obstest.SlowLorisIsCutOff(t, srv, "/debug/pprof/cmdline")
}
