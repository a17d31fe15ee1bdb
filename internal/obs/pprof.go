package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// RegisterPprof mounts the runtime profiling handlers under
// /debug/pprof/ on mux. Explicit registration (instead of importing
// net/http/pprof for its DefaultServeMux side effect) keeps profiling
// strictly opt-in: a daemon exposes it only on the mux — and therefore
// the listener — it chooses to.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ServePprof binds addr and serves only the pprof handlers on it from a
// background goroutine — the shape non-HTTP daemons (ripki-rtrd) use
// for an opt-in debug listener. Close the returned listener to stop.
func ServePprof(addr string) (net.Listener, error) {
	mux := http.NewServeMux()
	RegisterPprof(mux)
	return StartHTTP(addr, mux)
}
