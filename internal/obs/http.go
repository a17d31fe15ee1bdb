package obs

import (
	"net"
	"net/http"
	"time"
)

// Listener bounds, for every HTTP listener a ripki command opens. A
// client has ReadHeaderTimeout to deliver a complete request header, and
// a kept-alive connection with no request in flight is closed after
// IdleTimeout, so neither a slow-loris peer nor an abandoned connection
// holds a descriptor and a goroutine for good.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewServer wraps the handler in an http.Server with the listener
// bounds set. Deliberately no WriteTimeout: a response may legitimately
// stay open for as long as its client asked — ripki-served's
// GET /v1/events?wait= long-poll, a 30-second /debug/pprof/profile, a
// /progress poller on a slow link — and a write deadline would cut those
// answers off.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// StartHTTP binds addr and serves h on it from a background goroutine,
// within the listener bounds — the shape of an opt-in side listener
// (metrics, pprof) on a daemon whose main business is elsewhere. Close
// the returned listener to stop.
func StartHTTP(addr string, h http.Handler) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go NewServer(h).Serve(ln)
	return ln, nil
}
