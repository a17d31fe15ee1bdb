package rtr

import (
	"fmt"
	"math"
	"net"
	"net/netip"
	"sync"
	"testing"

	"ripki/internal/rpki/vrp"
)

func churnVRP(i int) vrp.VRP {
	return vrp.VRP{
		Prefix:    netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24),
		MaxLength: 24,
		ASN:       uint32(64500 + i%100),
	}
}

func churnSet(t testing.TB, lo, hi int) *vrp.Set {
	t.Helper()
	s := vrp.NewSet()
	for i := lo; i < hi; i++ {
		if err := s.Add(churnVRP(i)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestUpdateNoopKeepsSerial: an update that does not change the set must
// not bump the serial, record a delta, or notify routers.
func TestUpdateNoopKeepsSerial(t *testing.T) {
	set := churnSet(t, 0, 10)
	srv := NewServer(set, 7)
	if got := srv.Serial(); got != 0 {
		t.Fatalf("initial serial = %d", got)
	}
	same := churnSet(t, 0, 10) // equal content, distinct object
	srv.Update(same)
	if got := srv.Serial(); got != 0 {
		t.Errorf("no-op update bumped serial to %d", got)
	}
	srv.Update(churnSet(t, 0, 11))
	if got := srv.Serial(); got != 1 {
		t.Errorf("real update: serial = %d, want 1", got)
	}
	srv.Update(churnSet(t, 0, 11))
	if got := srv.Serial(); got != 1 {
		t.Errorf("second no-op bumped serial to %d", got)
	}
}

// TestNoopUpdateDoesNotNotify: a connected client must receive no Serial
// Notify for a no-op update.
func TestNoopUpdateDoesNotNotify(t *testing.T) {
	srv := NewServer(churnSet(t, 0, 5), 1)
	srv.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}

	srv.Update(churnSet(t, 0, 5)) // no-op: nothing should arrive
	srv.Update(churnSet(t, 0, 6)) // real: Serial Notify arrives
	serial, err := c.WaitNotify()
	if err != nil {
		t.Fatal(err)
	}
	if serial != 1 {
		t.Errorf("first notify carries serial %d, want 1 (no-op must not notify)", serial)
	}
}

// TestConcurrentChurnIncrementalSync hammers Update from one goroutine
// while several clients poll incrementally; every client must converge
// on the final set. Run with -race.
func TestConcurrentChurnIncrementalSync(t *testing.T) {
	const rounds = 60
	const clients = 4

	srv := NewServer(churnSet(t, 0, 1), 9)
	srv.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if err := c.Reset(); err != nil {
				errs <- fmt.Errorf("client %d reset: %w", ci, err)
				return
			}
			// Poll under churn: incremental sync, falling back to full
			// resync whenever the delta history has been dropped.
			for c.Serial() < rounds {
				if _, err := c.WaitNotify(); err != nil {
					errs <- fmt.Errorf("client %d notify: %w", ci, err)
					return
				}
				if err := c.Poll(); err != nil {
					errs <- fmt.Errorf("client %d poll: %w", ci, err)
					return
				}
			}
			errs <- nil
		}(ci)
	}

	// Rapid churn: grow the set one VRP per round (every update real, so
	// every round bumps the serial exactly once).
	for i := 1; i <= rounds; i++ {
		srv.Update(churnSet(t, 0, i+1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Serial(); got != rounds {
		t.Errorf("final serial = %d, want %d", got, rounds)
	}

	// A fresh client's full sync and the final truth must agree.
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Len(), rounds+1; got != want {
		t.Errorf("converged client has %d VRPs, want %d", got, want)
	}
}

// TestResetSessionForcesFullResync: after a cache restart the old
// session's incremental query must be answered with Cache Reset, and the
// client transparently falls back to a full synchronisation.
func TestResetSessionForcesFullResync(t *testing.T) {
	srv := NewServer(churnSet(t, 0, 8), 3)
	srv.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	srv.Update(churnSet(t, 0, 9))
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if c.Serial() != 1 || c.Len() != 9 {
		t.Fatalf("pre-restart: serial=%d len=%d", c.Serial(), c.Len())
	}

	srv.ResetSession(4)
	if got := srv.Serial(); got != 0 {
		t.Errorf("post-restart serial = %d, want 0", got)
	}
	// The client still believes in session 3/serial 1; its next poll is
	// answered with Cache Reset and falls back to a full resync.
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if c.Serial() != 0 || c.Len() != 9 {
		t.Errorf("post-restart client: serial=%d len=%d, want 0/9", c.Serial(), c.Len())
	}
}

// TestDeltaRetentionAcrossSerialWrap: a cache whose serial crosses 2³²
// keeps evicting its oldest delta, not the smallest-keyed one (which
// past the wrap is one of the newest) — a router one step behind is
// answered incrementally on every poll, never with Cache Reset. The
// cache starts far enough before the wrap for its retention window to
// be full when serial 0 comes round: that is the delta a smallest-key
// eviction drops the moment it is made.
func TestDeltaRetentionAcrossSerialWrap(t *testing.T) {
	srv := NewServer(churnSet(t, 0, 1), 3)
	srv.Logf = func(string, ...any) {}
	srv.serial = math.MaxUint32 - uint32(srv.maxDeltas) - 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3*srv.maxDeltas; i++ {
		srv.UpdateDelta([]vrp.VRP{churnVRP(i)}, nil)
		if err := c.Poll(); err != nil {
			t.Fatalf("poll after delta %d: %v", i, err)
		}
		if c.Serial() != srv.Serial() || c.Len() != i+1 {
			t.Fatalf("after delta %d: client at serial %d with %d VRPs, cache at %d with %d", i, c.Serial(), c.Len(), srv.Serial(), i+1)
		}
		if c.Resets() != 1 {
			t.Fatalf("delta %d (cache serial %d) was answered with Cache Reset: the cache evicted a delta it had just made", i, srv.Serial())
		}
	}
	if len(srv.deltas) != srv.maxDeltas {
		t.Errorf("cache retains %d deltas, want %d", len(srv.deltas), srv.maxDeltas)
	}
}
