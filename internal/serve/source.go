package serve

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"ripki/internal/rpki/vrp"
	"ripki/internal/rtr"
	"ripki/internal/sim"
)

// The update sources are the service's writers: each folds a stream of
// VRP changes into fresh snapshots via Publish. They run in their own
// goroutine; readers never see anything but complete snapshots.

// RunRTR maintains a relying-party session against an RTR cache at
// addr: full reset, then Serial Notify → incremental poll → publish,
// exactly the loop a production RP (routinator feeding a router) runs.
// The initial dial retries with backoff so the service may start before
// its cache does. It blocks until ctx is cancelled (returning nil) or
// the established session fails.
func (s *Service) RunRTR(ctx context.Context, addr string) error {
	s.markLive("rtr")
	began := time.Now()
	client, err := dialRetry(ctx, addr)
	if err != nil {
		return s.sourceErr(ctx, err)
	}
	// Unblock the synchronous PDU reads when ctx ends.
	stop := context.AfterFunc(ctx, func() { client.Close() })
	defer stop()
	defer client.Close()

	// publish freezes the session's live set as it stands after a sync.
	// Draining the client's changed-prefix record keeps it from growing
	// for the life of the session, and its size is how big the update
	// just published was; sync says which kind of sync delivered it, so
	// a poll the cache answered with Cache Reset shows as a reset.
	//
	// After a full sync nothing references the table the snapshot just
	// superseded. A cycle that ran during the sync found it live beside
	// the one being collected and set its goal from both, so the heap
	// would grow toward twice two tables before a cycle returned it; a
	// collection here sets the goal from the table that is left. A
	// serial delta replaces a few nodes and pays no cycle.
	//
	// A serial delta lands in the live set's overlay; the one that takes
	// the overlay past its share of the base rebuilds the base inside
	// that write (see package vrp), and the event that publishes it says
	// compacted=true. A full sync builds a new set, which has compacted
	// nothing yet.
	resets := 0
	var live *vrp.Set
	compactions := 0
	publish := func() {
		sync := "serial"
		if n := client.Resets(); n != resets {
			resets, sync = n, "reset"
		}
		changed := len(client.TakeDelta())
		view := client.View()
		attrs := map[string]string{"changed_prefixes": strconv.Itoa(changed), "sync": sync}
		n := view.Compactions()
		if view == live && n != compactions {
			attrs["compacted"] = "true"
		}
		live, compactions = view, n
		s.publishIndex(vrp.IndexOf(view), "rtr", client.Serial(), attrs)
		if sync == "reset" {
			runtime.GC()
		}
	}
	if err := client.Reset(); err != nil {
		return s.sourceErr(ctx, fmt.Errorf("serve: initial RTR sync: %w", err))
	}
	publish()
	s.rtrSync.CompareAndSwap(0, int64(time.Since(began)))
	for {
		if _, err := client.WaitNotify(); err != nil {
			return s.sourceErr(ctx, fmt.Errorf("serve: RTR notify: %w", err))
		}
		if err := client.Poll(); err != nil {
			return s.sourceErr(ctx, fmt.Errorf("serve: RTR poll: %w", err))
		}
		publish()
	}
}

// dialRetry dials the cache, retrying with a capped backoff until ctx
// ends — daemon and cache may race at startup.
func dialRetry(ctx context.Context, addr string) (*rtr.Client, error) {
	backoff := 100 * time.Millisecond
	for {
		client, err := rtr.Dial(addr)
		if err == nil {
			return client, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("serve: dialing RTR cache: %w", err)
		case <-time.After(backoff):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// sourceErr suppresses the connection error caused by our own
// ctx-driven shutdown.
func (s *Service) sourceErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// RunSim drives an in-process scenario as the update source: one
// virtual tick per wall-clock interval, publishing a snapshot whenever
// the scenario changed the ground-truth VRP set. The scenario library
// (roa-churn, hijack-window, trust-anchor-outage, ...) thus doubles as
// a live traffic generator for the service. Returns nil when ctx ends
// or the scenario horizon is reached.
func (s *Service) RunSim(ctx context.Context, cfg sim.Config, interval time.Duration) error {
	if interval <= 0 {
		interval = time.Second
	}
	s.markLive("sim")
	sm, err := sim.New(cfg)
	if err != nil {
		return err
	}
	defer sm.Close()
	// Every typed incident the scenario produces lands in the feed as it
	// happens — Step runs the recorder synchronously, so incidents
	// precede the snapshot publish that makes their effects queryable.
	sm.AttachIncidents(func(in sim.Incident) { s.appendEvent(feedIncident(in)) })
	publish := func() error {
		_, err := s.PublishSet(sm.TruthSet(), "sim", uint32(sm.Tick()))
		return err
	}
	last := sm.TruthGen()
	if err := publish(); err != nil {
		return err
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
		if !sm.Step() {
			if err := sm.Err(); err != nil {
				return fmt.Errorf("serve: sim source: %w", err)
			}
			return nil
		}
		// The truth generation counts mutations, so comparing it
		// detects "this tick changed the VRPs" without a diff (the
		// engine edits TruthSet in place, so pointer identity would
		// miss changes).
		if gen := sm.TruthGen(); gen != last {
			last = gen
			if err := publish(); err != nil {
				return err
			}
		}
	}
}
