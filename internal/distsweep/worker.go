package distsweep

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"ripki/internal/sweep"
)

// dialTimeout bounds how long a worker retries connecting: a worker may
// legitimately start before its coordinator.
const dialTimeout = 30 * time.Second

// WorkerConfig configures a distributed sweep's worker side.
type WorkerConfig struct {
	// Options is the worker's local execution tuning (Workers,
	// ShareWorlds). Streaming is overwritten by the coordinator's mode;
	// Progress, if set, still fires per completed run.
	Options sweep.Options
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// Work connects to the coordinator at addr and runs leases until the
// coordinator says done (returns nil), the connection is lost (returns
// the transport error; in-flight simulations are cancelled within a
// tick), or ctx is cancelled.
func Work(ctx context.Context, addr string, cfg WorkerConfig) error {
	conn, err := dialRetry(ctx, addr, dialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	logf := func(format string, args ...any) {
		if cfg.Logf != nil {
			cfg.Logf(format, args...)
		}
	}

	br := bufio.NewReader(conn)
	if err := writeFrame(conn, &frame{Type: frameHello, Version: protocolVersion}); err != nil {
		return err
	}
	hello, err := readFrame(br)
	if err != nil {
		return err
	}
	if hello.Type != frameHello {
		return fmt.Errorf("distsweep: expected hello reply, got %s", hello.Type)
	}
	if hello.Version != protocolVersion {
		return fmt.Errorf("distsweep: coordinator speaks protocol %d, this worker %d — rebuild the older side", hello.Version, protocolVersion)
	}

	// Re-expand the plan locally from the wire grid and prove both sides
	// expanded the same thing: leases and partials then only ever need
	// indices, never configs.
	grid, err := sweep.ParseGrid(hello.Grid)
	if err != nil {
		return fmt.Errorf("distsweep: coordinator grid: %w", err)
	}
	plan, err := grid.Plan()
	if err != nil {
		return fmt.Errorf("distsweep: expanding coordinator grid: %w", err)
	}
	if h := plan.Hash(); h != hello.PlanHash {
		return fmt.Errorf("distsweep: plan hash mismatch (coordinator %.12s…, local %.12s…) — differing builds cannot shard one sweep", hello.PlanHash, h)
	}
	opt := cfg.Options
	opt.Streaming = hello.Streaming
	logf("connected to %s: %d cells, %d runs, mode=%s", addr, len(plan.Cells), len(plan.Specs), mode(opt.Streaming))

	for {
		if err := writeFrame(conn, &frame{Type: frameLease}); err != nil {
			return err
		}
		grant, err := readFrame(br)
		if err != nil {
			return err
		}
		switch grant.Type {
		case frameDone:
			logf("coordinator done, exiting")
			return nil
		case frameLease:
		default:
			return fmt.Errorf("distsweep: expected lease or done, got %s", grant.Type)
		}
		logf("running cells [%d,%d)", grant.First, grant.First+grant.Count)

		// Watch the connection while simulating: the protocol is
		// synchronous, so ANY readable state mid-lease (EOF, reset, or a
		// stray byte) means the coordinator is gone or broken — cancel the
		// in-flight runs instead of computing for nobody.
		runCtx, cancel := context.WithCancel(ctx)
		stopWatch := watchConn(conn, br, cancel)
		partials, err := sweep.RunCells(runCtx, plan, opt, grant.First, grant.Count)
		stopWatch()
		cancel()
		if err != nil {
			if ctx.Err() == nil && runCtx.Err() != nil {
				return fmt.Errorf("distsweep: coordinator connection lost mid-lease: %w", err)
			}
			return err
		}
		for i := range partials {
			p := &partials[i]
			if err := writeFrame(conn, &frame{Type: framePartial, Cell: p.Cell, Partial: p}); err != nil {
				return err
			}
			ack, err := readFrame(br)
			if err != nil {
				return err
			}
			if ack.Type != frameAck || ack.Cell != p.Cell {
				return fmt.Errorf("distsweep: expected ack for cell %d, got %s (cell %d)", p.Cell, ack.Type, ack.Cell)
			}
			logf("cell %d acked", p.Cell)
		}
	}
}

// dialRetry dials until it succeeds, ctx is cancelled, or the timeout
// elapses — workers and coordinators are started independently and the
// worker should tolerate arriving first.
func dialRetry(ctx context.Context, addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		d := net.Dialer{Deadline: deadline}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("distsweep: dialing coordinator %s: %w", addr, lastErr)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// watchConn polls the connection with short read deadlines while the
// worker is busy simulating (no protocol reads are outstanding). A
// timeout means "still quiet, still healthy"; anything else — EOF, a
// reset, or an unexpected byte — fires cancel. Peek never consumes, so
// the protocol reader is undisturbed. The returned stop function ends
// the watch and clears the read deadline.
func watchConn(conn net.Conn, br *bufio.Reader, cancel context.CancelFunc) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			case <-time.After(100 * time.Millisecond):
			}
			conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			_, err := br.Peek(1)
			conn.SetReadDeadline(time.Time{})
			if err == nil {
				// The coordinator never speaks unprompted: a readable byte
				// mid-lease is a protocol violation, treated like a drop.
				cancel()
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			cancel()
			return
		}
	}()
	return func() {
		close(done)
		<-finished
		conn.SetReadDeadline(time.Time{})
	}
}
