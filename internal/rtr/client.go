package rtr

import (
	"bufio"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"

	"ripki/internal/netutil"
	"ripki/internal/rpki/vrp"
)

// Client is a router-side RTR session. It maintains a local copy of the
// cache's VRP set and exposes it as a *vrp.Set for origin validation.
type Client struct {
	conn net.Conn
	// r buffers conn for every PDU read (a PDU is a header read and a
	// body read; unbuffered, a full sync is two system calls a record).
	// Only the goroutine driving the session reads, as with conn itself;
	// buf is that goroutine's PDU buffer, one for the session (readPDU).
	r   *bufio.Reader
	buf []byte

	mu        sync.Mutex
	sessionID uint16
	serial    uint32
	haveState bool
	// live is the session state, the one copy of it: a query-ready
	// vrp.Set maintained record by record. Set hands out O(1) freezes of
	// it, View the set itself.
	live *vrp.Set
	// overtaken is a Serial Notify that arrived between a query and its
	// response and names a state no sync has ended at yet: the response
	// was computed before the change it announces, and the cache will
	// not announce it again, so WaitNotify hands it over.
	overtaken *SerialNotify
	// changed accumulates the prefixes whose VRP membership moved since
	// the last TakeDelta — the input for delta-scoped revalidation.
	changed map[netip.Prefix]struct{}
}

// NewClient wraps an established connection to an RTR cache.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn:    conn,
		r:       bufio.NewReader(conn),
		live:    vrp.NewSet(),
		changed: make(map[netip.Prefix]struct{}),
	}
}

// Dial connects to an RTR cache at addr ("host:port").
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rtr: dialing %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// Close terminates the session.
func (c *Client) Close() error { return c.conn.Close() }

// Serial returns the serial of the last completed sync.
func (c *Client) Serial() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serial
}

// Len returns the number of VRPs currently held.
func (c *Client) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live.Len()
}

// Reset performs a full synchronisation (Reset Query) and replaces the
// local state.
func (c *Client) Reset() error {
	if err := WritePDU(c.conn, &ResetQuery{}); err != nil {
		return fmt.Errorf("rtr: sending reset query: %w", err)
	}
	return c.readResponse(true)
}

// Poll performs an incremental synchronisation (Serial Query). If the
// cache answers Cache Reset, Poll falls back to a full Reset.
func (c *Client) Poll() error {
	c.mu.Lock()
	if !c.haveState {
		c.mu.Unlock()
		return c.Reset()
	}
	q := &SerialQuery{SessionID: c.sessionID, Serial: c.serial}
	c.mu.Unlock()
	if err := WritePDU(c.conn, q); err != nil {
		return fmt.Errorf("rtr: sending serial query: %w", err)
	}
	return c.readResponse(false)
}

// readResponse consumes one cache response. If full is true the local
// state is cleared when the Cache Response arrives.
func (c *Client) readResponse(full bool) error {
	for {
		pdu, err := readPDU(c.r, &c.buf)
		if err != nil {
			return fmt.Errorf("rtr: reading response: %w", err)
		}
		switch p := pdu.(type) {
		case *CacheResponse:
			c.mu.Lock()
			c.sessionID = p.SessionID
			if full {
				// A full resync replaces everything, so mark every prefix
				// held before the wipe as changed; the announcements that
				// follow mark the new membership. The union is a superset
				// of the true difference — delta consumers revalidate a
				// little too much rather than too little.
				for _, v := range c.live.All() {
					c.markLocked(v.Prefix)
				}
				c.live = vrp.NewSet()
			}
			c.mu.Unlock()
			if err := c.readRecords(); err != nil {
				return err
			}
			return nil
		case *CacheReset:
			if full {
				return fmt.Errorf("rtr: cache reset in answer to reset query")
			}
			return c.Reset()
		case *SerialNotify:
			// Permitted between request and response; data comes.
			c.mu.Lock()
			c.overtaken = p
			c.mu.Unlock()
			continue
		case *ErrorReport:
			return p
		default:
			return fmt.Errorf("rtr: unexpected %T awaiting cache response", pdu)
		}
	}
}

// readRecords consumes prefix PDUs until End of Data.
func (c *Client) readRecords() error {
	for {
		pdu, err := readPDU(c.r, &c.buf)
		if err != nil {
			return fmt.Errorf("rtr: reading records: %w", err)
		}
		switch p := pdu.(type) {
		case *Prefix:
			c.mu.Lock()
			// A duplicate announcement and a withdrawal of something not
			// held change nothing and mark nothing. Decode only yields
			// VRPs that pass the checks Insert makes, so it cannot fail.
			var changed bool
			if p.Announce {
				changed, _ = c.live.Insert(p.VRP)
			} else {
				changed = c.live.Remove(p.VRP)
			}
			if changed {
				c.markLocked(p.VRP.Prefix)
			}
			c.mu.Unlock()
		case *EndOfData:
			c.mu.Lock()
			c.serial = p.Serial
			c.haveState = true
			if n := c.overtaken; n != nil && n.Serial == c.serial && n.SessionID == c.sessionID {
				c.overtaken = nil
			}
			c.mu.Unlock()
			return nil
		case *ErrorReport:
			return p
		default:
			return fmt.Errorf("rtr: unexpected %T inside response", pdu)
		}
	}
}

// WaitNotify blocks until the cache sends a Serial Notify (or the
// connection fails) and returns the advertised serial. Callers typically
// follow with Poll. A notify that overtook a response which did not
// reach the state it names is returned first.
func (c *Client) WaitNotify() (uint32, error) {
	c.mu.Lock()
	n := c.overtaken
	c.overtaken = nil
	c.mu.Unlock()
	if n != nil {
		return n.Serial, nil
	}
	for {
		pdu, err := readPDU(c.r, &c.buf)
		if err != nil {
			return 0, err
		}
		switch p := pdu.(type) {
		case *SerialNotify:
			return p.Serial, nil
		case *ErrorReport:
			return 0, p
		default:
			// Ignore stray PDUs outside a response window.
		}
	}
}

// Set freezes the session state into a vrp.Set for origin validation,
// in O(1) (vrp.Set.Clone). The returned set is independent: no later
// Poll or Reset changes it, and it is the caller's to mutate.
func (c *Client) Set() *vrp.Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live.Clone()
}

// View returns the client's live VRP set without copying. Unlike Set,
// the returned set IS the session state: the next Poll or Reset mutates
// it in place, so callers must treat it as read-only and re-read the
// view after each synchronisation (the sim engine swaps it into each
// router's source at every refresh).
func (c *Client) View() *vrp.Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// TakeDelta drains and returns the prefixes whose VRP membership
// changed since the previous call (or since the session began), sorted.
// A full resynchronisation marks every prefix held before and after the
// wipe — a superset of the true difference, so delta-scoped
// revalidation can only over-check, never miss a change.
func (c *Client) TakeDelta() []netip.Prefix {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.changed) == 0 {
		return nil
	}
	out := make([]netip.Prefix, 0, len(c.changed))
	for p := range c.changed {
		out = append(out, p)
	}
	clear(c.changed)
	slices.SortFunc(out, netutil.ComparePrefixes)
	return out
}

// markLocked records a membership change at p. Called with c.mu held.
func (c *Client) markLocked(p netip.Prefix) {
	c.changed[p] = struct{}{}
}
