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
//
// A full sync (Reset, or a Poll the cache answers with Cache Reset) is
// invisible until it completes: the response is collected beside the
// session state and the new table, session id and serial are installed
// together at End of Data. Collected means held as a vrp.Builder's
// rows, 24 bytes a record with no pointer; a cache answers in Compare
// order, so at End of Data the rows are frozen where they lie into the
// new table's base — two pointer-free arrays, a 32-byte trie node a
// prefix or branch point and an 8-byte payload a VRP — and are then
// garbage. Until the swap the table being replaced, the rows and the new
// table are live together. An incremental response is staged too: its
// records are collected as they arrive and applied in order at End of
// Data, under the lock acquisition that installs the serial, to the live
// set's overlay (see package vrp), which the record that takes it past
// its share of the base folds into a new base.
//
// A response that ends any other way — an Error Report, a PDU that has
// no place in it, a dropped connection — leaves the table, the serial
// and the changed-prefix record exactly as they were, so the next Poll
// asks from a state the client still holds.
type Client struct {
	conn net.Conn
	// r buffers conn for every PDU read (a PDU is a header read and a
	// body read; unbuffered, a full sync is two system calls a record).
	// Only the goroutine driving the session reads, as with conn itself;
	// buf is that goroutine's PDU buffer, one for the session (readFrame).
	r   *bufio.Reader
	buf []byte
	// staged is the incremental response being read, that goroutine's
	// too; it is applied at End of Data and dropped on any other end.
	staged []Prefix

	mu        sync.Mutex
	sessionID uint16
	serial    uint32
	haveState bool
	resets    int
	// live is the session state, the one copy of it: a query-ready
	// vrp.Set, built whole by a full sync and maintained record by record
	// between them. Set hands out O(1) freezes of it, View the set itself.
	live *vrp.Set
	// overtaken is a Serial Notify that arrived between a query and its
	// response and names a state no sync has ended at yet: the response
	// was computed before the change it announces, and the cache will
	// not announce it again, so WaitNotify hands it over.
	overtaken *SerialNotify
	// changed accumulates the prefixes whose VRP membership an
	// incremental sync moved since the last TakeDelta — the input for
	// delta-scoped revalidation. A full sync marks nothing here: it sets
	// replaced and keeps in before, sorted, the prefixes of the table it
	// replaced, and TakeDelta lists the table then live itself.
	changed  map[netip.Prefix]struct{}
	replaced bool
	before   []netip.Prefix
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

// Resets returns how many full synchronisations the session has
// completed: the first sync, every Reset since and every Poll the cache
// answered with Cache Reset.
func (c *Client) Resets() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resets
}

// Reset performs a full synchronisation (Reset Query) and replaces the
// local state, once the whole response has arrived.
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

// readResponse consumes one cache response; full says it answers a
// Reset Query.
func (c *Client) readResponse(full bool) error {
	for {
		pdu, err := readPDU(c.r, &c.buf)
		if err != nil {
			return fmt.Errorf("rtr: reading response: %w", err)
		}
		switch p := pdu.(type) {
		case *CacheResponse:
			if full {
				return c.readRecords(p.SessionID, new(vrp.Builder))
			}
			return c.readRecords(p.SessionID, nil)
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

// readRecords consumes prefix PDUs until End of Data, without touching
// the session. An incremental response (rows nil) is staged record by
// record. A full one is collected into rows — a withdrawal or a repeat
// inside it keeps its lenient meaning, the last record for a triple
// decides. At End of Data the staged records are applied to the live
// set, or the table built from rows (see Client) replaces it, under the
// same lock acquisition that installs the session id and the serial.
func (c *Client) readRecords(session uint16, rows *vrp.Builder) error {
	c.staged = c.staged[:0]
	for {
		raw, err := readFrame(c.r, &c.buf)
		if err != nil {
			return fmt.Errorf("rtr: reading records: %w", err)
		}
		if typ := raw[1]; typ == TypeIPv4Prefix || typ == TypeIPv6Prefix {
			// parsePrefix only yields VRPs that pass the checks a set
			// makes, so storing one cannot fail.
			p, err := parsePrefix(raw)
			switch {
			case err != nil:
				return fmt.Errorf("rtr: reading records: %w", err)
			case rows == nil:
				c.staged = append(c.staged, p)
			case p.Announce:
				_ = rows.Add(p.VRP)
			default:
				rows.Remove(p.VRP)
			}
			continue
		}
		pdu, _, err := Decode(raw)
		if err != nil {
			return fmt.Errorf("rtr: reading records: %w", err)
		}
		switch p := pdu.(type) {
		case *EndOfData:
			var next *vrp.Set
			if rows != nil {
				next = rows.Set()
			}
			c.mu.Lock()
			if next != nil {
				// Every prefix held until now may have changed; so may
				// every prefix held from now on, which TakeDelta reads off
				// the live table when it is asked.
				c.before = mergePrefixes(c.before, c.live.Prefixes())
				c.live, c.replaced = next, true
				c.resets++
			}
			for _, p := range c.staged {
				c.apply(p)
			}
			c.sessionID, c.serial, c.haveState = session, p.Serial, true
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

// apply folds one record of an incremental response into the live set;
// c.mu is held. A duplicate announcement and a withdrawal of something
// not held change nothing and mark nothing.
func (c *Client) apply(p Prefix) {
	var changed bool
	if p.Announce {
		changed, _ = c.live.Insert(p.VRP)
	} else {
		changed = c.live.Remove(p.VRP)
	}
	if changed {
		c.changed[p.VRP.Prefix] = struct{}{}
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
// changed since the previous call (or since the session began), in
// netutil.ComparePrefixes order. After a full resynchronisation that is
// every prefix held before it and every prefix held now — a superset of
// the true difference, so delta-scoped revalidation can only over-check,
// never miss a change — which costs nothing until it is asked for: the
// list is merged here from the prefixes kept at the swap, a walk of the
// live table and the marks of the incremental syncs around it.
func (c *Client) TakeDelta() []netip.Prefix {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []netip.Prefix
	if len(c.changed) > 0 {
		out = make([]netip.Prefix, 0, len(c.changed))
		for p := range c.changed {
			out = append(out, p)
		}
		clear(c.changed)
		slices.SortFunc(out, netutil.ComparePrefixes)
	}
	if c.replaced {
		out = mergePrefixes(mergePrefixes(c.before, out), c.live.Prefixes())
		c.before, c.replaced = nil, false
	}
	return out
}

// mergePrefixes returns the union of two lists in ComparePrefixes order
// without repeats, in that order. A side that is empty costs nothing:
// the other is returned as it is.
func mergePrefixes(a, b []netip.Prefix) []netip.Prefix {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]netip.Prefix, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch c := netutil.ComparePrefixes(a[0], b[0]); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}
