package rtr

import (
	"errors"
	"log"
	"net"
	"slices"
	"sync"

	"ripki/internal/netutil"
	"ripki/internal/rpki/vrp"
)

// delta is the set change from one serial to the next.
type delta struct {
	announce []vrp.VRP
	withdraw []vrp.VRP
}

// Server is an RTR cache. It serves the current VRP set to router
// clients, answers incremental serial queries from retained deltas, and
// notifies connected routers when the set changes.
type Server struct {
	// Logf, if non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)

	mu        sync.Mutex
	sessionID uint16
	serial    uint32
	current   *vrp.Set         // the server's own O(1) clone, edited in place by UpdateDelta
	deltas    map[uint32]delta // keyed by the serial the delta upgrades FROM
	maxDeltas int
	conns     map[net.Conn]struct{}
	closed    bool
	ln        net.Listener
}

// NewServer creates a cache serving the given VRP set as it stands now:
// the server keeps an O(1) clone, so the set stays the caller's to edit.
// sessionID identifies this cache incarnation; routers restart their
// session when it changes.
func NewServer(set *vrp.Set, sessionID uint16) *Server {
	if set == nil {
		set = vrp.NewSet()
	}
	return &Server{
		sessionID: sessionID,
		current:   set.Clone(),
		deltas:    make(map[uint32]delta),
		maxDeltas: 16,
		conns:     make(map[net.Conn]struct{}),
	}
}

// Serial returns the cache's current serial number.
func (s *Server) Serial() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serial
}

// Update replaces the served VRP set with set as it stands now (an
// O(1) clone, as in NewServer), records a delta for incremental sync,
// bumps the serial, and sends Serial Notify to connected routers.
// An update that does not change the set is a no-op: the serial stays
// put and no notification is sent, so steady-state refresh cycles do
// not churn serials or wake connected routers.
func (s *Server) Update(set *vrp.Set) {
	s.mu.Lock()
	ann, wd := set.Diff(s.current)
	if len(ann) == 0 && len(wd) == 0 {
		s.mu.Unlock()
		return
	}
	s.recordDeltaLocked(delta{announce: ann, withdraw: wd})
	s.current = set.Clone()
	s.notifyLocked()
}

// UpdateDelta applies a caller-supplied delta to the served set:
// announce VRPs that should now be present, withdraw VRPs that should
// be gone. Entries that would not change membership are dropped, so —
// exactly like Update — a delta that nets to nothing is a no-op: no
// serial bump, no notification, no retained history. The effective
// delta is recorded in the same canonical order Diff produces
// (vrp.Compare over the sorted-All ordering), so routers cannot tell
// the two update paths apart byte-for-byte.
func (s *Server) UpdateDelta(announce, withdraw []vrp.VRP) {
	s.mu.Lock()
	var ann, wd []vrp.VRP
	for _, v := range announce {
		cp, err := netutil.Canonical(v.Prefix)
		if err != nil {
			continue
		}
		v.Prefix = cp
		if s.current.Contains(v) {
			continue
		}
		if s.current.Add(v) != nil {
			continue
		}
		ann = append(ann, v)
	}
	for _, v := range withdraw {
		cp, err := netutil.Canonical(v.Prefix)
		if err != nil {
			continue
		}
		v.Prefix = cp
		if !s.current.Remove(v) {
			continue
		}
		wd = append(wd, v)
	}
	if len(ann) == 0 && len(wd) == 0 {
		s.mu.Unlock()
		return
	}
	slices.SortFunc(ann, vrp.Compare)
	slices.SortFunc(wd, vrp.Compare)
	s.recordDeltaLocked(delta{announce: ann, withdraw: wd})
	s.notifyLocked()
}

// recordDeltaLocked retains a delta keyed by the serial it upgrades
// from, evicts the oldest past the retention cap, and bumps the serial.
// Retained keys are consecutive serials ending at the current one, so
// the one to evict is maxDeltas behind it in uint32 arithmetic — which
// stays the oldest across the 2³² wrap, where the smallest key is one of
// the newest. Called with s.mu held.
func (s *Server) recordDeltaLocked(d delta) {
	s.deltas[s.serial] = d
	delete(s.deltas, s.serial-uint32(s.maxDeltas))
	s.serial++
}

// ResetSession simulates a cache restart: the session ID changes, the
// serial restarts from zero, and all retained deltas are dropped. The
// served set is kept (pass a new set to Update afterwards if the restart
// also lost data). Connected routers receive a Serial Notify carrying
// the new session ID; their next Serial Query mismatches and is answered
// with Cache Reset, forcing a full resynchronisation — exactly the RFC
// 8210 session-restart dance.
func (s *Server) ResetSession(sessionID uint16) {
	s.mu.Lock()
	s.sessionID = sessionID
	s.serial = 0
	s.deltas = make(map[uint32]delta)
	s.notifyLocked()
}

// notifyLocked sends Serial Notify for the current (session, serial) to
// every connected router. Called with s.mu held; releases it.
func (s *Server) notifyLocked() {
	serial, session := s.serial, s.sessionID
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	notify := (&SerialNotify{SessionID: session, Serial: serial}).SerializeTo(nil)
	for _, c := range conns {
		if _, err := c.Write(notify); err != nil {
			s.logf("rtr: notify %v: %v", c.RemoteAddr(), err)
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Serve accepts router sessions on ln until Close is called. It returns
// the listener error after shutdown. Serve on a closed server closes ln
// and returns an error, as net/http's Server.Serve does.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("rtr: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops accepting sessions and disconnects all routers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	for {
		pdu, err := ReadPDU(conn)
		if err != nil {
			return
		}
		switch q := pdu.(type) {
		case *ResetQuery:
			s.sendFull(conn)
		case *SerialQuery:
			s.sendIncremental(conn, q)
		case *ErrorReport:
			s.logf("rtr: client %v error: %s", conn.RemoteAddr(), q.Text)
			return
		default:
			report := &ErrorReport{Code: ErrUnsupportedPDU, Encapsulated: pdu.SerializeTo(nil), Text: "unexpected PDU"}
			if err := WritePDU(conn, report); err != nil {
				return
			}
		}
	}
}

// sendFull answers a reset query: Cache Response, every VRP as an
// announcement, End of Data.
func (s *Server) sendFull(conn net.Conn) {
	s.mu.Lock()
	session, serial := s.sessionID, s.serial
	all := s.current.All()
	s.mu.Unlock()

	// One buffer of exactly the reply's size: grown by doubling, a
	// 300 000-VRP reply leaves its own size again in garbage per router.
	size := headerLen + endOfDataLen
	for _, v := range all {
		if v.Prefix.Addr().Is4() {
			size += ipv4PrefixLen
		} else {
			size += ipv6PrefixLen
		}
	}
	buf := (&CacheResponse{SessionID: session}).SerializeTo(make([]byte, 0, size))
	for _, v := range all {
		buf = (&Prefix{Announce: true, VRP: v}).SerializeTo(buf)
	}
	buf = (&EndOfData{SessionID: session, Serial: serial}).SerializeTo(buf)
	if _, err := conn.Write(buf); err != nil {
		s.logf("rtr: send full to %v: %v", conn.RemoteAddr(), err)
	}
}

// sendIncremental answers a serial query with the retained deltas from
// the client's serial to now, or Cache Reset if history is gone.
func (s *Server) sendIncremental(conn net.Conn, q *SerialQuery) {
	s.mu.Lock()
	session, serial := s.sessionID, s.serial
	if q.SessionID != session {
		s.mu.Unlock()
		s.sendCacheReset(conn)
		return
	}
	var steps []delta
	ok := true
	for at := q.Serial; at != serial; at++ {
		d, have := s.deltas[at]
		if !have {
			ok = false
			break
		}
		steps = append(steps, d)
	}
	s.mu.Unlock()
	if !ok {
		s.sendCacheReset(conn)
		return
	}
	buf := (&CacheResponse{SessionID: session}).SerializeTo(nil)
	for _, d := range steps {
		for _, v := range d.withdraw {
			buf = (&Prefix{Announce: false, VRP: v}).SerializeTo(buf)
		}
		for _, v := range d.announce {
			buf = (&Prefix{Announce: true, VRP: v}).SerializeTo(buf)
		}
	}
	buf = (&EndOfData{SessionID: session, Serial: serial}).SerializeTo(buf)
	if _, err := conn.Write(buf); err != nil {
		s.logf("rtr: send incremental to %v: %v", conn.RemoteAddr(), err)
	}
}

// sendCacheReset tells a router its (session, serial) cannot be served
// incrementally; the router's next move is a Reset Query.
func (s *Server) sendCacheReset(conn net.Conn) {
	if err := WritePDU(conn, &CacheReset{}); err != nil {
		s.logf("rtr: send cache reset to %v: %v", conn.RemoteAddr(), err)
	}
}
