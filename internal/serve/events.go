package serve

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"ripki/internal/sim"
)

// The incident feed turns the sim source's typed incident stream (and
// every snapshot publish) into a consumable API: a serial-indexed ring
// of events a client reads with a cursor. A monitor no longer polls
// /v1/snapshot and diffs — it asks "what happened since seq N" and
// long-polls for the next thing.

// FeedEvent is one entry in the service's incident feed. Seq is the
// feed's own strictly increasing cursor (starting at 1); Serial is the
// snapshot serial current when the event was recorded.
type FeedEvent struct {
	Seq        uint64            `json:"seq"`
	UnixMS     int64             `json:"unix_ms"`
	EventType  string            `json:"event_type"`
	Feed       string            `json:"feed"`
	Observer   string            `json:"observer"`
	Scenario   string            `json:"scenario,omitempty"`
	SimTUS     int64             `json:"sim_t_us,omitempty"`
	Serial     uint64            `json:"serial"`
	Attributes map[string]string `json:"attributes,omitempty"`
}

// eventRingCapacity bounds the feed's memory: a slow consumer loses old
// events (reported via "dropped"), it never stalls the writers.
const eventRingCapacity = 1024

// eventRing is the serial-indexed ring buffer behind GET /v1/events.
// Writers append under mu; readers copy out under mu (events are small
// and reads are cheap relative to the HTTP marshalling around them).
type eventRing struct {
	mu     sync.Mutex
	buf    []FeedEvent
	cap    int
	next   uint64        // seq the next append will take; seqs start at 1
	notify chan struct{} // closed and replaced on every append
}

func newEventRing(capacity int) *eventRing {
	return &eventRing{cap: capacity, next: 1, notify: make(chan struct{})}
}

// append stamps the event's seq and stores it, waking long-pollers.
func (r *eventRing) append(ev FeedEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ev.Seq = r.next
	r.next++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[int((ev.Seq-1))%r.cap] = ev
	}
	close(r.notify)
	r.notify = make(chan struct{})
}

// since copies out up to limit events with seq > since, in seq order.
// dropped counts events past the cursor that have already aged out of
// the ring; next is the cursor to pass on the following call. A cursor
// beyond the newest seq was handed out by another incarnation of the
// feed (seqs restart at 1 with the daemon): it is answered from the
// oldest retained event, as since=0 is, rather than starved until the
// new feed climbs past it.
func (r *eventRing) since(since uint64, limit int) (events []FeedEvent, dropped, next uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if since >= r.next {
		since = 0
	}
	oldest := uint64(1)
	if r.next > uint64(r.cap) {
		oldest = r.next - uint64(r.cap)
	}
	from := since + 1
	if from < oldest {
		dropped = oldest - from
		from = oldest
	}
	next = since
	for seq := from; seq < r.next && len(events) < limit; seq++ {
		events = append(events, r.buf[int(seq-1)%r.cap])
		next = seq
	}
	return events, dropped, next
}

// wait returns a channel closed at the next append.
func (r *eventRing) wait() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.notify
}

// appendEvent stamps wall time, snapshot serial, and the per-type
// counter, then appends to the ring.
func (s *Service) appendEvent(ev FeedEvent) {
	ev.UnixMS = time.Now().UnixMilli()
	if sn := s.Current(); sn != nil {
		ev.Serial = sn.Serial
	}
	s.events.append(ev)
	s.eventsTotal.With(ev.EventType).Inc()
}

// feedIncident converts one sim incident into its feed entry.
func feedIncident(in sim.Incident) FeedEvent {
	return FeedEvent{
		EventType:  in.EventType,
		Feed:       in.Source.Feed,
		Observer:   in.Source.Observer,
		Scenario:   in.Scenario,
		SimTUS:     in.T.Microseconds(),
		Attributes: in.Attributes,
	}
}

// maxEventsPage caps one GET /v1/events response; maxEventsWait caps
// the long-poll hold so intermediaries don't reap idle connections.
const (
	maxEventsPage = 500
	maxEventsWait = 30 * time.Second
)

// eventsResponse is the GET /v1/events body. Next is the cursor for the
// follow-up request ("give me everything after what I just saw").
type eventsResponse struct {
	Serial  uint64      `json:"serial"`
	Since   uint64      `json:"since"`
	Next    uint64      `json:"next"`
	Dropped uint64      `json:"dropped"`
	Events  []FeedEvent `json:"events"`
}

// handleEvents answers GET /v1/events?since=N[&limit=M][&wait=D]: the
// events with seq > N. With wait, an empty answer long-polls until the
// next append (every snapshot publish appends, so the snapshot serial
// advancing is itself a wake-up), the timeout, or client disconnect —
// whichever comes first; a timeout answers 200 with an empty list.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad since %q", v)
			return
		}
		since = n
	}
	limit := maxEventsPage
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		if n < limit {
			limit = n
		}
	}
	var deadline <-chan time.Time
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "bad wait %q", v)
			return
		}
		if d > maxEventsWait {
			d = maxEventsWait
		}
		t := time.NewTimer(d)
		defer t.Stop()
		deadline = t.C
	}

	for {
		// Snapshot the wake-up channel before reading, so an append
		// between the read and the select is never missed.
		wake := s.events.wait()
		events, dropped, next := s.events.since(since, limit)
		if len(events) > 0 || deadline == nil {
			var serial uint64
			if sn := s.Current(); sn != nil {
				serial = sn.Serial
			}
			if events == nil {
				events = []FeedEvent{}
			}
			writeJSON(w, http.StatusOK, eventsResponse{
				Serial:  serial,
				Since:   since,
				Next:    next,
				Dropped: dropped,
				Events:  events,
			})
			return
		}
		select {
		case <-wake:
		case <-deadline:
			deadline = nil
		case <-r.Context().Done():
			return
		}
	}
}
