package serve

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"ripki/internal/sim"
)

func TestEventRingCursor(t *testing.T) {
	r := newEventRing(4)
	if evs, dropped, next := r.since(0, 10); len(evs) != 0 || dropped != 0 || next != 0 {
		t.Fatalf("empty ring: %v %d %d", evs, dropped, next)
	}
	for i := 0; i < 3; i++ {
		r.append(FeedEvent{EventType: "a"})
	}
	evs, dropped, next := r.since(0, 10)
	if len(evs) != 3 || dropped != 0 || next != 3 {
		t.Fatalf("since 0: %d events, dropped %d, next %d", len(evs), dropped, next)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	// Cursor semantics: asking from the returned next yields nothing new.
	if evs, _, next2 := r.since(next, 10); len(evs) != 0 || next2 != next {
		t.Fatalf("since next: %d events, next %d", len(evs), next2)
	}
	// Overflow: 6 more appends on capacity 4 ⇒ seqs 1..5 are gone.
	for i := 0; i < 6; i++ {
		r.append(FeedEvent{EventType: "b"})
	}
	evs, dropped, next = r.since(0, 10)
	if len(evs) != 4 || dropped != 5 || next != 9 {
		t.Fatalf("after overflow: %d events, dropped %d, next %d", len(evs), dropped, next)
	}
	if evs[0].Seq != 6 || evs[3].Seq != 9 {
		t.Fatalf("overflow window = [%d, %d], want [6, 9]", evs[0].Seq, evs[3].Seq)
	}
	// Limit pages through the window without losing position.
	evs, _, next = r.since(5, 2)
	if len(evs) != 2 || next != 7 {
		t.Fatalf("limited page: %d events, next %d", len(evs), next)
	}
}

// TestEventsCursorAheadOfFeed: a cursor beyond the newest seq outlived
// the daemon that issued it (seqs restart at 1). It is answered like
// since=0 — from the oldest retained event, with the same dropped count —
// not starved until the new feed climbs past it.
func TestEventsCursorAheadOfFeed(t *testing.T) {
	r := newEventRing(4)
	if evs, dropped, next := r.since(500, 10); len(evs) != 0 || dropped != 0 || next != 0 {
		t.Fatalf("empty ring, cursor 500: %v %d %d", evs, dropped, next)
	}
	for i := 0; i < 6; i++ {
		r.append(FeedEvent{EventType: "a"})
	}
	wantEvs, wantDropped, wantNext := r.since(0, 10)
	for _, cursor := range []uint64{7, 500, 1 << 63} {
		evs, dropped, next := r.since(cursor, 10)
		if len(evs) != len(wantEvs) || evs[0].Seq != wantEvs[0].Seq || dropped != wantDropped || next != wantNext {
			t.Errorf("cursor %d: %d events from seq %d, dropped %d, next %d; since=0 gives %d from %d, %d, %d",
				cursor, len(evs), evs[0].Seq, dropped, next, len(wantEvs), wantEvs[0].Seq, wantDropped, wantNext)
		}
	}
	// The newest seq itself is an up-to-date cursor, not a stale one.
	if evs, _, next := r.since(6, 10); len(evs) != 0 || next != 6 {
		t.Errorf("cursor at the newest seq: %d events, next %d", len(evs), next)
	}

	// Over HTTP, long-polling: answered at once with the feed so far.
	s := testService(t)
	began := time.Now()
	rec, body := do(t, s.Handler(), "GET", "/v1/events?since=500&wait=5s", "")
	if rec.Code != http.StatusOK || time.Since(began) > 4*time.Second {
		t.Fatalf("stale cursor with wait: %d after %v", rec.Code, time.Since(began))
	}
	if events := body["events"].([]any); len(events) != 1 || events[0].(map[string]any)["seq"].(float64) != 1 || body["next"].(float64) != 1 {
		t.Fatalf("stale cursor answer: %v", body)
	}
}

func TestEventsEndpoint(t *testing.T) {
	s := testService(t)
	h := s.Handler()

	// The initial publish itself is event #1.
	rec, body := do(t, h, "GET", "/v1/events", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/events: %d %v", rec.Code, body)
	}
	events := body["events"].([]any)
	if len(events) != 1 {
		t.Fatalf("want the snapshot_publish event, got %d events", len(events))
	}
	first := events[0].(map[string]any)
	if first["event_type"] != "serve.snapshot_publish" || first["observer"] != "world" {
		t.Fatalf("unexpected first event: %v", first)
	}
	if first["serial"].(float64) != 1 || body["serial"].(float64) != 1 {
		t.Fatalf("serial stamps: event %v response %v", first["serial"], body["serial"])
	}
	next := int(body["next"].(float64))
	if next != 1 {
		t.Fatalf("next = %d, want 1", next)
	}

	// Nothing new after the cursor.
	_, body = do(t, h, "GET", "/v1/events?since="+strconv.Itoa(next), "")
	if len(body["events"].([]any)) != 0 || int(body["next"].(float64)) != next {
		t.Fatalf("cursor follow-up: %v", body)
	}

	// A publish wakes a long-poll waiter before its deadline.
	done := make(chan map[string]any, 1)
	go func() {
		_, body := do(t, h, "GET", "/v1/events?since="+strconv.Itoa(next)+"&wait=5s", "")
		done <- body
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := s.PublishSet(testWorld.Validation().VRPs, "world", 1); err != nil {
		t.Fatal(err)
	}
	select {
	case body := <-done:
		events := body["events"].([]any)
		if len(events) != 1 || events[0].(map[string]any)["event_type"] != "serve.snapshot_publish" {
			t.Fatalf("long-poll answer: %v", body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke on publish")
	}

	// A timed-out long-poll answers 200 with an empty list.
	next = 2
	rec, body = do(t, h, "GET", "/v1/events?since="+strconv.Itoa(next)+"&wait=30ms", "")
	if rec.Code != http.StatusOK || len(body["events"].([]any)) != 0 {
		t.Fatalf("timed-out long-poll: %d %v", rec.Code, body)
	}

	// Bad parameters are 400s.
	for _, target := range []string{"/v1/events?since=x", "/v1/events?limit=0", "/v1/events?wait=x"} {
		if rec, _ := do(t, h, "GET", target, ""); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s: %d, want 400", target, rec.Code)
		}
	}
}

// TestRunSimFeedsEvents drives the sim source and expects the scenario's
// typed incidents — including the hijack announce — to reach the feed
// and the per-type counters.
func TestRunSimFeedsEvents(t *testing.T) {
	_, dt := testSetup(t)
	s := New(dt)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- s.RunSim(ctx, sim.Config{
			Scenario:      "hijack-window",
			Seed:          1,
			World:         testWorld,
			Tick:          10 * time.Second,
			Duration:      4 * time.Minute,
			SampleEvery:   1000, // probes are wall-clock expensive and irrelevant here
			SampleDomains: 10,
		}, time.Millisecond)
	}()

	h := s.Handler()
	deadline := time.After(30 * time.Second)
	var sawHijack bool
	for !sawHijack {
		select {
		case err := <-errc:
			t.Fatalf("sim source ended early: %v", err)
		case <-deadline:
			t.Fatal("no bgp.hijack_announce event within 30s")
		case <-time.After(20 * time.Millisecond):
		}
		_, body := do(t, h, "GET", "/v1/events?limit=500", "")
		for _, e := range body["events"].([]any) {
			ev := e.(map[string]any)
			if ev["event_type"] == "bgp.hijack_announce" {
				sawHijack = true
				if ev["feed"] != "bgp" || ev["scenario"] != "hijack-window" {
					t.Fatalf("hijack event fields: %v", ev)
				}
				if ev["attributes"].(map[string]any)["name"] != "cdn-subprefix" {
					t.Fatalf("hijack attributes: %v", ev["attributes"])
				}
			}
		}
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("sim source: %v", err)
	}

	rec := scrape(t, h)
	if !strings.Contains(rec, `ripki_serve_events_total{event_type="bgp.hijack_announce"}`) {
		t.Error("metrics missing the hijack_announce event counter")
	}
	if !strings.Contains(rec, `ripki_serve_events_total{event_type="serve.snapshot_publish"}`) {
		t.Error("metrics missing the snapshot_publish event counter")
	}
	if !strings.Contains(rec, "ripki_serve_events_last_seq") {
		t.Error("metrics missing ripki_serve_events_last_seq")
	}
	if !strings.Contains(rec, `ripki_build_info{version="dev",go_version="go`) {
		t.Error("metrics missing ripki_build_info")
	}
}

// TestHealthzDegradedOnStaleness: with a max staleness armed and a live
// source that stops publishing, /healthz flips to 503 degraded with a
// machine-readable reason; fresh publishes restore 200.
func TestHealthzDegradedOnStaleness(t *testing.T) {
	s := testService(t)
	s.SetHealthMaxStaleness(50 * time.Millisecond)
	h := s.Handler()

	// "world" is not a live source, so staleness never applies to it.
	rec, _ := do(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz with no live sources: %d", rec.Code)
	}

	s.markLive("rtr")
	time.Sleep(80 * time.Millisecond)
	rec, body := do(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("stale live source: %d %v", rec.Code, body)
	}
	if body["status"] != "degraded" || body["source"] != "rtr" {
		t.Fatalf("degraded body: %v", body)
	}
	if body["age_seconds"].(float64) <= body["max_seconds"].(float64) {
		t.Fatalf("degraded ages: %v", body)
	}
	if !strings.Contains(body["reason"].(string), "rtr") {
		t.Fatalf("reason does not name the source: %v", body["reason"])
	}

	// A fresh publish from the live source clears the degradation.
	if _, err := s.PublishSet(testWorld.Validation().VRPs, "rtr", 2); err != nil {
		t.Fatal(err)
	}
	rec, body = do(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("post-publish healthz: %d %v", rec.Code, body)
	}
}
