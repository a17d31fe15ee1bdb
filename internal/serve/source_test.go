package serve

import (
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"ripki/internal/netutil"
	"ripki/internal/rpki/vrp"
	"ripki/internal/rtr"
	"ripki/internal/sim"
)

// TestRunRTRReportsChangedPrefixes: each publish from the RTR source
// says on the feed how many prefixes the sync behind it touched — the
// whole table for the initial reset, the delta's prefixes afterwards —
// which also shows the source drains the client's changed-prefix record
// instead of letting it grow with the session; and which kind of sync
// it was, so a poll the cache answered with Cache Reset is visible. The
// first sync's duration joins the start-up gauges as phase rtr_sync.
func TestRunRTRReportsChangedPrefixes(t *testing.T) {
	at := func(prefix string, maxLen int, asn uint32) vrp.VRP {
		return vrp.VRP{Prefix: netutil.MustPrefix(prefix), MaxLength: maxLen, ASN: asn}
	}
	set, err := vrp.FromVRPs([]vrp.VRP{
		at("10.0.0.0/8", 8, 1), at("10.0.0.0/8", 9, 1), // one prefix, twice
		at("10.1.0.0/16", 16, 2), at("192.0.2.0/24", 24, 3), at("2001:db8::/32", 32, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := rtr.NewServer(set, 7)
	srv.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	s := New(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.RunRTR(ctx, ln.Addr().String()) }()
	waitSerial := func(serial uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for sn := s.Current(); sn == nil || sn.Serial < serial; sn = s.Current() {
			if time.Now().After(deadline) {
				t.Fatalf("snapshot %d not published after 5s", serial)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitSerial(1)
	// Two announcements at one new prefix and one withdrawal: two
	// prefixes. The duplicate announcement changes nothing anywhere.
	srv.UpdateDelta(
		[]vrp.VRP{at("10.2.0.0/16", 16, 5), at("10.2.0.0/16", 17, 5), at("10.1.0.0/16", 16, 2)},
		[]vrp.VRP{at("192.0.2.0/24", 24, 3)},
	)
	waitSerial(2)
	// The cache restarts: the next poll is answered with Cache Reset and
	// falls back to a full sync of the same four-prefix table.
	srv.ResetSession(8)
	waitSerial(3)
	var metrics strings.Builder
	if _, err := s.reg.WriteTo(&metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.String(), `ripki_serve_startup_seconds{phase="rtr_sync"}`) {
		t.Errorf("/metrics has no rtr_sync start-up phase after the first RTR publish:\n%s", metrics.String())
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	events, _, _ := s.events.since(0, 10)
	if len(events) != 3 {
		t.Fatalf("feed holds %d events, want the three publishes", len(events))
	}
	for i, want := range []struct{ changed, vrps, sync string }{{"4", "5", "reset"}, {"2", "6", "serial"}, {"4", "6", "reset"}} {
		a := events[i].Attributes
		if events[i].EventType != "serve.snapshot_publish" || a["changed_prefixes"] != want.changed || a["vrps"] != want.vrps || a["sync"] != want.sync {
			t.Errorf("publish %d: %s %v, want changed_prefixes=%s vrps=%s sync=%s", i+1, events[i].EventType, a, want.changed, want.vrps, want.sync)
		}
	}
}

// TestRunSimPublishesScenarioChurn drives the service from an
// in-process roa-churn scenario: the ground-truth VRP set changes over
// virtual time and every change must surface as a new snapshot.
func TestRunSimPublishesScenarioChurn(t *testing.T) {
	w, dt := testSetup(t)
	s := New(dt)
	cfg := sim.Config{
		Scenario:      "roa-churn",
		Seed:          3,
		Domains:       w.Cfg.Domains,
		Tick:          10 * time.Second,
		Duration:      3 * time.Minute, // 18 ticks, then the source returns
		SampleEvery:   1 << 20,         // the probe is irrelevant here
		SampleDomains: 50,
		World:         w,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.RunSim(ctx, cfg, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sn := s.Current()
	if sn == nil {
		t.Fatal("no snapshot published")
	}
	if sn.Source != "sim" {
		t.Fatalf("source = %q, want sim", sn.Source)
	}
	// The initial publish plus at least one churn-driven republish.
	if sn.Serial < 2 {
		t.Fatalf("serial = %d; roa-churn should have driven republishes", sn.Serial)
	}
	if sn.SourceSerial == 0 {
		t.Fatal("source serial (sim tick) not propagated")
	}
}

// TestRunSimComposedScenario replays a compound incident live: the
// composition syntax flows through the sim source untouched, so the
// service can serve a hijack window opening under relying-party lag.
func TestRunSimComposedScenario(t *testing.T) {
	w, dt := testSetup(t)
	s := New(dt)
	cfg := sim.Config{
		Scenario:      "hijack-window+roa-churn",
		Seed:          3,
		Domains:       w.Cfg.Domains,
		Tick:          10 * time.Second,
		Duration:      3 * time.Minute,
		SampleEvery:   1 << 20,
		SampleDomains: 50,
		World:         w,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.RunSim(ctx, cfg, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sn := s.Current()
	if sn == nil || sn.Source != "sim" {
		t.Fatalf("no sim snapshot published: %+v", sn)
	}
	// Both components mutate the truth: the emergency ROA and the churn
	// stream each force republishes beyond the initial snapshot.
	if sn.Serial < 3 {
		t.Fatalf("serial = %d; the composed scenario should have driven several republishes", sn.Serial)
	}
}

// TestRTRFullSyncReleasesTheSupersededTable: once the first RTR full
// sync is published, nothing in the service holds the CSV snapshot's
// table it superseded — not the events ring, not the source stats, not
// the RTR client — so a collection frees it. The source makes that collection itself, at the swap, once per
// full sync: a serial delta's publish makes none.
func TestRTRFullSyncReleasesTheSupersededTable(t *testing.T) {
	at := func(prefix string, maxLen int, asn uint32) vrp.VRP {
		return vrp.VRP{Prefix: netutil.MustPrefix(prefix), MaxLength: maxLen, ASN: asn}
	}
	set, err := vrp.FromVRPs([]vrp.VRP{at("10.0.0.0/8", 8, 1), at("192.0.2.0/24", 24, 3)})
	if err != nil {
		t.Fatal(err)
	}
	srv := rtr.NewServer(set, 7)
	srv.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	s := New(nil)
	csvSet, csvIndex := publishCSV(t, s, "10.0.0.0/8,8,1\n198.51.100.0/24,24,2\n")
	forced := func() uint32 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.NumForcedGC
	}
	waitFor := func(what string, done func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !done() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: not after 5s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	published := func(serial uint64) func() bool {
		return func() bool { sn := s.Current(); return sn.Serial >= serial }
	}
	beforeSync := forced()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.RunRTR(ctx, ln.Addr().String()) }()
	waitFor("the first RTR publish", published(2))
	waitFor("a collection at the swap", func() bool { return forced() > beforeSync })
	runtime.GC()
	if csvIndex.Value() != nil || csvSet.Value() != nil {
		t.Errorf("the CSV snapshot's table is reachable after the full sync's publish (index %v, set %v)",
			csvIndex.Value() != nil, csvSet.Value() != nil)
	}

	afterSync := forced()
	srv.UpdateDelta([]vrp.VRP{at("10.2.0.0/16", 16, 5)}, nil)
	waitFor("the first serial publish", published(3))
	// The source publishes one sync at a time, so once the next publish
	// is seen, any collection the one before it made has been counted.
	srv.UpdateDelta(nil, []vrp.VRP{at("10.2.0.0/16", 16, 5)})
	waitFor("the second serial publish", published(4))
	if n := forced() - afterSync; n != 0 {
		t.Errorf("a serial delta's publish forced %d collections, want none", n)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// publishCSV publishes the VRPs of a CSV export as the daemon's initial
// snapshot and returns weak pointers to the set read and the index the
// snapshot holds, keeping neither.
func publishCSV(t *testing.T, s *Service, csv string) (weak.Pointer[vrp.Set], weak.Pointer[vrp.Index]) {
	t.Helper()
	set, err := vrp.ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	sn, err := s.PublishSet(set, "csv", 0)
	if err != nil {
		t.Fatal(err)
	}
	return weak.Make(set), weak.Make(sn.Index)
}
