package sim

import (
	"bytes"
	"container/heap"
	"reflect"
	"testing"
	"time"

	"ripki/internal/rib"
	"ripki/internal/router"
)

// runJSON runs a config and returns the full JSON export — series rows
// AND the recorded event stream, so a comparison catches serial drift,
// refresh bookkeeping, and flush behaviour, not just the sampled rows.
func runJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	ts, err := runScenario(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Scenario, err)
	}
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runHooked runs s to its horizon stepping the queue itself, exactly as
// Step does, with before and after called around every event: how the
// oracles in this package reach between the events of a tick to defeat
// one of the engine's shortcuts through the engine's own fallback.
func runHooked(t *testing.T, s *Simulation, before, after func(class int)) {
	t.Helper()
	for s.err == nil && !s.now.After(s.end) {
		for len(s.Queue.h) > 0 && !s.Queue.h[0].at.After(s.now) {
			e := heap.Pop(&s.Queue.h).(*event)
			before(e.class)
			e.fn()
			after(e.class)
		}
		s.now = s.now.Add(s.Cfg.Tick)
		s.tick++
	}
	if s.err != nil {
		t.Fatalf("%s: %v", s.Cfg.Scenario, s.err)
	}
}

// runEverythingDirty runs cfg on the same engine with every O(changes)
// shortcut defeated through the engine's own fallbacks, so each tick
// recomputes the world: needFull before every flush (the cold-restart
// path: the whole truth set pushed and diffed, not the pending delta),
// measure.Incremental.DirtyAll before every probe (every sampled domain
// re-measured), and a full Router.Revalidate after every refresh — which
// must find nothing left to do, or delta-scoped revalidation missed a
// route.
func runEverythingDirty(t *testing.T, cfg Config) []byte {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Scenario, err)
	}
	defer s.Close()
	runHooked(t, s, func(class int) {
		switch class {
		case classFlush:
			s.needFull = true
		case classProbe:
			s.inc.DirtyAll()
		}
	}, func(class int) {
		if class == classRefresh {
			assertRevalidateIsNoop(t, s)
		}
	})
	var buf bytes.Buffer
	if err := s.Series.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertRevalidateIsNoop runs a full Adj-RIB-In revalidation on every
// relying party that just refreshed and fails if it moved anything: a route in or out of
// the local RIB, or where traffic to a hijack victim is forwarded.
// Revalidation re-applies the very events the table was built from, so
// it can only withdraw an installed route (counted in Dropped) or
// install a missing one (the route count grows) — each of which it
// counts in Flipped; neither happening means the router is unchanged.
func assertRevalidateIsNoop(t *testing.T, s *Simulation) {
	t.Helper()
	forwards := func(rp *RP) []rib.PrefixOrigin {
		out := make([]rib.PrefixOrigin, len(s.hijacks))
		for i, h := range s.hijacks {
			out[i], _ = rp.Router.Forward(h.Victim)
		}
		return out
	}
	for _, rp := range s.RPs {
		if rp.Client == nil || s.tick%rp.Spec.RefreshTicks != 0 {
			continue // did not refresh this tick
		}
		routes, fwd := len(localRoutes(rp.Router)), forwards(rp)
		res := rp.Router.Revalidate()
		if now := len(localRoutes(rp.Router)); res.Flipped != 0 || res.Dropped != 0 || now != routes {
			t.Fatalf("tick %d: full revalidation changed %s's table after a delta-scoped refresh: %d -> %d routes, %+v",
				s.tick, rp.Spec.Name, routes, now, res)
		}
		if now := forwards(rp); !reflect.DeepEqual(fwd, now) {
			t.Fatalf("tick %d: full revalidation moved %s's hijack forwarding: %v -> %v", s.tick, rp.Spec.Name, fwd, now)
		}
	}
}

// TestIncrementalMatchesFull is the O(changes) engine's contract: for
// every registered scenario (and a three-way composition), an ordinary
// run — dirty-set probe, delta cache updates, delta-scoped
// revalidation — exports JSON (rows and event stream) byte-identical to
// the same engine recomputing everything every tick. Full recompute is
// not a second engine; it is this one with everything marked dirty.
func TestIncrementalMatchesFull(t *testing.T) {
	specs := append(Names(), "hijack-window+rp-lag+roa-churn")
	for _, name := range specs {
		t.Run(name, func(t *testing.T) {
			inc := runJSON(t, testConfig(name))
			full := runEverythingDirty(t, testConfig(name))
			if !bytes.Equal(inc, full) {
				t.Errorf("ordinary and everything-dirty runs differ for %s:\n--- ordinary ---\n%s\n--- everything dirty ---\n%s", name, inc, full)
			}
		})
	}
}

// TestParallelRefreshRace hammers the concurrent per-RP paths — the
// refresh dispatcher's parallel poll + revalidate and the probe's
// parallel hijack-forward sampling — with a wide roster of coinciding
// cadences and active hijack campaigns. Its real teeth are under
// `go test -race`; without the race detector it still asserts the run
// completes and samples every RP column.
func TestParallelRefreshRace(t *testing.T) {
	roster := []RPSpec{
		{Name: "rp-a", RefreshTicks: 1, Policy: router.PolicyDropInvalid},
		{Name: "rp-b", RefreshTicks: 1, Policy: router.PolicyDropInvalid},
		{Name: "rp-c", RefreshTicks: 2, Policy: router.PolicyDropInvalid},
		{Name: "rp-d", RefreshTicks: 2, Policy: router.PolicyDropInvalid},
		{Name: "rp-e", RefreshTicks: 3, Policy: router.PolicyDropInvalid},
		{Name: "rp-f", RefreshTicks: 3, Policy: router.PolicyAcceptAll},
		{Name: "legacy", RefreshTicks: 0, Policy: router.PolicyAcceptAll},
		{Name: "rp-g", RefreshTicks: 1, Policy: router.PolicyDropInvalid},
	}
	cfg := testConfig("roa-churn+route-leak+" + registerRoster(t, roster))
	cfg.Duration = 5 * time.Minute
	ts, err := runScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Rows) == 0 {
		t.Fatal("no samples recorded")
	}
	for _, rp := range roster {
		if ts.Column("hijacked_"+rp.Name) == nil {
			t.Errorf("missing hijacked_%s column", rp.Name)
		}
	}
}
