package sim

import (
	"bytes"
	"testing"

	"ripki/internal/dns"
	"ripki/internal/webworld"
)

// runRefreshes runs cfg with the incident recorder attached and returns
// the JSON export (rows and event stream), the incident JSONL and the
// engine's work counts. With forcePolls every refresh goes to the wire:
// ahead of every refresh dispatch each RP's memo of the cache state it
// last synced at is pointed at a serial the cache is not serving, so the
// engine's own poll path runs where it would have skipped.
func runRefreshes(t *testing.T, cfg Config, forcePolls bool) (js, incidents []byte, work workCounts) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Scenario, err)
	}
	defer s.Close()
	log := &IncidentLog{}
	s.AttachIncidents(log.Add)
	runHooked(t, s, func(class int) {
		if forcePolls && class == classRefresh {
			for _, rp := range s.RPs {
				rp.synced.serial = s.Server.Serial() + 1
			}
		}
	}, func(int) {})
	var jb, ib bytes.Buffer
	if err := s.Series.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := log.WriteJSONL(&ib); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), ib.Bytes(), s.work
}

// TestPollSkipMatchesForcedPolls: not polling an RP that is already at
// the cache's (session, serial) changes nothing an output can show. For
// every registered scenario, and a cold restart under churn, the run
// that skips exports the bytes — series, event stream, incidents — of
// the run that puts every refresh on the wire, where each skipped poll
// is an empty Cache Response / End of Data round trip: the same number
// of refreshes, the same routes revalidated, the same flips.
func TestPollSkipMatchesForcedPolls(t *testing.T) {
	skippedAny := false
	for _, name := range append(Names(), "rtr-restart+roa-churn") {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(name)
			if name == "rtr-restart+roa-churn" {
				cfg.Params = Params{"cold": "true"}
			}
			js, inc, work := runRefreshes(t, cfg, false)
			fjs, finc, forced := runRefreshes(t, cfg, true)
			if !bytes.Equal(js, fjs) {
				t.Errorf("series and events differ between skipped and forced polls:\n--- skipping ---\n%s\n--- every poll forced ---\n%s", js, fjs)
			}
			if !bytes.Equal(inc, finc) {
				t.Errorf("incident stream differs between skipped and forced polls:\n--- skipping ---\n%s\n--- every poll forced ---\n%s", inc, finc)
			}
			if forced.pollsSkipped != 0 || forced.polls != work.polls+work.pollsSkipped {
				t.Errorf("forced run: %+v; skipping run: %+v — want every refresh polled, and as many refreshes", forced, work)
			}
			if forced.reapplied != work.reapplied || forced.flipped != work.flipped {
				t.Errorf("a skipped poll hid revalidation work: forced %+v, skipping %+v", forced, work)
			}
			skippedAny = skippedAny || work.pollsSkipped > 0
		})
	}
	if !skippedAny {
		t.Error("no scenario skipped a poll: the comparison did not exercise the skip")
	}
}

// TestWorkCounts pins the run's work, in counts that are functions of
// seed and config and so hold on any machine. The refresh path: with no
// VRP churn no refresh after set-up goes to the wire and nothing is
// revalidated, let alone flipped; under churn and a hijack the wire is
// used, routes are re-applied, and those that flip are a part of those
// examined. The probe: on a world another run has measured, a run
// measures what its own events reach — nothing for baseline over its
// whole life, no more than was marked under ROA churn, and under a CDN
// migration exactly the sampled domains whose delivery hosts moved.
func TestWorkCounts(t *testing.T) {
	w, err := webworld.Generate(webworld.Config{Seed: 1, Domains: 4000})
	if err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	run := func(spec string) workCounts {
		cfg := testConfig(spec)
		cfg.World = snap.Clone()
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		defer s.Close()
		if s.work != (workCounts{}) {
			t.Errorf("%s: set-up counted as work: %+v", spec, s.work)
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		return s.work
	}
	// The first run on the world pays for the shared measurement, on the
	// shared dataset's own counter: a run's counts start at its fork.
	if w := run("cdn-migration+route-leak"); w.polls != 0 || w.pollsSkipped == 0 || w.reapplied != 0 || w.flipped != 0 {
		t.Errorf("cdn-migration+route-leak (no VRP churn): %+v, want every refresh skipped and nothing revalidated", w)
	}
	if w := run("hijack-window+roa-churn"); w.polls == 0 || w.flipped == 0 || w.flipped > w.reapplied {
		t.Errorf("hijack-window+roa-churn: %+v, want polls, and 0 < flipped <= reapplied", w)
	}

	if w := run("baseline"); w.marked != 0 || w.measured != 0 {
		t.Errorf("baseline on a measured world: %+v, want no domain marked or measured, the t=0 probe included", w)
	}
	if w := run("roa-churn"); w.measured == 0 || w.measured > w.marked {
		t.Errorf("roa-churn: %+v, want 0 < measured <= marked", w)
	}

	// cdn-migration re-homes every akamai host once. A sampled domain is
	// measured again when a host its resolution consulted moved since the
	// last probe: at least once if it consulted any, at most once per
	// host it consulted.
	moved := make(map[string]bool)
	for _, h := range w.CacheHosts("akamai") {
		moved[h] = true
	}
	resolver := dns.RegistryResolver{Registry: w.Registry}
	domains, touches := 0, 0
	for _, e := range sampleList(w.List, testConfig("").SampleDomains).Entries() {
		consulted := make(map[string]bool)
		for _, name := range []string{"www." + e.Domain, e.Domain} {
			res, err := resolver.LookupWeb(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range append(res.Chain, res.Name) {
				if moved[h] {
					consulted[h] = true
				}
			}
		}
		if len(consulted) > 0 {
			domains++
			touches += len(consulted)
		}
	}
	if domains == 0 {
		t.Fatal("no sampled domain is served from an akamai host")
	}
	if w := run("cdn-migration"); w.measured < domains || w.measured > touches || w.measured > w.marked {
		t.Errorf("cdn-migration: %+v, want %d <= measured <= %d (sampled domains on a moved host; hosts they consulted) and measured <= marked",
			w, domains, touches)
	}
}
