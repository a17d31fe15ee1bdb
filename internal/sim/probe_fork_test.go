package sim

import (
	"bytes"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"ripki/internal/dns"
	"ripki/internal/measure"
	"ripki/internal/rpki/vrp"
	"ripki/internal/webworld"
)

// runOutputs runs cfg and returns everything a run can export — the TSV,
// the JSON document (rows and event stream) and the incident JSONL — and
// the engine's work counts. With lazyProbe the probe's dataset is not
// the fork New took from the world's shared measurement: at the first
// probe it is replaced by one built privately, by the same constructor,
// from the world as Setup left it — how the engine obtained it before
// measurements were shared, kept here as the oracle.
func runOutputs(t *testing.T, cfg Config, lazyProbe bool) (tsv, js, incidents []byte, work workCounts) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Scenario, err)
	}
	defer s.Close()
	log := &IncidentLog{}
	s.AttachIncidents(log.Add)
	built := false
	runHooked(t, s, func(class int) {
		if !lazyProbe || built || class != classProbe {
			return
		}
		built = true
		inc, err := measure.NewIncremental(sampleList(s.World.List, s.Cfg.SampleDomains), measure.Config{
			Resolver: dns.RegistryResolver{Registry: s.World.Registry},
			RIB:      s.World.RIB,
			VRPs:     s.truth,
			BinWidth: s.headCut,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.inc = inc
		s.World.Registry.SetMutationHook(inc.DirtyHost)
	}, func(int) {})
	var tb, jb, ib bytes.Buffer
	if err := s.Series.WriteTSV(&tb); err != nil {
		t.Fatal(err)
	}
	if err := s.Series.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := log.WriteJSONL(&ib); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes(), ib.Bytes(), s.work
}

func sameOutputs(t *testing.T, what string, gotTSV, gotJS, gotInc, wantTSV, wantJS, wantInc []byte) {
	t.Helper()
	if !bytes.Equal(gotTSV, wantTSV) {
		t.Errorf("%s: TSV differs:\n--- got ---\n%s\n--- want ---\n%s", what, gotTSV, wantTSV)
	}
	if !bytes.Equal(gotJS, wantJS) {
		t.Errorf("%s: JSON export (rows and events) differs", what)
	}
	if !bytes.Equal(gotInc, wantInc) {
		t.Errorf("%s: incident stream differs:\n--- got ---\n%s\n--- want ---\n%s", what, gotInc, wantInc)
	}
}

// TestSharedProbeMatchesPrivate: where a run's probe dataset came from
// shows in no output. Every registered scenario, and a composition that
// writes DNS and VRPs both, exports the same TSV, JSON and incident
// bytes (a) on a world of its own, whose memo is cold, so this run
// builds the shared measurement, (b) on a clone of a snapshot whose memo
// a different scenario's run warmed — one that went on to re-point hosts
// and churn ROAs on its own clone — and (c) with the dataset built
// privately at the first probe, after Setup, as it used to be.
func TestSharedProbeMatchesPrivate(t *testing.T) {
	w, err := webworld.Generate(webworld.Config{Seed: 1, Domains: 4000})
	if err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	on := func(name string) Config {
		cfg := testConfig(name)
		cfg.World = snap.Clone()
		return cfg
	}
	// Every clone's validation is this one memoised result; its VRP set is
	// what each run's truth is cloned from and its RTR cache is handed.
	validated := w.Validation().VRPs
	before := validated.All()
	runOutputs(t, on("cdn-migration+roa-churn"), false)

	for _, name := range append(Names(), "cdn-migration+roa-churn") {
		t.Run(name, func(t *testing.T) {
			coldTSV, coldJS, coldInc, _ := runOutputs(t, testConfig(name), false)
			warmTSV, warmJS, warmInc, _ := runOutputs(t, on(name), false)
			lazyTSV, lazyJS, lazyInc, lazy := runOutputs(t, on(name), true)
			sameOutputs(t, "forked from a warm memo vs building it", warmTSV, warmJS, warmInc, coldTSV, coldJS, coldInc)
			sameOutputs(t, "forked before Setup vs built privately after it", warmTSV, warmJS, warmInc, lazyTSV, lazyJS, lazyInc)
			if lazy.measured < testConfig(name).SampleDomains {
				t.Errorf("the private oracle measured %d domains: it did not build its own dataset", lazy.measured)
			}
		})
	}
	if w.Registry.Written() {
		t.Error("a run wrote the snapshot's own registry")
	}
	if !slices.Equal(validated.All(), before) {
		t.Error("a run wrote the world's validated VRP set")
	}
}

// TestAdoptedWorldEditedByEarlierRun: the shared measurement is of the
// generated DNS, so it must not stand in on a world whose DNS has moved.
// A caller that runs cdn-migration on a world it adopted — no clone, the
// run edits the world's own registry — and then a second scenario on the
// same world gets, for the second, the output of a dataset built from
// the edited registry, not a fork of the pristine one the first run left
// on the memo.
func TestAdoptedWorldEditedByEarlierRun(t *testing.T) {
	migrated := func() *webworld.World {
		w, err := webworld.Generate(webworld.Config{Seed: 1, Domains: 4000})
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig("cdn-migration")
		cfg.World = w
		runOutputs(t, cfg, false)
		if !w.Registry.Written() {
			t.Fatal("cdn-migration left the adopted world's registry unwritten")
		}
		return w
	}
	second := func(lazy bool) (tsv, js, inc []byte, work workCounts) {
		cfg := testConfig("hijack-window")
		cfg.World = migrated()
		return runOutputs(t, cfg, lazy)
	}
	gotTSV, gotJS, gotInc, work := second(false)
	wantTSV, wantJS, wantInc, _ := second(true)
	sameOutputs(t, "second run on an edited world vs a dataset built from it", gotTSV, gotJS, gotInc, wantTSV, wantJS, wantInc)
	if n := testConfig("hijack-window").SampleDomains; work.measured < n {
		t.Errorf("second run measured %d domains, want at least its whole sample of %d: it forked the pristine measurement", work.measured, n)
	}
	// And the edit matters to it, or the comparison above proves nothing.
	if pristineTSV, _, _, _ := runOutputs(t, testConfig("hijack-window"), false); bytes.Equal(gotTSV, pristineTSV) {
		t.Error("hijack-window reads the same on the migrated world and the pristine one: the test has no teeth")
	}
}

// setupWrites is a scenario that changes the world in Setup, before any
// clock tick: it signs an unprotected CDN prefix, revokes a standing
// payload and re-homes a delivery host.
func setupWrites(s *Simulation, _ Params) error {
	prefix, origin, err := unsignedCDNPrefix(s, "akamai")
	if err != nil {
		return err
	}
	s.IssueVRP(vrp.VRP{Prefix: prefix, MaxLength: prefix.Bits(), ASN: origin}, "signed at set-up")
	s.RevokeVRP(s.TruthVRPs()[0], "revoked at set-up")
	for _, host := range s.World.CacheHosts("akamai")[:20] {
		s.World.Registry.Remove(host, dns.TypeA)
		s.World.Registry.Add(dns.RR{Name: host, Type: dns.TypeA, TTL: 20, Addr: netip.MustParseAddr("203.0.113.77")})
	}
	return nil
}

// TestSetupWritesMarkTheFork: the probe's dataset is forked before Setup
// runs, so what Setup issues, revokes and re-points reaches it through
// the same hooks as any later event, and the t=0 row already shows it —
// the row a dataset built after Setup records.
func TestSetupWritesMarkTheFork(t *testing.T) {
	Register(Scenario{Name: "setup-writes", Description: "test: VRP and DNS writes made during Setup", Setup: setupWrites})
	defer delete(scenarios, "setup-writes")
	w, err := webworld.Generate(webworld.Config{Seed: 1, Domains: 4000})
	if err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	on := func(name string) Config {
		cfg := testConfig(name)
		cfg.World = snap.Clone()
		return cfg
	}
	baseTSV, _, _, _ := runOutputs(t, on("baseline"), false)
	gotTSV, gotJS, gotInc, work := runOutputs(t, on("setup-writes"), false)
	wantTSV, wantJS, wantInc, _ := runOutputs(t, on("setup-writes"), true)
	sameOutputs(t, "forked before Setup vs built after it", gotTSV, gotJS, gotInc, wantTSV, wantJS, wantInc)
	if work.measured == 0 || work.measured >= testConfig("").SampleDomains {
		t.Errorf("measured %d domains: want only those Setup's writes reach, not none and not the sample", work.measured)
	}
	row0 := func(tsv []byte) string { return strings.Split(string(tsv), "\n")[2] }
	if row0(gotTSV) == row0(baseTSV) {
		t.Errorf("the t=0 row does not show Setup's writes: %q", row0(gotTSV))
	}
}
