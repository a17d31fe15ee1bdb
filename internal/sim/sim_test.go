package sim

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"ripki/internal/webworld"
)

// runScenario runs cfg to its horizon.
func runScenario(cfg Config) (*TimeSeries, error) {
	return RunScenarioContext(context.Background(), cfg)
}

// registerRoster registers, for the test's duration, a scenario that
// schedules nothing and brings the given relying-party roster, and
// returns its name to compose into a spec.
func registerRoster(t *testing.T, specs []RPSpec) string {
	t.Helper()
	const name = "test-roster"
	Register(Scenario{Name: name, Roster: func(Params) []RPSpec { return specs }})
	t.Cleanup(func() { delete(scenarios, name) })
	return name
}

// testConfig is a small, fast world: 48 ticks of 10s over 4k domains.
func testConfig(scenario string) Config {
	return Config{
		Scenario:      scenario,
		Seed:          1,
		Domains:       4000,
		Tick:          10 * time.Second,
		Duration:      8 * time.Minute,
		SampleEvery:   4,
		SampleDomains: 400,
	}
}

func runTSV(t *testing.T, cfg Config) (*TimeSeries, []byte) {
	t.Helper()
	ts, err := runScenario(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Scenario, err)
	}
	var buf bytes.Buffer
	if err := ts.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return ts, buf.Bytes()
}

// TestDeterminism is the subsystem's hard requirement: same seed + config
// ⇒ byte-identical output, for every registered scenario.
func TestDeterminism(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			_, a := runTSV(t, testConfig(name))
			_, b := runTSV(t, testConfig(name))
			if !bytes.Equal(a, b) {
				t.Errorf("two runs of %s differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", name, a, b)
			}
		})
	}
}

func TestSeedChangesOutput(t *testing.T) {
	_, a := runTSV(t, testConfig("roa-churn"))
	cfg := testConfig("roa-churn")
	cfg.Seed = 2
	_, b := runTSV(t, cfg)
	if bytes.Equal(a, b) {
		t.Error("different seeds produced identical series")
	}
}

// TestHijackWindow checks the headline story: every router is hijacked
// while the prefix is unprotected; after the emergency ROA propagates the
// validating RPs recover (fast no later than slow) while the accept-all
// legacy router stays hijacked until the attacker withdraws.
func TestHijackWindow(t *testing.T) {
	ts, _ := runTSV(t, testConfig("hijack-window"))
	active := ts.Column("hijacks")
	fast := ts.Column("hijacked_rp-fast")
	slow := ts.Column("hijacked_rp-slow")
	legacy := ts.Column("hijacked_legacy")
	if fast == nil || slow == nil || legacy == nil {
		t.Fatalf("missing hijack columns in %v", ts.Columns)
	}
	window := func(col []float64) int {
		n := 0
		for _, v := range col {
			n += int(v)
		}
		return n
	}
	if window(legacy) == 0 {
		t.Fatal("legacy router was never hijacked — attack did not land")
	}
	if window(fast) == 0 {
		t.Error("validating router was never hijacked — no exposure window before the ROA")
	}
	if !(window(fast) <= window(slow) && window(slow) <= window(legacy)) {
		t.Errorf("windows not ordered: fast=%d slow=%d legacy=%d", window(fast), window(slow), window(legacy))
	}
	// While the hijack is active but before the ROA exists, everyone is
	// hijacked; once it is withdrawn everyone recovers.
	last := len(active) - 1
	if active[last] != 0 || legacy[last] != 0 {
		t.Errorf("hijack still active at the end: active=%v legacy=%v", active[last], legacy[last])
	}
	// The ROA must appear in the truth VRP count mid-run.
	vrps := ts.Column("vrps")
	if vrps[0] >= vrps[last] {
		t.Errorf("emergency ROA not visible in vrps: first=%v last=%v", vrps[0], vrps[last])
	}
}

// TestMaxlenMisissuance checks the forged-origin story: under the loose
// ROA the hijack validates Valid, so even drop-invalid routers stay
// hijacked; narrowing the ROA back drops it.
func TestMaxlenMisissuance(t *testing.T) {
	ts, _ := runTSV(t, testConfig("maxlen-misissuance"))
	fast := ts.Column("hijacked_rp-fast")
	if fast == nil {
		t.Fatalf("missing column in %v", ts.Columns)
	}
	hijackedEver := false
	for _, v := range fast {
		if v > 0 {
			hijackedEver = true
		}
	}
	if !hijackedEver {
		t.Error("drop-invalid router never hijacked: the loose maxLength should have validated the attack")
	}
	if fast[len(fast)-1] != 0 {
		t.Error("hijack survived the ROA fix")
	}
}

// TestROAChurn checks serial advance and RP convergence under churn.
func TestROAChurn(t *testing.T) {
	ts, _ := runTSV(t, testConfig("roa-churn"))
	serial := ts.Column("serial")
	vrps := ts.Column("vrps")
	fast := ts.Column("vrps_rp-fast")
	last := len(serial) - 1
	if serial[last] == 0 {
		t.Error("serial never advanced under churn")
	}
	if vrps[last] <= vrps[0] {
		t.Errorf("coverage did not ramp: %v -> %v", vrps[0], vrps[last])
	}
	// rp-fast refreshes every tick, after the flush: at every sample it
	// has fully caught up with the ground truth.
	for i := range fast {
		if fast[i] != vrps[i] {
			t.Errorf("sample %d: rp-fast has %v VRPs, truth %v", i, fast[i], vrps[i])
		}
	}
}

// TestRTRRestartCold checks the cold-restart outage: some sample shows
// the fast RP briefly holding zero VRPs, and the run ends reconverged.
func TestRTRRestartCold(t *testing.T) {
	cfg := testConfig("rtr-restart")
	cfg.SampleEvery = 1 // the outage window is 2 ticks wide
	ts, _ := runTSV(t, cfg)
	fast := ts.Column("vrps_rp-fast")
	vrps := ts.Column("vrps")
	sawOutage := false
	for _, v := range fast {
		if v == 0 {
			sawOutage = true
		}
	}
	if !sawOutage {
		t.Error("cold restart: rp-fast never served an empty set")
	}
	last := len(fast) - 1
	if fast[last] != vrps[last] || vrps[last] == 0 {
		t.Errorf("did not reconverge: rp-fast=%v truth=%v", fast[last], vrps[last])
	}
}

// TestCDNMigration checks the DNS mutation path end to end: migrating a
// CDN's fleet into the signing CDN's space changes measured exposure.
func TestCDNMigration(t *testing.T) {
	ts, _ := runTSV(t, testConfig("cdn-migration"))
	valid := ts.Column("valid")
	first, last := valid[0], valid[len(valid)-1]
	if last <= first {
		t.Errorf("migration into signed space did not raise valid fraction: %v -> %v", first, last)
	}
	sawDNS := false
	for _, e := range ts.Events {
		if e.Topic == TopicDNS {
			sawDNS = true
			break
		}
	}
	if !sawDNS {
		t.Error("no DNS events published during migration")
	}
}

// TestRPLagRoster checks the scenario-supplied relying-party roster and
// the staircase: the slow RP holds no more VRPs than the fast one at
// every sample while coverage ramps.
func TestRPLagRoster(t *testing.T) {
	ts, _ := runTSV(t, testConfig("rp-lag"))
	fast := ts.Column("vrps_rp-1t")
	slow := ts.Column("vrps_rp-20t")
	if fast == nil || slow == nil {
		t.Fatalf("lag roster columns missing: %v", ts.Columns)
	}
	for i := range fast {
		if slow[i] > fast[i] {
			t.Errorf("sample %d: slow RP ahead of fast (%v > %v)", i, slow[i], fast[i])
		}
	}
}

// TestBaseline: no events, no serial motion, constant series.
func TestBaseline(t *testing.T) {
	ts, _ := runTSV(t, testConfig("baseline"))
	serial := ts.Column("serial")
	vrps := ts.Column("vrps")
	for i := range serial {
		if serial[i] != 0 {
			t.Errorf("sample %d: serial %v in a static world", i, serial[i])
		}
		if vrps[i] != vrps[0] {
			t.Errorf("sample %d: vrps moved %v -> %v", i, vrps[0], vrps[i])
		}
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	ts1, _ := runTSV(t, testConfig("hijack-window"))
	ts2, _ := runTSV(t, testConfig("hijack-window"))
	var a, b bytes.Buffer
	if err := ts1.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := ts2.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("JSON output differs between identical runs")
	}
}

// TestNegativeTimingRefused: a negative tick would reschedule recurring
// events into the past for ever, and a negative horizon records nothing;
// New refuses both, naming the field, before it builds a world.
func TestNegativeTimingRefused(t *testing.T) {
	for field, cfg := range map[string]Config{
		"Tick":     {Tick: -time.Second, Duration: 2 * time.Minute},
		"Duration": {Duration: -2 * time.Minute},
	} {
		s, err := New(cfg)
		if err == nil {
			s.Close()
			t.Errorf("negative %s accepted", field)
		} else if !strings.Contains(err.Error(), field) {
			t.Errorf("negative %s refused without naming it: %v", field, err)
		}
	}
}

func TestUnknownScenario(t *testing.T) {
	if _, err := New(Config{Scenario: "no-such-thing"}); err == nil {
		t.Error("expected error for unknown scenario")
	}
}

func TestStepAndClose(t *testing.T) {
	s, err := New(testConfig("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for s.Step() {
		steps++
	}
	if steps == 0 {
		t.Error("no steps ran")
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if s.Step() {
		t.Error("Step after Close should be false")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestRouteLeak checks OV's partial answer to leaks: the accept-all
// legacy router follows every leaked more-specific, drop-invalid routers
// follow only the unsigned ones, and the run ends clean.
func TestRouteLeak(t *testing.T) {
	ts, _ := runTSV(t, testConfig("route-leak"))
	active := ts.Column("hijacks")
	fast := ts.Column("hijacked_rp-fast")
	legacy := ts.Column("hijacked_legacy")
	peak := 0.0
	peakFast, peakLegacy := 0.0, 0.0
	for i := range active {
		if active[i] > peak {
			peak = active[i]
		}
		if fast[i] > peakFast {
			peakFast = fast[i]
		}
		if legacy[i] > peakLegacy {
			peakLegacy = legacy[i]
		}
	}
	if peak == 0 {
		t.Fatal("no leaks were ever active")
	}
	if peakLegacy != peak {
		t.Errorf("legacy followed %v of %v leaks, want all", peakLegacy, peak)
	}
	if peakFast == 0 {
		t.Error("drop-invalid router followed no leaks — the unsigned fraction should get through")
	}
	if peakFast >= peakLegacy {
		t.Errorf("drop-invalid followed %v leaks, legacy %v: OV should have dropped the signed fraction", peakFast, peakLegacy)
	}
	last := len(active) - 1
	if active[last] != 0 || legacy[last] != 0 {
		t.Errorf("leaks still active at the end: active=%v legacy=%v", active[last], legacy[last])
	}
}

// TestTrustAnchorOutage checks the outage story: the truth VRP count
// collapses and recovers, the mid-outage hijack lands on the fast
// validating router (the protecting ROA is gone), and everyone is clean
// after recovery + refresh.
func TestTrustAnchorOutage(t *testing.T) {
	ts, _ := runTSV(t, testConfig("trust-anchor-outage"))
	vrps := ts.Column("vrps")
	fast := ts.Column("hijacked_rp-fast")
	legacy := ts.Column("hijacked_legacy")
	minVRPs, maxVRPs := vrps[0], vrps[0]
	for _, v := range vrps {
		if v < minVRPs {
			minVRPs = v
		}
		if v > maxVRPs {
			maxVRPs = v
		}
	}
	if minVRPs >= maxVRPs {
		t.Errorf("VRP count never dropped during the outage: min=%v max=%v", minVRPs, maxVRPs)
	}
	last := len(vrps) - 1
	if vrps[last] != vrps[0] {
		t.Errorf("VRP count did not recover: start=%v end=%v", vrps[0], vrps[last])
	}
	window := func(col []float64) int {
		n := 0
		for _, v := range col {
			n += int(v)
		}
		return n
	}
	if window(legacy) == 0 {
		t.Fatal("mid-outage hijack never landed on the legacy router")
	}
	if window(fast) == 0 {
		t.Error("drop-invalid router never hijacked: with the TA dark the hijack validates NotFound")
	}
	if fast[last] != 0 || legacy[last] != 0 {
		t.Errorf("hijack survived recovery: fast=%v legacy=%v", fast[last], legacy[last])
	}
}

// TestDelegatedCACompromise checks the rogue-ROA story: the hijack
// validates Valid on synced drop-invalid routers, and revoking the rogue
// ROA kills it.
func TestDelegatedCACompromise(t *testing.T) {
	ts, _ := runTSV(t, testConfig("delegated-ca-compromise"))
	fast := ts.Column("hijacked_rp-fast")
	vrps := ts.Column("vrps")
	hijackedEver := false
	for _, v := range fast {
		if v > 0 {
			hijackedEver = true
		}
	}
	if !hijackedEver {
		t.Error("drop-invalid router never hijacked: the rogue ROA should have validated the attack")
	}
	last := len(fast) - 1
	if fast[last] != 0 {
		t.Error("hijack survived the rogue ROA revocation")
	}
	if vrps[last] != vrps[0] {
		t.Errorf("rogue ROA not cleaned up: vrps %v -> %v", vrps[0], vrps[last])
	}
}

// TestParamsBool: a bool param takes every strconv.ParseBool spelling,
// reads its declared default when absent, and a malformed value is
// refused, not read as the default.
func TestParamsBool(t *testing.T) {
	for spelling, want := range map[string]bool{"1": true, "t": true, "True": true, "0": false, "f": false, "False": false} {
		if got := params(t, "rtr-restart", Params{"cold": spelling})["rtr-restart"].Bool("cold"); got != want {
			t.Errorf("Bool(%q) = %v, want %v", spelling, got, want)
		}
	}
	if !params(t, "rtr-restart", nil)["rtr-restart"].Bool("cold") {
		t.Error("absent key should read the declared default, true")
	}
	_, err := NewScenario("rtr-restart", Params{"cold": "yes"})
	if err == nil || !strings.Contains(err.Error(), "cold") || !strings.Contains(err.Error(), "rtr-restart") {
		t.Errorf("malformed value should be refused, naming the key and the scenario: %v", err)
	}
}

// TestAdoptedWorldSetsDomains: a simulation handed a world is the size
// of that world, not of the Domains default — the head/tail split and
// the series header both follow it — and a Domains that contradicts the
// world is refused.
func TestAdoptedWorldSetsDomains(t *testing.T) {
	w, err := webworld.Generate(webworld.Config{Seed: 3, Domains: 500})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := runScenario(Config{Scenario: "baseline", Seed: 3, World: w, Tick: 10 * time.Second, Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ts.Meta, "domains=500 ") {
		t.Errorf("series header %q, want domains=500", ts.Meta)
	}
	if tail := ts.Column("tail_valid")[0]; tail <= 0 {
		t.Errorf("tail_valid = %v: every sampled rank fell in the head", tail)
	}
	if _, err := New(Config{Scenario: "baseline", World: w, Domains: 20000}); err == nil {
		t.Error("Domains 20000 over a 500-domain world was accepted")
	}
}
