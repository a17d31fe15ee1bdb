package sim

import (
	"bytes"
	"strings"
	"testing"

	"ripki/internal/router"
)

// stripTSVHeader drops the "# ripki-sim scenario=..." comment line —
// the only place the scenario label appears in TSV output.
func stripTSVHeader(b []byte) []byte {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// TestParseSpec checks canonicalisation and rejection of empty parts.
func TestParseSpec(t *testing.T) {
	names, err := ParseSpec("rp-lag+roa-churn")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names, "+"); got != "roa-churn+rp-lag" {
		t.Errorf("canonical order = %q, want roa-churn+rp-lag", got)
	}
	for _, bad := range []string{"a+", "+a", "a++b", "+"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted an empty component", bad)
		}
	}
}

// TestCompositeConstruction checks registry validation, canonical
// naming, and descriptions for composition specs.
func TestCompositeConstruction(t *testing.T) {
	comp, err := NewScenario("rp-lag+roa-churn", nil)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Name() != "roa-churn+rp-lag" {
		t.Errorf("Name() = %q, want canonical roa-churn+rp-lag", comp.Name())
	}
	if _, err := NewScenario("roa-churn+no-such-thing", nil); err == nil {
		t.Error("unknown component accepted")
	}
}

// params returns the params routed to each component of a spec, by name.
func params(t *testing.T, spec string, p Params) map[string]Params {
	t.Helper()
	comp, err := NewScenario(spec, p)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Params{}
	for _, c := range comp.comps {
		byName[c.name] = c.params
	}
	return byName
}

// TestParamRouting checks the "name.key" prefix contract: routed keys
// reach only their component, undotted keys reach every component, and
// a prefix naming no component fails loudly.
func TestParamRouting(t *testing.T) {
	byName := params(t, "roa-churn+hijack-window", Params{
		"roa-churn.issue":   "5",
		"hijack-window.cdn": "cloudflare",
		"every_ticks":       "2",
	})
	if got := byName["roa-churn"].Int("issue"); got != 5 {
		t.Errorf("roa-churn issue = %d, want 5", got)
	}
	if _, leaked := byName["hijack-window"]["issue"]; leaked {
		t.Error("routed key leaked into the other component")
	}
	if got := byName["hijack-window"].String("cdn"); got != "cloudflare" {
		t.Errorf("hijack-window cdn = %q, want cloudflare", got)
	}
	// A shared key reaches the components that declare it, and only them.
	if got := byName["roa-churn"].Int("every_ticks"); got != 2 {
		t.Errorf("roa-churn: shared key every_ticks = %d, want 2", got)
	}
	if _, leaked := byName["hijack-window"]["every_ticks"]; leaked {
		t.Error("shared key reached a component that does not declare it")
	}
	// Every declared key is present, at its default unless given.
	if got := byName["hijack-window"].Float("roa_frac"); got != 0.4 {
		t.Errorf("hijack-window roa_frac = %v, want its default 0.4", got)
	}
	if got := byName["roa-churn"].Int("revoke"); got != 1 {
		t.Errorf("roa-churn revoke = %d, want its default 1", got)
	}
	if _, err := NewScenario("roa-churn+rp-lag", Params{"hijack-window.cdn": "akamai"}); err == nil {
		t.Error("param addressing a non-member component accepted")
	}
}

// TestComposeBaselineNoOp is the seed-stream regression test: composing
// with baseline (which schedules nothing) must be byte-identical to the
// component alone, modulo the scenario label in the header — proof that
// each component's RNG stream is keyed by (seed, name, occurrence), not
// by its position in a composition.
func TestComposeBaselineNoOp(t *testing.T) {
	alone, aloneTSV := runTSV(t, testConfig("roa-churn"))
	composed, composedTSV := runTSV(t, testConfig("roa-churn+baseline"))
	if composed.Scenario != "baseline+roa-churn" {
		t.Errorf("composite series labelled %q, want canonical baseline+roa-churn", composed.Scenario)
	}
	if !bytes.Equal(stripTSVHeader(aloneTSV), stripTSVHeader(composedTSV)) {
		t.Fatalf("roa-churn+baseline diverged from roa-churn alone:\n--- alone ---\n%s\n--- composed ---\n%s",
			aloneTSV, composedTSV)
	}
	if len(alone.Events) != len(composed.Events) {
		t.Fatalf("event counts differ: alone %d, composed %d", len(alone.Events), len(composed.Events))
	}
	for i := range alone.Events {
		if alone.Events[i] != composed.Events[i] {
			t.Fatalf("event %d differs: alone %+v, composed %+v", i, alone.Events[i], composed.Events[i])
		}
	}
}

// TestComposeOrderInsensitive: components run in canonical order and
// the series carries the canonical label, so the two spellings of a
// composition are byte-identical — header included.
func TestComposeOrderInsensitive(t *testing.T) {
	for _, pair := range [][2]string{
		{"roa-churn+hijack-window", "hijack-window+roa-churn"},
		{"rp-lag+hijack-window", "hijack-window+rp-lag"},
	} {
		_, a := runTSV(t, testConfig(pair[0]))
		_, b := runTSV(t, testConfig(pair[1]))
		if !bytes.Equal(a, b) {
			t.Errorf("%q and %q differ:\n--- %s ---\n%s\n--- %s ---\n%s",
				pair[0], pair[1], pair[0], a, pair[1], b)
		}
	}
}

// TestCompositeDeterminism: same seed + composed config ⇒ byte-identical
// output, the PR-1 contract lifted to compositions.
func TestCompositeDeterminism(t *testing.T) {
	for _, spec := range []string{"roa-churn+rp-lag", "hijack-window+roa-churn+rtr-restart"} {
		_, a := runTSV(t, testConfig(spec))
		_, b := runTSV(t, testConfig(spec))
		if !bytes.Equal(a, b) {
			t.Errorf("two runs of %s differ", spec)
		}
	}
}

// TestComposeInteraction is the point of the whole refactor: a hijack
// window opening while slow relying parties chase churn. The rp-lag
// roster must be adopted, churn must ramp coverage, and the hijack must
// land and clear.
func TestComposeInteraction(t *testing.T) {
	ts, _ := runTSV(t, testConfig("hijack-window+rp-lag"))
	fast := ts.Column("vrps_rp-1t")
	slow := ts.Column("vrps_rp-20t")
	if fast == nil || slow == nil {
		t.Fatalf("rp-lag roster not adopted by the composition: %v", ts.Columns)
	}
	vrps := ts.Column("vrps")
	if last := len(vrps) - 1; vrps[last] <= vrps[0] {
		t.Errorf("churn did not ramp coverage inside the composition: %v -> %v", vrps[0], vrps[last])
	}
	legacy := ts.Column("hijacked_legacy")
	window := 0
	for _, v := range legacy {
		window += int(v)
	}
	if window == 0 {
		t.Error("hijack never landed inside the composition")
	}
	if legacy[len(legacy)-1] != 0 {
		t.Error("hijack still active at the horizon")
	}
}

// TestDuplicateComponents: the same scenario twice gets two distinct
// RNG streams (occurrence-keyed), so the composition is a genuinely
// doubled workload, not the same events twice.
func TestDuplicateComponents(t *testing.T) {
	if ComponentSeed(1, "roa-churn", 0) == ComponentSeed(1, "roa-churn", 1) {
		t.Fatal("occurrence does not separate duplicate component streams")
	}
	single, _ := runTSV(t, testConfig("roa-churn"))
	doubled, _ := runTSV(t, testConfig("roa-churn+roa-churn"))
	last := len(single.Rows) - 1
	vs, vd := single.Column("vrps"), doubled.Column("vrps")
	if vd[last] <= vs[last] {
		t.Errorf("doubled churn issued no more VRPs: single %v, doubled %v", vs[last], vd[last])
	}
}

// TestComponentSeedKeying locks the stream-derivation contract: pure,
// name-sensitive, occurrence-sensitive, master-seed-sensitive.
func TestComponentSeedKeying(t *testing.T) {
	if ComponentSeed(1, "a", 0) != ComponentSeed(1, "a", 0) {
		t.Error("not pure")
	}
	if ComponentSeed(1, "a", 0) == ComponentSeed(1, "b", 0) {
		t.Error("name not mixed in")
	}
	if ComponentSeed(1, "a", 0) == ComponentSeed(2, "a", 0) {
		t.Error("master seed not mixed in")
	}
	seen := map[int64]bool{}
	for occ := 0; occ < 100; occ++ {
		s := ComponentSeed(1, "roa-churn", occ)
		if seen[s] {
			t.Fatalf("stream seed collision at occurrence %d", occ)
		}
		seen[s] = true
	}
}

// rosterScenario is a test scenario carrying a fixed RP roster.
func rosterScenario(name string, rps ...RPSpec) Scenario {
	return Scenario{Name: name, Roster: func(Params) []RPSpec { return rps }}
}

// TestRPRosterMerge checks the documented merge rule: canonical order,
// first component to name an RP wins, later components append only new
// names.
func TestRPRosterMerge(t *testing.T) {
	aRPs := []RPSpec{
		{Name: "shared", RefreshTicks: 1, Policy: router.PolicyDropInvalid},
		{Name: "only-a", RefreshTicks: 2, Policy: router.PolicyDropInvalid},
	}
	bRPs := []RPSpec{
		{Name: "shared", RefreshTicks: 9, Policy: router.PolicyAcceptAll}, // conflicts with a's
		{Name: "only-b", RefreshTicks: 3, Policy: router.PolicyAcceptAll},
	}
	c := &Composite{spec: "a+b", comps: []component{
		{name: "a", scn: rosterScenario("a", aRPs...)},
		{name: "b", scn: rosterScenario("b", bRPs...)},
	}}
	got := c.DefaultRPs()
	want := []RPSpec{aRPs[0], aRPs[1], bRPs[1]}
	if len(got) != len(want) {
		t.Fatalf("merged roster = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("roster[%d] = %+v, want %+v (first component wins on conflict)", i, got[i], want[i])
		}
	}
	// No component with a roster ⇒ nil, so the engine's builtin default
	// applies.
	n := &Composite{spec: "x+y", comps: []component{
		{name: "x", scn: baseline},
		{name: "y", scn: baseline},
	}}
	if n.DefaultRPs() != nil {
		t.Error("rosterless composition should defer to the builtin default")
	}
}

// TestSingleScenarioParamRouting: routing is uniform — a single
// scenario is a one-component composition, so a routed key reaches a
// bare run identically (keeping mixed alone-vs-composed comparisons
// honest) and a mis-addressed key errors instead of silently dropping.
func TestSingleScenarioParamRouting(t *testing.T) {
	cfg := testConfig("roa-churn")
	cfg.Params = Params{"issue": "6"}
	_, undotted := runTSV(t, cfg)
	cfg = testConfig("roa-churn")
	cfg.Params = Params{"roa-churn.issue": "6"}
	_, routed := runTSV(t, cfg)
	if !bytes.Equal(undotted, routed) {
		t.Error("routed param on a single scenario diverged from the undotted spelling")
	}
	if _, err := NewScenario("roa-churn", Params{"rp-lag.slow_ticks": "5"}); err == nil {
		t.Error("param addressing another scenario accepted on a single run")
	}
	// The roster sees routed params too: rp-lag's slow RP is
	// named after its slow_ticks value.
	cfg = testConfig("rp-lag")
	cfg.Params = Params{"rp-lag.slow_ticks": "30"}
	ts, _ := runTSV(t, cfg)
	if ts.Column("vrps_rp-30t") == nil {
		t.Errorf("routed slow_ticks did not reach the roster: %v", ts.Columns)
	}
}

// TestRoutedKeyOverridesShared: when the same key arrives both undotted
// (shared) and routed, the routed value deterministically wins for its
// component — never map iteration order.
func TestRoutedKeyOverridesShared(t *testing.T) {
	for i := 0; i < 100; i++ {
		byName := params(t, "roa-churn+rp-lag", Params{
			"issue":           "3",
			"roa-churn.issue": "5",
		})
		if got := byName["roa-churn"].Int("issue"); got != 5 {
			t.Fatalf("iteration %d: roa-churn issue = %d, want routed 5", i, got)
		}
		if got := byName["rp-lag"].Int("issue"); got != 3 {
			t.Fatalf("iteration %d: rp-lag issue = %d, want shared 3", i, got)
		}
	}
}

// TestSingleSpecIsComposite: every spec normalises to a Composite, so
// param routing, RNG streams, and roster handling have exactly one code
// path.
func TestSingleSpecIsComposite(t *testing.T) {
	comp, err := NewScenario("roa-churn", Params{"issue": "2"})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Name() != "roa-churn" || len(comp.Components()) != 1 {
		t.Fatalf("single wrap: name %q components %v", comp.Name(), comp.Components())
	}
}
