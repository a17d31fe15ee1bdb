package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ripki/internal/obs"
	"ripki/internal/obs/obstest"
	"ripki/internal/sim"
	"ripki/internal/sweep"
)

// TestConfigureWiresTheService builds a small daemon and drives its
// handler in-process: the world-backed snapshot must be live and every
// endpoint reachable.
func TestConfigureWiresTheService(t *testing.T) {
	var stderr bytes.Buffer
	d, err := configure([]string{"-domains", "1500", "-seed", "1"}, &stderr)
	if err != nil {
		t.Fatalf("configure: %v (stderr: %s)", err, stderr.String())
	}
	if len(d.sources) != 0 {
		t.Fatalf("no sources requested, got %d", len(d.sources))
	}
	if !strings.Contains(d.banner, "source=world") {
		t.Fatalf("banner: %s", d.banner)
	}
	for _, path := range []string{"/healthz", "/v1/snapshot", "/v1/domains?limit=1", "/metrics"} {
		rec := httptest.NewRecorder()
		d.handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, rec.Code, rec.Body.String())
		}
	}

	// A domain from the listing answers on the domain endpoint.
	rec := httptest.NewRecorder()
	d.handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/domains?limit=1", nil))
	var listing struct {
		Domains []struct {
			Name string `json:"name"`
		} `json:"domains"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil || len(listing.Domains) == 0 {
		t.Fatalf("domains listing: %v %s", err, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	d.handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/domain/"+listing.Domains[0].Name, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("domain endpoint: %d: %s", rec.Code, rec.Body.String())
	}
}

// TestConfigurePprofGate: the profile endpoints are opt-in, and the
// service endpoints keep answering when they're mounted.
func TestConfigurePprofGate(t *testing.T) {
	var stderr bytes.Buffer
	d, err := configure([]string{"-domains", "1500"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	d.handler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code == http.StatusOK {
		t.Fatal("pprof served without opt-in")
	}

	d, err = configure([]string{"-domains", "1500", "-pprof"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.banner, "pprof") {
		t.Errorf("banner doesn't announce pprof: %q", d.banner)
	}
	for path, want := range map[string]int{
		"/debug/pprof/": http.StatusOK,
		"/healthz":      http.StatusOK,
		"/metrics":      http.StatusOK,
	} {
		rec := httptest.NewRecorder()
		d.handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != want {
			t.Errorf("GET %s with -pprof: %d, want %d", path, rec.Code, want)
		}
	}
}

// TestConfigureScenarioSource wires the sim source without running it.
func TestConfigureScenarioSource(t *testing.T) {
	var stderr bytes.Buffer
	d, err := configure([]string{"-domains", "1500", "-scenario", "roa-churn", "-param", "issue=2"}, &stderr)
	if err != nil {
		t.Fatalf("configure: %v (stderr: %s)", err, stderr.String())
	}
	if len(d.sources) != 1 || !strings.Contains(d.banner, "scenario roa-churn") {
		t.Fatalf("scenario source not wired: %d sources, banner %q", len(d.sources), d.banner)
	}
}

// TestScenarioParamsCheckedAtEveryEntryPoint: a single run, a sweep's
// plan and the daemon's configure all hold a scenario's params to what
// it declares before they build a world. A misspelt key, a key its
// component does not declare and a value that does not parse as its
// default's kind are refused, naming the key and the scenario; every
// spelling a scenario does declare is accepted.
func TestScenarioParamsCheckedAtEveryEntryPoint(t *testing.T) {
	entries := map[string]func(scenario, key, value string) error{
		"sim.New": func(scenario, key, value string) error {
			s, err := sim.New(sim.Config{Scenario: scenario, Params: sim.Params{key: value},
				Domains: 500, Tick: 30 * time.Second, Duration: time.Minute})
			if err == nil {
				s.Close()
			}
			return err
		},
		// A sweep axis lists its values comma-separated.
		"sweep.Grid.Plan": func(scenario, key, value string) error {
			_, err := sweep.Grid{Scenarios: []string{scenario}, Params: map[string][]string{key: strings.Split(value, ",")}}.Plan()
			return err
		},
		"configure": func(scenario, key, value string) error {
			_, err := configure([]string{"-domains", "500", "-scenario", scenario, "-param", key + "=" + value}, io.Discard)
			return err
		},
	}
	for _, tc := range []struct {
		scenario, key, value string
		refused              bool
		named                string // the scenario a refusal names
	}{
		{"roa-churn", "issue", "abc", true, "roa-churn"},
		{"roa-churn", "issue", "3,abc", true, "roa-churn"},
		{"roa-churn", "isue", "9", true, "roa-churn"},
		{"roa-churn", "revoke", "1.5", true, "roa-churn"},
		{"roa-churn", "rate", "2", true, "roa-churn"},
		{"roa-churn+hijack-window", "hijack-window.issue", "3", true, "hijack-window"},
		{"roa-churn", "roa-churn.issue", "5", false, ""},
		{"roa-churn+hijack-window", "every_ticks", "2", false, ""},
		{"rtr-restart", "cold", "false", false, ""},
		{"trust-anchor-outage", "attack", "0", false, ""},
	} {
		key := tc.key
		if _, routed, ok := strings.Cut(tc.key, "."); ok {
			key = routed
		}
		for name, entry := range entries {
			err := entry(tc.scenario, tc.key, tc.value)
			switch {
			case !tc.refused && err != nil:
				t.Errorf("%s: %s %s=%s refused: %v", name, tc.scenario, tc.key, tc.value, err)
			case tc.refused && err == nil:
				t.Errorf("%s: %s %s=%s accepted", name, tc.scenario, tc.key, tc.value)
			case tc.refused && (!strings.Contains(err.Error(), key) || !strings.Contains(err.Error(), tc.named)):
				t.Errorf("%s: %s %s=%s: refusal %q does not name the key and the scenario", name, tc.scenario, tc.key, tc.value, err)
			}
		}
	}
}

// TestExitCodeConventions: -h is a clean exit, usage errors are
// errFlagParse (exit 2 in main), conflicting sources are usage errors.
func TestExitCodeConventions(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-h"}, &out, &errBuf); err != nil {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(errBuf.String(), "-listen") {
		t.Fatalf("-h printed no usage: %s", errBuf.String())
	}
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"stray-arg"},
		{"-rtr", "127.0.0.1:1", "-scenario", "roa-churn"},
	} {
		errBuf.Reset()
		if err := run(args, &out, &errBuf); !errors.Is(err, errFlagParse) {
			t.Fatalf("args %v: err %v, want errFlagParse", args, err)
		}
	}
	// An unknown scenario is caught when the source starts; configure
	// itself validates the registry through the sim package.
	errBuf.Reset()
	if _, err := configure([]string{"-vrps", "/no/such/file.csv", "-domains", "1500"}, &errBuf); err == nil {
		t.Fatal("missing VRP file accepted")
	}
}

// TestNegativeSimTickRefused: configure refuses a negative -sim-tick
// before it builds the world, instead of starting a source that never
// returns from its first tick.
func TestNegativeSimTickRefused(t *testing.T) {
	_, err := configure([]string{"-domains", "1500", "-scenario", "baseline", "-sim-tick", "-1s"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "Tick") {
		t.Fatalf("-sim-tick -1s: %v, want a refusal naming Tick", err)
	}
}

// TestConfigureComposedScenario: the -scenario flag accepts "+"-joined
// compositions with routed per-component params, and rejects params
// addressing a non-member component at configure time.
func TestConfigureComposedScenario(t *testing.T) {
	var stderr bytes.Buffer
	d, err := configure([]string{
		"-domains", "1500", "-scenario", "hijack-window+roa-churn",
		"-param", "roa-churn.issue=2",
	}, &stderr)
	if err != nil {
		t.Fatalf("configure: %v (stderr: %s)", err, stderr.String())
	}
	if len(d.sources) != 1 || !strings.Contains(d.banner, "scenario hijack-window+roa-churn") {
		t.Fatalf("composed scenario source not wired: %d sources, banner %q", len(d.sources), d.banner)
	}
	if _, err := configure([]string{
		"-domains", "1500", "-scenario", "hijack-window+roa-churn",
		"-param", "rp-lag.slow_ticks=5",
	}, &stderr); err == nil {
		t.Fatal("param addressing a non-member component accepted")
	}
}

// TestStartupIsReported: time to ready is something the daemon says
// about itself — in the banner, ahead of the listen address that ends
// it, and as gauges on /metrics — with -vrps taking the CSV path.
func TestStartupIsReported(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "vrps.csv")
	if err := os.WriteFile(csv, []byte("prefix,maxLength,ASN\n193.0.6.0/24,24,AS3333\n10.0.0.0/8,16,AS64500\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	d, err := configure([]string{"-domains", "1500", "-vrps", csv}, &stderr)
	if err != nil {
		t.Fatalf("configure: %v (stderr: %s)", err, stderr.String())
	}
	banner := regexp.MustCompile(`2 VRPs \(source=csv\), ready in \d+\.\d\ds \(generate \d+\.\d\ds, domain_table \d+\.\d\ds, vrps \d+\.\d\ds, publish \d+\.\d\ds\)$`)
	if !banner.MatchString(d.banner) {
		t.Errorf("banner %q does not end in the start-up figures", d.banner)
	}
	rec := httptest.NewRecorder()
	d.handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		`ripki_serve_startup_seconds{phase="generate"} `,
		`ripki_serve_startup_seconds{phase="domain_table"} `,
		`ripki_serve_startup_seconds{phase="vrps"} `,
		`ripki_serve_startup_seconds{phase="publish"} `,
		`ripki_serve_generate_seconds{phase="orgs+roas"} `,
		`ripki_serve_generate_seconds{phase="announce"} `,
		`ripki_serve_generate_seconds{phase="domains"} `,
		`ripki_serve_generate_seconds{phase="registry"} `,
		"\nripki_serve_ready_seconds ",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSlowLorisIsCutOff: the listener run serves on is bounded — a peer
// trickling half a request line is dropped at the header deadline and
// costs a well-behaved client nothing (obstest has the details).
func TestSlowLorisIsCutOff(t *testing.T) {
	srv := obs.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") }))
	if srv.ReadHeaderTimeout != obs.ReadHeaderTimeout || srv.IdleTimeout != obs.IdleTimeout {
		t.Fatalf("listener bounds are not the shared ones: header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	obstest.SlowLorisIsCutOff(t, srv, "/healthz")
}
