package serve

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ripki/internal/obs"
	"ripki/internal/obs/obstest"
	"ripki/internal/rpki/vrp"
	"ripki/internal/webworld"
)

// The test world is generated once; every test reads it through its own
// Service (cheap — the expensive parts are the world and domain table).
var (
	worldOnce sync.Once
	testWorld *webworld.World
	testTable *DomainTable
	worldErr  error
)

func testSetup(t testing.TB) (*webworld.World, *DomainTable) {
	t.Helper()
	worldOnce.Do(func() {
		testWorld, worldErr = webworld.Generate(webworld.Config{Seed: 1, Domains: 2500})
		if worldErr != nil {
			return
		}
		testTable, worldErr = BuildDomainTable(testWorld)
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return testWorld, testTable
}

// indexHolds reports whether ix holds exactly the distinct VRPs vs.
func indexHolds(ix *vrp.Index, vs []vrp.VRP) bool {
	if ix.Len() != len(vs) {
		return false
	}
	for _, v := range vs {
		if _, covering := ix.ValidateExplain(v.Prefix, v.ASN); !slices.Contains(covering, v) {
			return false
		}
	}
	return true
}

func testService(t testing.TB) *Service {
	t.Helper()
	w, dt := testSetup(t)
	s := New(dt)
	if _, err := s.PublishSet(w.Validation().VRPs, "world", 0); err != nil {
		t.Fatal(err)
	}
	return s
}

// get performs one request against the in-process handler.
func do(t testing.TB, h http.Handler, method, target, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	var decoded map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("%s %s: body not JSON (%v): %s", method, target, err, rec.Body.String())
	}
	return rec, decoded
}

func TestHealthzLifecycle(t *testing.T) {
	_, dt := testSetup(t)
	s := New(dt)
	h := s.Handler()
	rec, body := do(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusServiceUnavailable || body["status"] != "starting" {
		t.Fatalf("pre-publish healthz: %d %v", rec.Code, body)
	}
	// Queries are 503 before the first publish, too.
	if rec, _ := do(t, h, "GET", "/v1/snapshot", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-publish snapshot: %d", rec.Code)
	}
	if _, err := s.PublishSet(testWorld.Validation().VRPs, "world", 0); err != nil {
		t.Fatal(err)
	}
	rec, body = do(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusOK || body["status"] != "ok" || body["serial"].(float64) != 1 {
		t.Fatalf("post-publish healthz: %d %v", rec.Code, body)
	}
}

func TestValidateEndpoint(t *testing.T) {
	s := testService(t)
	h := s.Handler()
	w, _ := testSetup(t)
	all := w.Validation().VRPs.All()
	if len(all) == 0 {
		t.Fatal("world produced no VRPs")
	}
	v := all[0]

	// POST single: a route matching a VRP exactly must be valid.
	body := `{"prefix": "` + v.Prefix.String() + `", "asn": ` + jsonNum(v.ASN) + `}`
	rec, resp := do(t, h, "POST", "/v1/validate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST validate: %d %v", rec.Code, resp)
	}
	results := resp["results"].([]any)
	if len(results) != 1 {
		t.Fatalf("results: %v", results)
	}
	first := results[0].(map[string]any)
	if first["state"] != "valid" {
		t.Fatalf("state = %v, want valid (route %v AS%d)", first["state"], v.Prefix, v.ASN)
	}
	if len(first["covering"].([]any)) == 0 {
		t.Fatal("no covering VRPs on a valid route")
	}
	if resp["serial"].(float64) != 1 {
		t.Fatalf("serial = %v, want 1", resp["serial"])
	}

	// Same route, wrong origin: invalid. Unrelated prefix: notfound.
	batch := `{"routes": [
		{"prefix": "` + v.Prefix.String() + `", "asn": 64999},
		{"prefix": "203.0.113.0/24", "asn": 64999}
	]}`
	_, resp = do(t, h, "POST", "/v1/validate", batch)
	results = resp["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("batch results: %v", results)
	}
	if st := results[0].(map[string]any)["state"]; st != "invalid" {
		t.Fatalf("wrong-origin state = %v, want invalid", st)
	}
	if st := results[1].(map[string]any)["state"]; st != "notfound" {
		t.Fatalf("uncovered state = %v, want notfound", st)
	}

	// GET convenience form.
	rec, resp = do(t, h, "GET", "/v1/validate?prefix="+v.Prefix.String()+"&asn="+jsonNum(v.ASN), "")
	if rec.Code != http.StatusOK || resp["results"].([]any)[0].(map[string]any)["state"] != "valid" {
		t.Fatalf("GET validate: %d %v", rec.Code, resp)
	}

	// Bad requests.
	for _, bad := range []string{
		`{`,
		`{"prefix": "not-a-prefix", "asn": 1}`,
		`{"routes": []}`,
		`{}`,
		`{"unknown_field": 1}`,
		// One JSON value is the whole body: a second value, or anything
		// else but space after the first, is not silently dropped.
		`{"prefix":"10.0.0.0/8","asn":1}{"routes":[]}`,
		`{"prefix":"10.0.0.0/8","asn":1} x`,
	} {
		if rec, _ := do(t, h, "POST", "/v1/validate", bad); rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", bad, rec.Code)
		}
	}
	if rec, _ := do(t, h, "GET", "/v1/validate?prefix=10.0.0.0/8", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("GET without asn: %d, want 400", rec.Code)
	}
	if rec, _ := do(t, h, "POST", "/v1/validate", `{"prefix":"10.0.0.0/8","asn":1}`+" \n"); rec.Code != http.StatusOK {
		t.Errorf("trailing white space: %d, want 200", rec.Code)
	}
}

// TestValidateBodyCap: the POST body is bounded while it is read. A body
// of exactly maxValidateBody bytes is served; one byte more is refused
// with 413 before the route-count check ever sees it. The padding leads
// the JSON value, so the decoder has to cross the cap to finish it.
func TestValidateBodyCap(t *testing.T) {
	h := testService(t).Handler()
	route := `{"prefix": "203.0.113.0/24", "asn": 64999}`
	atCap := strings.Repeat(" ", maxValidateBody-len(route)) + route
	if rec, resp := do(t, h, "POST", "/v1/validate", atCap); rec.Code != http.StatusOK {
		t.Fatalf("body of exactly %d bytes: %d %v", len(atCap), rec.Code, resp)
	}
	rec, resp := do(t, h, "POST", "/v1/validate", " "+atCap)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body of %d bytes: %d %v, want 413", len(atCap)+1, rec.Code, resp)
	}
	// A full-size batch of the longest routes still fits under the cap.
	long := `{"prefix":"2001:0db8:85a3:0000:0000:8a2e:0370:7334/128","asn":4294967295}`
	batch := `{"routes":[` + strings.Repeat(long+",", maxBatchRoutes-1) + long + `]}`
	if rec, resp := do(t, h, "POST", "/v1/validate", batch); rec.Code != http.StatusOK || len(resp["results"].([]any)) != maxBatchRoutes {
		t.Fatalf("full batch of %d bytes: %d", len(batch), rec.Code)
	}
}

func TestDomainEndpoint(t *testing.T) {
	s := testService(t)
	h := s.Handler()
	name := testTable.name(0)

	rec, body := do(t, h, "GET", "/v1/domain/"+name, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("domain %s: %d %v", name, rec.Code, body)
	}
	if body["domain"] != name || body["rank"].(float64) != 1 {
		t.Fatalf("verdict identity: %v", body)
	}
	www := body["www"].(map[string]any)
	if www["name"] != "www."+name {
		t.Fatalf("www variant name: %v", www["name"])
	}
	if www["resolved"] == true {
		probs := www["valid"].(float64) + www["invalid"].(float64) + www["notfound"].(float64)
		if probs < 0.999 || probs > 1.001 {
			t.Fatalf("state probabilities do not sum to 1: %v", www)
		}
	}

	// The www.-prefixed spelling answers for the same domain.
	_, viaWWW := do(t, h, "GET", "/v1/domain/www."+name, "")
	if viaWWW["domain"] != name {
		t.Fatalf("www.-prefixed lookup: %v", viaWWW["domain"])
	}

	if rec, _ := do(t, h, "GET", "/v1/domain/no-such-domain.example", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown domain: %d, want 404", rec.Code)
	}
}

func TestDomainsListing(t *testing.T) {
	s := testService(t)
	h := s.Handler()
	rec, body := do(t, h, "GET", "/v1/domains?limit=3", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("domains: %d", rec.Code)
	}
	if int(body["count"].(float64)) != testTable.Len() {
		t.Fatalf("count = %v, want %d", body["count"], testTable.Len())
	}
	domains := body["domains"].([]any)
	if len(domains) != 3 {
		t.Fatalf("limit ignored: %d rows", len(domains))
	}
	if domains[0].(map[string]any)["rank"].(float64) != 1 {
		t.Fatalf("not rank-ordered: %v", domains[0])
	}
}

// TestDomainsListingPagination covers the server-side page cap and the
// limit/offset parameters the million-domain population requires.
func TestDomainsListingPagination(t *testing.T) {
	s := testService(t)
	h := s.Handler()
	total := testTable.Len()
	if total <= maxDomainsPage {
		t.Fatalf("test world too small to exercise the cap: %d domains", total)
	}

	// No params: capped, not the whole table; count still reports all.
	_, body := do(t, h, "GET", "/v1/domains", "")
	if got := len(body["domains"].([]any)); got != maxDomainsPage {
		t.Fatalf("uncapped default: %d rows, want %d", got, maxDomainsPage)
	}
	if int(body["count"].(float64)) != total {
		t.Fatalf("count = %v, want %d", body["count"], total)
	}

	// Over-cap and "0 = everything" requests clamp to the cap.
	for _, q := range []string{"limit=999999", "limit=0"} {
		_, body = do(t, h, "GET", "/v1/domains?"+q, "")
		if got := len(body["domains"].([]any)); got != maxDomainsPage {
			t.Fatalf("%s: %d rows, want %d", q, got, maxDomainsPage)
		}
	}

	// Offset pages through in rank order.
	_, body = do(t, h, "GET", "/v1/domains?limit=2&offset=5", "")
	domains := body["domains"].([]any)
	if len(domains) != 2 || domains[0].(map[string]any)["rank"].(float64) != 6 {
		t.Fatalf("offset page: %v", domains)
	}
	if int(body["offset"].(float64)) != 5 {
		t.Fatalf("offset echo: %v", body["offset"])
	}

	// The final short page and a past-the-end offset (empty 200).
	_, body = do(t, h, "GET", "/v1/domains?limit=10&offset="+strconv.Itoa(total-3), "")
	if got := len(body["domains"].([]any)); got != 3 {
		t.Fatalf("final page: %d rows, want 3", got)
	}
	_, body = do(t, h, "GET", "/v1/domains?offset="+strconv.Itoa(total+100), "")
	if got := len(body["domains"].([]any)); got != 0 {
		t.Fatalf("past-the-end offset: %d rows, want 0", got)
	}

	// Malformed parameters are 400s.
	for _, q := range []string{"limit=-1", "limit=x", "offset=-2", "offset=x"} {
		if rec, _ := do(t, h, "GET", "/v1/domains?"+q, ""); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, rec.Code)
		}
	}
}

func TestSnapshotEndpointAndExposure(t *testing.T) {
	s := testService(t)
	h := s.Handler()
	rec, body := do(t, h, "GET", "/v1/snapshot", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot: %d", rec.Code)
	}
	if body["source"] != "world" || body["vrps"].(float64) == 0 {
		t.Fatalf("snapshot identity: %v", body)
	}
	exp := body["exposure"].(map[string]any)
	if exp["domains"].(float64) == 0 {
		t.Fatal("exposure aggregated over zero domains")
	}
	cov := exp["coverage"].(float64)
	if cov <= 0 || cov >= 1 {
		t.Fatalf("coverage %v outside (0, 1) — world should be partially covered", cov)
	}

	// Publishing an empty VRP set drives coverage to zero and bumps the
	// serial — the exposure is truly per-snapshot.
	if _, err := s.PublishSet(vrp.NewSet(), "csv", 0); err != nil {
		t.Fatal(err)
	}
	_, body = do(t, h, "GET", "/v1/snapshot", "")
	if body["serial"].(float64) != 2 || body["source"] != "csv" {
		t.Fatalf("second snapshot: %v", body)
	}
	if c := body["exposure"].(map[string]any)["coverage"].(float64); c != 0 {
		t.Fatalf("coverage with no VRPs = %v, want 0", c)
	}
}

// scrape fetches /metrics raw (the body is Prometheus text, not JSON).
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	return rec.Body.String()
}

func TestMetricsEndpoint(t *testing.T) {
	s := testService(t)
	h := s.Handler()
	for i := 0; i < 5; i++ {
		do(t, h, "GET", "/healthz", "")
	}
	do(t, h, "POST", "/v1/validate", `{`) // one 400
	body := scrape(t, h)
	for _, want := range []string{
		"# TYPE ripki_serve_requests_total counter",
		`ripki_serve_requests_total{endpoint="healthz"} 5`,
		`ripki_serve_requests_total{endpoint="validate"} 1`,
		`ripki_serve_request_errors_total{endpoint="validate"} 1`,
		`ripki_serve_request_errors_total{endpoint="healthz"} 0`,
		"# TYPE ripki_serve_request_duration_seconds histogram",
		`ripki_serve_request_duration_seconds_bucket{endpoint="healthz",le="+Inf"} 5`,
		`ripki_serve_request_duration_seconds_count{endpoint="healthz"} 5`,
		"ripki_serve_snapshot_serial 1",
		"ripki_serve_snapshot_age_seconds",
		"ripki_serve_uptime_seconds",
		"# TYPE ripki_serve_mem_heap_alloc_bytes gauge",
		"ripki_serve_mem_sys_bytes",
		"ripki_serve_domain_table_bytes",
		// testService publishes the world's own payloads as source
		// "world" with source serial 0.
		`ripki_serve_source_update_age_seconds{source="world"}`,
		`ripki_serve_source_serial{source="world"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if strings.Contains(body, "ripki_serve_snapshot_vrps 0\n") {
		t.Error("snapshot VRP gauge is zero for a published world")
	}

	// A second source appears with its own staleness gauge; the snapshot
	// gauges follow the new publish.
	if _, err := s.PublishSet(vrp.NewSet(), "csv", 7); err != nil {
		t.Fatal(err)
	}
	body = scrape(t, h)
	for _, want := range []string{
		"ripki_serve_snapshot_serial 2",
		"ripki_serve_snapshot_vrps 0",
		`ripki_serve_source_serial{source="csv"} 7`,
		`ripki_serve_source_update_age_seconds{source="csv"}`,
		`ripki_serve_source_serial{source="world"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("second scrape missing %q", want)
		}
	}
	// The scrape endpoint instruments itself.
	body = scrape(t, h)
	if !strings.Contains(body, `ripki_serve_requests_total{endpoint="metrics"} 2`) {
		t.Error("metrics endpoint not self-instrumented")
	}
}

// TestRequestMetricsShape pins what a dashboard keys on: the three
// per-endpoint families' HELP and TYPE lines, their one label, a series
// at zero for every endpoint before its first request, and the forty
// power-of-two bounds of the latency histogram.
func TestRequestMetricsShape(t *testing.T) {
	body := scrape(t, New(nil).Handler())
	for _, want := range []string{
		"# HELP ripki_serve_requests_total Requests served, by endpoint.\n# TYPE ripki_serve_requests_total counter\n",
		"# HELP ripki_serve_request_errors_total Responses with status >= 400, by endpoint.\n# TYPE ripki_serve_request_errors_total counter\n",
		"# HELP ripki_serve_request_duration_seconds Request latency, by endpoint (power-of-two buckets).\n# TYPE ripki_serve_request_duration_seconds histogram\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	for _, ep := range []string{"validate", "domain", "domains", "snapshot", "events", "healthz", "metrics"} {
		for _, series := range []string{"ripki_serve_requests_total", "ripki_serve_request_errors_total", "ripki_serve_request_duration_seconds_count"} {
			if want := series + `{endpoint="` + ep + `"} 0` + "\n"; !strings.Contains(body, want) {
				t.Errorf("scrape missing %q", want)
			}
		}
	}
	var les []string
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, `ripki_serve_request_duration_seconds_bucket{endpoint="domain",le="`); ok {
			le, _, _ := strings.Cut(rest, `"`)
			les = append(les, le)
		}
	}
	if len(les) != 41 || les[0] != "1e-09" || les[1] != "2e-09" || les[30] != "1.073741824" || les[39] != "549.755813888" || les[40] != "+Inf" {
		t.Fatalf("le bounds of one endpoint: %d of them, %v", len(les), les)
	}
	for i := 1; i < 40; i++ {
		a, _ := strconv.ParseFloat(les[i-1], 64)
		if b, _ := strconv.ParseFloat(les[i], 64); b != 2*a {
			t.Errorf("bound %d is %s after %s, want its double", i, les[i], les[i-1])
		}
	}
}

// TestInstrumentCostsOneAllocation: the request metrics add no
// allocation to a request beyond the statusRecorder — the endpoint's
// counters and histogram were resolved when the handler was built.
func TestInstrumentCostsOneAllocation(t *testing.T) {
	h := New(nil).instrument("healthz", func(http.ResponseWriter, *http.Request) {})
	rec, req := httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil)
	if n := testing.AllocsPerRun(1000, func() { h.ServeHTTP(rec, req) }); n > 1 {
		t.Fatalf("an instrumented no-op request allocates %v times, want at most 1", n)
	}
}

// TestRequestMetricsUnderConcurrency: eight goroutines of a thousand
// requests each, a tenth of them errors, leave counter and histogram in
// agreement (under -race, this is also the proof that observing needs no
// lock).
func TestRequestMetricsUnderConcurrency(t *testing.T) {
	s := New(nil)
	h := s.instrument("validate", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/bad" {
			w.WriteHeader(http.StatusBadRequest)
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, bad := httptest.NewRequest("GET", "/ok", nil), httptest.NewRequest("GET", "/bad", nil)
			for i := 0; i < 1000; i++ {
				req := ok
				if i%10 == 0 {
					req = bad
				}
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
		}()
	}
	wg.Wait()
	body := scrape(t, s.Handler())
	for _, want := range []string{
		`ripki_serve_requests_total{endpoint="validate"} 8000`,
		`ripki_serve_request_errors_total{endpoint="validate"} 800`,
		`ripki_serve_request_duration_seconds_bucket{endpoint="validate",le="+Inf"} 8000`,
		`ripki_serve_request_duration_seconds_count{endpoint="validate"} 8000`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestSlowValidateBodyIsCutOff: POST /v1/validate bounds its body in time
// as well as size — a peer that promises a body and stalls is answered
// 408 and dropped at validateBodyTimeout (obstest has the details) — and
// the bound ends with the read: on a connection that has just posted a
// body, a long-poll three times as long as the bound runs its course.
func TestSlowValidateBodyIsCutOff(t *testing.T) {
	const bound = 300 * time.Millisecond
	defer func(d time.Duration) { validateBodyTimeout = d }(validateBodyTimeout)
	validateBodyTimeout = bound
	s := testService(t)
	obstest.SlowBodyIsCutOff(t, obs.NewServer(s.Handler()), "/v1/validate", "/healthz", bound)

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/validate", "application/json", strings.NewReader(`{"prefix": "193.0.6.0/24", "asn": 3333}`))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/validate: %v, %v", resp, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	began := time.Now()
	// Cursor 1 is the feed's newest seq (testService's one publish):
	// nothing follows it, so the poll holds for all of wait.
	resp, err = srv.Client().Get(srv.URL + "/v1/events?since=1&wait=" + (3 * bound).String())
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("long-poll after a validate on the same connection: %v, %v", resp, err)
	}
	resp.Body.Close()
	if waited := time.Since(began); waited < 3*bound {
		t.Errorf("long-poll answered after %v, want the %v it asked for", waited, 3*bound)
	}
}

// TestStartupGauges: a service told how its start-up went exports each
// phase and the total, in seconds; one that was not exports neither.
func TestStartupGauges(t *testing.T) {
	s := testService(t)
	if body := scrape(t, s.Handler()); strings.Contains(body, "ripki_serve_startup_seconds") || strings.Contains(body, "ripki_serve_ready_seconds") {
		t.Fatal("start-up gauges exported without SetStartup")
	}
	st := Startup{
		Generate: 250 * time.Millisecond, DomainTable: 340 * time.Millisecond,
		VRPs: 210 * time.Millisecond, Publish: 3 * time.Millisecond, Ready: 803 * time.Millisecond,
	}
	s.SetStartup(st)
	if body := scrape(t, s.Handler()); strings.Contains(body, "ripki_serve_generate_seconds{") {
		t.Error("a generate phase exported though none was given")
	}
	// The breakdown of generate is a family of its own: the start-up
	// phases still add up to ready.
	st.GeneratePhases = []webworld.Phase{{Name: "orgs+roas", D: 120 * time.Millisecond}, {Name: "domains", D: 90 * time.Millisecond}}
	s.SetStartup(st)
	body := scrape(t, s.Handler())
	if n := strings.Count(body, "ripki_serve_startup_seconds{"); n != 4 {
		t.Errorf("%d start-up phases exported, want 4", n)
	}
	for _, want := range []string{
		"# TYPE ripki_serve_generate_seconds gauge",
		`ripki_serve_generate_seconds{phase="orgs+roas"} 0.12`,
		`ripki_serve_generate_seconds{phase="domains"} 0.09`,
		"# TYPE ripki_serve_startup_seconds gauge",
		`ripki_serve_startup_seconds{phase="generate"} 0.25`,
		`ripki_serve_startup_seconds{phase="domain_table"} 0.34`,
		`ripki_serve_startup_seconds{phase="vrps"} 0.21`,
		`ripki_serve_startup_seconds{phase="publish"} 0.003`,
		"# TYPE ripki_serve_ready_seconds gauge",
		"ripki_serve_ready_seconds 0.803",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("scrape missing %q", want)
		}
	}
	if got, want := st.String(), "ready in 0.80s (generate 0.25s, domain_table 0.34s, vrps 0.21s, publish 0.00s)"; got != want {
		t.Errorf("banner text %q, want %q", got, want)
	}
}

// TestDomainVerdictAgainstDirectValidation cross-checks the domain
// endpoint against direct vrp validation of the same pairs.
func TestDomainVerdictAgainstDirectValidation(t *testing.T) {
	s := testService(t)
	sn := s.Current()
	checked := 0
	for i := int32(0); int(i) < testTable.Len(); i++ {
		ids := testTable.wwwIDs(i)
		if testTable.flags[i]&flagWWWResolved == 0 || len(ids) == 0 {
			continue
		}
		name := testTable.name(i)
		verdict, ok := sn.Domain(name)
		if !ok {
			t.Fatalf("domain %s missing", name)
		}
		valid := 0
		for _, id := range ids {
			po := testTable.routes[id]
			if sn.Index.Validate(po.Prefix, po.Origin) == vrp.Valid {
				valid++
			}
		}
		wantProtected := valid == len(ids)
		if verdict.WWW.Protected != wantProtected {
			t.Fatalf("domain %s: Protected=%v, direct says %v", name, verdict.WWW.Protected, wantProtected)
		}
		checked++
		if checked >= 200 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no resolvable domains cross-checked")
	}
	// The route pool is deduplicated: strictly fewer unique routes than
	// route references, and every reference resolves into the pool.
	if u := len(testTable.routes); u == 0 || u > len(testTable.routeIDs) {
		t.Fatalf("unique routes %d vs %d references", u, len(testTable.routeIDs))
	}
}

func jsonNum(v uint32) string { return strconv.FormatUint(uint64(v), 10) }

// rawGet performs one request with optional If-None-Match, without the
// JSON-decoding helper (a 304 has no body to decode).
func rawGet(t testing.TB, h http.Handler, target, ifNoneMatch string) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest("GET", target, nil)
	if ifNoneMatch != "" {
		r.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

// TestETagConditionalRequests: /v1/snapshot and /v1/domain/{name} carry
// the snapshot serial as a strong ETag; If-None-Match answers 304 with
// no body until a new snapshot is published.
func TestETagConditionalRequests(t *testing.T) {
	w, dt := testSetup(t)
	s := New(dt)
	if _, err := s.PublishSet(w.Validation().VRPs, "world", 0); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	name := dt.Listing(1, 0)[0].Name

	for _, target := range []string{"/v1/snapshot", "/v1/domain/" + name} {
		rec := rawGet(t, h, target, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", target, rec.Code)
		}
		etag := rec.Header().Get("ETag")
		if etag != `"1"` {
			t.Fatalf("%s: ETag = %q, want %q", target, etag, `"1"`)
		}

		// Matching tag (strong, weak, list, wildcard): 304, empty body,
		// ETag still present for the caller's cache bookkeeping.
		for _, inm := range []string{etag, "W/" + etag, `"0", ` + etag, "*"} {
			rec = rawGet(t, h, target, inm)
			if rec.Code != http.StatusNotModified {
				t.Errorf("%s If-None-Match %q: code %d, want 304", target, inm, rec.Code)
			}
			if rec.Body.Len() != 0 {
				t.Errorf("%s: 304 carried a body: %s", target, rec.Body.String())
			}
			if rec.Header().Get("ETag") != etag {
				t.Errorf("%s: 304 lost the ETag header", target)
			}
		}

		// A stale tag re-renders.
		if rec = rawGet(t, h, target, `"0"`); rec.Code != http.StatusOK {
			t.Errorf("%s stale tag: code %d, want 200", target, rec.Code)
		}
	}

	// Publishing invalidates: the old tag no longer matches and the new
	// response carries the bumped serial.
	if _, err := s.PublishSet(vrp.NewSet(), "csv", 0); err != nil {
		t.Fatal(err)
	}
	rec := rawGet(t, h, "/v1/snapshot", `"1"`)
	if rec.Code != http.StatusOK {
		t.Fatalf("stale tag after publish: code %d, want 200", rec.Code)
	}
	if etag := rec.Header().Get("ETag"); etag != `"2"` {
		t.Fatalf("ETag after publish = %q, want %q", etag, `"2"`)
	}
	// 404s carry no ETag — there is no entity to version.
	rec = rawGet(t, h, "/v1/domain/not-a-domain.example", "")
	if rec.Code != http.StatusNotFound || rec.Header().Get("ETag") != "" {
		t.Fatalf("missing domain: code %d etag %q", rec.Code, rec.Header().Get("ETag"))
	}
}

// TestPublishSetMatchesRebuild pins the two publish entries to one
// result: PublishSet freezes the live set, Publish rebuilds an index
// from a slice — the rebuild is the oracle. The set has a history (the
// world's VRPs, then withdrawals and re-announcements in scrambled
// order, several to a prefix), which a frozen tree carries and a rebuilt
// one does not; none of it may show in what the snapshot answers.
func TestPublishSetMatchesRebuild(t *testing.T) {
	w, dt := testSetup(t)
	set := w.Validation().VRPs.Clone()
	rnd := rand.New(rand.NewSource(8))
	// A wrong-origin VRP at every route the table serves, and filler
	// beside them, crossing the line at which the set folds its writes
	// into a new base: the deltas below then land on that base.
	var added []vrp.VRP
	for _, po := range dt.routes {
		added = append(added, vrp.VRP{Prefix: po.Prefix, MaxLength: po.Prefix.Bits(), ASN: 64998})
	}
	for i := 0; i < 5000; i++ {
		added = append(added, vrp.VRP{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{240, byte(i >> 8), byte(i), 0}), 24), MaxLength: 24, ASN: 1})
	}
	for _, v := range added {
		if err := set.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if set.Compactions() == 0 {
		t.Fatalf("%d added VRPs did not compact the set", len(added))
	}
	all := set.All()
	rnd.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for i, v := range all {
		switch i % 4 {
		case 0:
			set.Remove(v)
		case 1:
			// A second and third VRP at the prefix, added high to low.
			for _, asn := range []uint32{v.ASN + 7, v.ASN + 3} {
				if err := set.Add(vrp.VRP{Prefix: v.Prefix, MaxLength: v.MaxLength, ASN: asn}); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			set.Remove(v)
			if err := set.Add(v); err != nil {
				t.Fatal(err)
			}
		}
	}

	frozen, err := New(dt).PublishSet(set, "rtr", 9)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := vrp.FromVRPs(set.All())
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := New(dt).PublishSet(fresh, "rtr", 9)
	if err != nil {
		t.Fatal(err)
	}
	want := set.All()
	if !indexHolds(frozen.Index, want) || !indexHolds(rebuilt.Index, want) {
		t.Fatalf("frozen index holds %d VRPs, rebuilt %d, the set %d, and they differ", frozen.Index.Len(), rebuilt.Index.Len(), len(want))
	}
	if frozen.Index.Len() != rebuilt.Index.Len() {
		t.Fatalf("Len: frozen %d, rebuilt %d", frozen.Index.Len(), rebuilt.Index.Len())
	}
	if frozen.Exposure != rebuilt.Exposure {
		t.Fatalf("exposure: frozen %+v, rebuilt %+v", frozen.Exposure, rebuilt.Exposure)
	}
	if frozen.Serial != rebuilt.Serial || frozen.Source != rebuilt.Source || frozen.SourceSerial != rebuilt.SourceSerial {
		t.Fatalf("snapshot identity: frozen %d/%s/%d, rebuilt %d/%s/%d", frozen.Serial, frozen.Source, frozen.SourceSerial,
			rebuilt.Serial, rebuilt.Source, rebuilt.SourceSerial)
	}
	// Every route the table serves, at its own origin and at a wrong one:
	// state and covering list, element for element.
	for _, po := range dt.routes {
		for _, asn := range []uint32{po.Origin, 64999} {
			got, want := frozen.ValidateRoute(po.Prefix, asn), rebuilt.ValidateRoute(po.Prefix, asn)
			if got.State != want.State || !slices.Equal(got.Covering, want.Covering) {
				t.Fatalf("route %v AS%d: frozen %+v, rebuilt %+v", po.Prefix, asn, got, want)
			}
		}
	}
	// The freeze did not end the set's life as a writer, and the writer
	// does not reach the snapshot.
	for _, v := range all[:len(all)/2] {
		set.Remove(v)
	}
	if !indexHolds(frozen.Index, want) {
		t.Fatal("writes to the set after PublishSet changed the published index")
	}
}
