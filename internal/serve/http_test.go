package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestPooledJSONMatchesFreshEncoder: every kind of response — a validate
// batch and one too big to pool its encoder after, a domain verdict, a
// domains page, the snapshot, health and an error — is the same byte for
// byte from an
// encoder another response used before as from a fresh json.NewEncoder
// with SetIndent, which is what the pool hands out when it is empty (two
// collections empty it). Reusing the encoder also allocates less than a
// fresh one does for the same validate body.
func TestPooledJSONMatchesFreshEncoder(t *testing.T) {
	w, dt := testSetup(t)
	s := testService(t)
	h := s.Handler()
	var routes []string
	for _, v := range w.Validation().VRPs.All()[:8] {
		routes = append(routes, `{"prefix": "`+v.Prefix.String()+`", "asn": `+jsonNum(v.ASN)+`}`)
	}
	var many []string
	for len(many) < 1000 {
		many = append(many, routes...)
	}
	type request struct{ method, target, body string }
	requests := []request{
		{"POST", "/v1/validate", `{"routes": [` + strings.Join(routes, ",") + `]}`},
		{"POST", "/v1/validate", `{"routes": [` + strings.Join(many, ",") + `]}`},
		{"GET", "/v1/domain/" + dt.name(0), ""},
		{"GET", "/v1/domains?limit=1000", ""},
		{"GET", "/v1/snapshot", ""},
		{"GET", "/healthz", ""},
		{"GET", "/v1/domain/no-such.example", ""},
	}
	serve := func(rq request) []byte {
		var body *strings.Reader
		if rq.body != "" {
			body = strings.NewReader(rq.body)
		}
		rec := httptest.NewRecorder()
		if body != nil {
			h.ServeHTTP(rec, httptest.NewRequest(rq.method, rq.target, body))
		} else {
			h.ServeHTTP(rec, httptest.NewRequest(rq.method, rq.target, nil))
		}
		return rec.Body.Bytes()
	}
	fresh := make([][]byte, len(requests))
	for i, rq := range requests {
		runtime.GC()
		runtime.GC()
		fresh[i] = serve(rq)
	}
	if n := len(fresh[1]); n <= maxPooledJSON {
		t.Fatalf("the big validate batch is %d bytes, want one past the %d an encoder is pooled up to", n, maxPooledJSON)
	}
	for _, before := range requests {
		for j, rq := range requests {
			serve(before)
			if got := serve(rq); !bytes.Equal(got, fresh[j]) {
				t.Fatalf("%s %s after %s %s:\n%s\nfrom a fresh encoder:\n%s", rq.method, rq.target, before.method, before.target, got, fresh[j])
			}
		}
	}

	// The same eight-route validate body, rendered by writeJSON and by a
	// fresh encoder, into a writer that keeps nothing.
	sn := s.Current()
	var results []RouteResult
	for _, v := range w.Validation().VRPs.All()[:8] {
		results = append(results, sn.ValidateRoute(v.Prefix, v.ASN))
	}
	body := validateResponse{Serial: sn.Serial, Source: sn.Source, SourceSerial: sn.SourceSerial, Results: results}
	out := discardResponse{http.Header{}}
	pooled := testing.AllocsPerRun(200, func() { writeJSON(out, http.StatusOK, body) })
	unpooled := testing.AllocsPerRun(200, func() {
		out.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		enc.Encode(body)
	})
	if pooled >= unpooled {
		t.Errorf("a validate body costs %v allocations from the pool, %v from a fresh encoder", pooled, unpooled)
	} else {
		t.Logf("a validate body costs %v allocations from the pool, %v from a fresh encoder", pooled, unpooled)
	}
}

// discardResponse is a ResponseWriter that keeps nothing but its header.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header         { return d.h }
func (d discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d discardResponse) WriteHeader(int)             {}
