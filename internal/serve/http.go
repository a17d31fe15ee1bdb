package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ripki/internal/measure"
)

// maxBatchRoutes bounds one POST /v1/validate body; larger batches
// should be split by the client (loadgen's default is far below this).
const maxBatchRoutes = 4096

// maxValidateBody bounds the bytes of one POST /v1/validate body, so an
// oversized request is refused while it is read rather than decoded
// whole and then counted. 128 bytes a route is roomy: the longest
// compact route object (a full-length IPv6 prefix, a ten-digit ASN) is
// under 80.
const maxValidateBody = maxBatchRoutes * 128

// validateBodyTimeout is the time a client has to deliver a POST
// /v1/validate body after its header. (A variable for its test's sake.)
var validateBodyTimeout = 10 * time.Second

// Handler returns the service's HTTP API. Every handler follows the
// same discipline: load the snapshot pointer once, answer entirely from
// that snapshot, take no mutex. Instrumentation is atomic counters
// only, so the whole read path is lock-free.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/validate", s.instrument("validate", s.handleValidatePost))
	mux.Handle("GET /v1/validate", s.instrument("validate", s.handleValidateGet))
	mux.Handle("GET /v1/domain/{name}", s.instrument("domain", s.handleDomain))
	mux.Handle("GET /v1/domains", s.instrument("domains", s.handleDomains))
	mux.Handle("GET /v1/snapshot", s.instrument("snapshot", s.handleSnapshot))
	mux.Handle("GET /v1/events", s.instrument("events", s.handleEvents))
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	return mux
}

// statusRecorder captures the response status for the error counter.
// One per request, never shared — no synchronisation needed.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// Unwrap lets http.ResponseController reach the connection.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the lock-free request metrics. The
// endpoint's series exist from here on, so they render at zero before
// its first request.
func (s *Service) instrument(name string, h http.HandlerFunc) http.Handler {
	requests, errs, duration := s.requests.With(name), s.requestErrors.With(name), s.durations.With(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		duration.Observe(time.Since(start).Seconds())
		requests.Inc()
		if rec.status >= 400 {
			errs.Inc()
		}
	})
}

// jsonEncoder is an indenting json.Encoder kept for reuse, with the
// writer it writes through: re-pointed at each response in turn, and
// counting what it is handed. An Encoder keeps the buffer it indents
// into from one Encode to the next, so reusing one reuses that buffer —
// rendering a fresh encoder's indenting buffer was over a third of what
// the daemon allocated under validate traffic.
type jsonEncoder struct {
	enc *json.Encoder
	w   io.Writer // the response being written
	n   int       // the bytes handed to w
}

func (e *jsonEncoder) Write(p []byte) (int, error) {
	e.n += len(p)
	return e.w.Write(p)
}

// maxPooledJSON is the largest body an encoder may have written and
// still go back to the pool: a big /v1/domains page or validate batch
// leaves a buffer its size behind, not worth keeping for the small
// validate bodies that make up most responses.
const maxPooledJSON = 64 << 10

var jsonEncoders = sync.Pool{New: func() any {
	e := new(jsonEncoder)
	e.enc = json.NewEncoder(e)
	e.enc.SetIndent("", "  ")
	return e
}}

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	e := jsonEncoders.Get().(*jsonEncoder)
	e.w, e.n = w, 0
	err := e.enc.Encode(v)
	e.w = nil
	// An Encoder that failed to write keeps the error and refuses every
	// later Encode, so it is dropped too.
	if err == nil && e.n <= maxPooledJSON {
		jsonEncoders.Put(e)
	}
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// current loads the snapshot or answers 503 (no snapshot published
// yet — an RTR-fed service that has not completed its first sync).
func (s *Service) current(w http.ResponseWriter) *Snapshot {
	sn := s.Current()
	if sn == nil {
		writeError(w, http.StatusServiceUnavailable, "no snapshot published yet")
	}
	return sn
}

// snapshotETag renders a snapshot's serial as a strong entity tag.
// Snapshots are immutable and the serial is strictly increasing, so the
// serial IS the entity version for every snapshot-derived resource.
func snapshotETag(sn *Snapshot) string {
	return `"` + strconv.FormatUint(sn.Serial, 10) + `"`
}

// conditional stamps the response with the snapshot's ETag and, when
// the request's If-None-Match names that tag (or "*"), answers 304 and
// reports true — the caller must not write a body. Pollers chasing
// snapshot churn thus pay a header round trip, not a full re-render.
func conditional(w http.ResponseWriter, r *http.Request, sn *Snapshot) bool {
	etag := snapshotETag(sn)
	w.Header().Set("ETag", etag)
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	for _, cand := range strings.Split(inm, ",") {
		cand = strings.TrimSpace(cand)
		// Weak validators compare by opaque tag: serial equality is
		// exact, so weak and strong comparison coincide here.
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == etag {
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}

// routeSpec is one route in a validate request.
type routeSpec struct {
	Prefix string `json:"prefix"`
	ASN    uint32 `json:"asn"`
}

// validateRequest accepts either a single route or a batch.
type validateRequest struct {
	routeSpec
	Routes []routeSpec `json:"routes"`
}

// validateResponse carries the snapshot identity with the results, so
// a caller can tell exactly which published state answered.
type validateResponse struct {
	Serial       uint64        `json:"serial"`
	Source       string        `json:"source"`
	SourceSerial uint32        `json:"source_serial"`
	Results      []RouteResult `json:"results"`
}

// parseRoute turns a routeSpec into a netip route.
func parseRoute(spec routeSpec) (netip.Prefix, uint32, error) {
	p, err := netip.ParsePrefix(spec.Prefix)
	if err != nil {
		return netip.Prefix{}, 0, fmt.Errorf("bad prefix %q: %v", spec.Prefix, err)
	}
	return p, spec.ASN, nil
}

// answerRoutes validates the specs against one snapshot and responds.
func answerRoutes(w http.ResponseWriter, sn *Snapshot, specs []routeSpec) {
	results := make([]RouteResult, 0, len(specs))
	for _, spec := range specs {
		p, asn, err := parseRoute(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		results = append(results, sn.ValidateRoute(p, asn))
	}
	writeJSON(w, http.StatusOK, validateResponse{
		Serial:       sn.Serial,
		Source:       sn.Source,
		SourceSerial: sn.SourceSerial,
		Results:      results,
	})
}

func (s *Service) handleValidatePost(w http.ResponseWriter, r *http.Request) {
	sn := s.current(w)
	if sn == nil {
		return
	}
	var req validateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxValidateBody))
	dec.DisallowUnknownFields()
	// Cleared once the body is in; a refused body keeps it, so the server's
	// drain of what is unread fails at once and the connection closes.
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Now().Add(validateBodyTimeout))
	err := dec.Decode(&req)
	if err == nil {
		// One JSON value is the whole body: whatever follows it is
		// refused, not ignored, inside the same size bound and deadline.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			writeError(w, http.StatusRequestTimeout, "request body not received within %v", validateBodyTimeout)
		case errors.As(err, &tooBig):
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxValidateBody)
		default:
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		return
	}
	rc.SetReadDeadline(time.Time{})
	specs := req.Routes
	if specs == nil {
		if req.Prefix == "" {
			writeError(w, http.StatusBadRequest, `want {"prefix": ..., "asn": ...} or {"routes": [...]}`)
			return
		}
		specs = []routeSpec{req.routeSpec}
	}
	if len(specs) == 0 {
		writeError(w, http.StatusBadRequest, "empty route batch")
		return
	}
	if len(specs) > maxBatchRoutes {
		writeError(w, http.StatusBadRequest, "batch of %d routes exceeds limit %d", len(specs), maxBatchRoutes)
		return
	}
	answerRoutes(w, sn, specs)
}

func (s *Service) handleValidateGet(w http.ResponseWriter, r *http.Request) {
	sn := s.current(w)
	if sn == nil {
		return
	}
	prefix := r.URL.Query().Get("prefix")
	asnText := r.URL.Query().Get("asn")
	if prefix == "" || asnText == "" {
		writeError(w, http.StatusBadRequest, "want ?prefix=<cidr>&asn=<asn>")
		return
	}
	asn, err := strconv.ParseUint(asnText, 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad asn %q: %v", asnText, err)
		return
	}
	answerRoutes(w, sn, []routeSpec{{Prefix: prefix, ASN: uint32(asn)}})
}

func (s *Service) handleDomain(w http.ResponseWriter, r *http.Request) {
	sn := s.current(w)
	if sn == nil {
		return
	}
	name := r.PathValue("name")
	if _, ok := sn.Domains.lookup(name); !ok {
		writeError(w, http.StatusNotFound, "domain %q not in the measured population", name)
		return
	}
	// A verdict is a pure function of (snapshot, name), so the snapshot
	// serial versions this resource too. Answer the conditional before
	// computing the verdict — a 304 skips the whole per-route
	// validation, not just the rendering.
	if conditional(w, r, sn) {
		return
	}
	verdict, _ := sn.Domain(name)
	writeJSON(w, http.StatusOK, verdict)
}

// maxDomainsPage caps one GET /v1/domains response. At the paper's
// million-domain population an uncapped listing would marshal tens of
// megabytes per request; clients page with limit/offset instead, and
// count always reports the full population size.
const maxDomainsPage = 1000

func (s *Service) handleDomains(w http.ResponseWriter, r *http.Request) {
	sn := s.current(w)
	if sn == nil {
		return
	}
	q := r.URL.Query()
	limit := maxDomainsPage
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", l)
			return
		}
		// 0 ("everything") and over-cap requests clamp to the page cap.
		if n != 0 && n < maxDomainsPage {
			limit = n
		}
	}
	offset := 0
	if o := q.Get("offset"); o != "" {
		n, err := strconv.Atoi(o)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad offset %q", o)
			return
		}
		offset = n // past-the-end offsets answer an empty page, not 400
	}
	writeJSON(w, http.StatusOK, struct {
		Serial  uint64          `json:"serial"`
		Count   int             `json:"count"`
		Offset  int             `json:"offset"`
		Domains []DomainListing `json:"domains"`
	}{sn.Serial, sn.Domains.Len(), offset, sn.Domains.Listing(limit, offset)})
}

// snapshotInfo is the GET /v1/snapshot body.
type snapshotInfo struct {
	Serial       uint64                   `json:"serial"`
	Source       string                   `json:"source"`
	SourceSerial uint32                   `json:"source_serial"`
	VRPs         int                      `json:"vrps"`
	Domains      int                      `json:"domains"`
	Exposure     measure.ExposureSnapshot `json:"exposure"`
}

func (s *Service) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sn := s.current(w)
	if sn == nil {
		return
	}
	if conditional(w, r, sn) {
		return
	}
	writeJSON(w, http.StatusOK, snapshotInfo{
		Serial:       sn.Serial,
		Source:       sn.Source,
		SourceSerial: sn.SourceSerial,
		VRPs:         sn.Index.Len(),
		Domains:      sn.Domains.Len(),
		Exposure:     sn.Exposure,
	})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sn := s.Current()
	if sn == nil {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{"starting"})
		return
	}
	if source, age, stale := s.staleSource(); stale {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status     string  `json:"status"`
			Reason     string  `json:"reason"`
			Source     string  `json:"source"`
			AgeSeconds float64 `json:"age_seconds"`
			MaxSeconds float64 `json:"max_seconds"`
			Serial     uint64  `json:"serial"`
		}{
			Status:     "degraded",
			Reason:     fmt.Sprintf("source %q has not published for %.1fs (max %.1fs)", source, age.Seconds(), s.healthMaxStaleness.Seconds()),
			Source:     source,
			AgeSeconds: age.Seconds(),
			MaxSeconds: s.healthMaxStaleness.Seconds(),
			Serial:     sn.Serial,
		})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		Serial uint64 `json:"serial"`
		VRPs   int    `json:"vrps"`
	}{"ok", sn.Serial, sn.Index.Len()})
}

// staleSource reports the live source with the largest update age
// exceeding the configured maximum, if any. Before a live source's
// first publish its age runs from registration, so a source that never
// syncs still degrades health instead of hiding forever.
func (s *Service) staleSource() (string, time.Duration, bool) {
	if s.healthMaxStaleness <= 0 {
		return "", 0, false
	}
	var worstName string
	var worstAge time.Duration
	s.sources.Range(func(k, v any) bool {
		st := v.(*sourceStat)
		last := st.liveNS.Load()
		if last == 0 {
			return true // a one-shot publisher never goes stale
		}
		last = max(last, st.lastNS.Load())
		if age := time.Since(time.Unix(0, last)); age > s.healthMaxStaleness && age > worstAge {
			worstName, worstAge = k.(string), age
		}
		return true
	})
	return worstName, worstAge, worstName != ""
}

// handleMetrics is the Prometheus scrape endpoint (text exposition
// format 0.0.4): uptime, snapshot identity, per-source staleness gauges,
// and the per-endpoint request counters and latency histograms. The
// scrape only loads atomics; it never contends with the query path.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteTo(w)
}
