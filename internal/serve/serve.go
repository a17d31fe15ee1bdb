// Package serve is the always-on validation-as-a-service subsystem: it
// answers the paper's core question — "is this piece of web content
// reachable via an RPKI-protected route, and what breaks under strict
// filtering?" — as an online query service instead of a one-shot CLI
// or an offline sweep.
//
// The design centre is an immutable, versioned query snapshot published
// through an atomic pointer:
//
//   - a Snapshot bundles a lock-free VRP index (vrp.Index over
//     internal/radix), the domain→prefix exposure table derived from
//     the webworld via the measurement pipeline's resolution rules, and
//     a monotonically increasing serial;
//   - writers (an RTR client session against a cache, an in-process
//     sim scenario, or a direct Publish call) wrap a frozen index in a
//     fresh Snapshot and swap the pointer — they never mutate a
//     published one. A source that keeps a live vrp.Set publishes an
//     O(1) freeze of it (vrp.IndexOf): the snapshot shares the set's
//     radix nodes, and the set copies the path of whatever it writes
//     next, so a publish costs what changed, not what is held;
//   - the read path loads the pointer once per request and answers
//     entirely from that snapshot, so it takes no mutex, can never
//     observe a half-applied update, and scales linearly with cores.
//
// HTTP surface (see Handler): POST/GET /v1/validate (single and batch
// RFC 6811 origin validation with covering VRPs and the snapshot
// serial), GET /v1/domain/{name} (per-domain exposure verdict à la the
// paper's figures), GET /v1/domains, GET /v1/snapshot, GET /v1/events
// (the cursor-indexed incident feed: typed sim incidents plus every
// snapshot publish, with long-poll), GET /healthz (503 "degraded" when
// a live source outlives SetHealthMaxStaleness), and GET /metrics
// (Prometheus text exposition: request counters and latency histograms
// per endpoint, snapshot identity, per-source staleness gauges, and
// per-event-type feed counters — rendered from lock-free accumulators).
package serve

import (
	"fmt"
	"maps"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"ripki/internal/measure"
	"ripki/internal/obs"
	"ripki/internal/rpki/vrp"
	"ripki/internal/strtab"
)

// CoveringVRP is the JSON rendering of one VRP considered for a route.
type CoveringVRP struct {
	Prefix    string `json:"prefix"`
	MaxLength int    `json:"max_length"`
	ASN       uint32 `json:"asn"`
}

// RouteResult is one route's origin-validation outcome.
type RouteResult struct {
	Prefix string `json:"prefix"`
	ASN    uint32 `json:"asn"`
	// State is "valid", "invalid" or "notfound" (RFC 6811).
	State string `json:"state"`
	// Covering lists every VRP covering the prefix, shortest first.
	Covering []CoveringVRP `json:"covering,omitempty"`
}

// StateToken renders a validation state as the compact API token the
// sim's time-series columns already use.
func StateToken(st vrp.State) string {
	switch st {
	case vrp.Valid:
		return "valid"
	case vrp.Invalid:
		return "invalid"
	default:
		return "notfound"
	}
}

// Snapshot is one immutable, versioned view of the service's queryable
// state. All fields are set before the snapshot is published and never
// written afterwards, so any number of readers may use it concurrently
// without synchronisation.
type Snapshot struct {
	// Serial is the service's own publication counter, strictly
	// increasing; every response carries it so callers can correlate.
	Serial uint64
	// Source names the update source ("world", "csv", "rtr", "sim").
	Source string
	// SourceSerial is the source's own version (RTR cache serial, sim
	// tick), informational.
	SourceSerial uint32
	// Index is the lock-free VRP index answering RFC 6811 queries.
	Index *vrp.Index
	// Domains is the domain exposure table (shared across snapshots —
	// DNS and RIB state is VRP-independent).
	Domains *DomainTable
	// Exposure is the aggregate exposure of the domain population under
	// this snapshot's VRPs, in the paper's figure terms.
	Exposure measure.ExposureSnapshot
}

// ValidateRoute classifies one route against this snapshot.
func (sn *Snapshot) ValidateRoute(prefix netip.Prefix, asn uint32) RouteResult {
	res, _ := sn.validateRoute(prefix, asn)
	return res
}

// validateRoute is ValidateRoute with the state kept beside its token,
// for callers that go on to count.
func (sn *Snapshot) validateRoute(prefix netip.Prefix, asn uint32) (RouteResult, vrp.State) {
	st, covering := sn.Index.ValidateExplain(prefix, asn)
	res := RouteResult{Prefix: prefix.String(), ASN: asn, State: StateToken(st)}
	if len(covering) > 0 {
		res.Covering = make([]CoveringVRP, len(covering))
		for i, v := range covering {
			res.Covering[i] = CoveringVRP{Prefix: v.Prefix.String(), MaxLength: v.MaxLength, ASN: v.ASN}
		}
	}
	return res, st
}

// VariantVerdict is one name variant's exposure under a snapshot.
type VariantVerdict struct {
	Name     string `json:"name"`
	Resolved bool   `json:"resolved"`
	// Routes are the distinct (prefix, origin) pairs serving the name,
	// each with its validation outcome.
	Routes []RouteResult `json:"routes,omitempty"`
	// Valid/Invalid/NotFound are the per-domain state probabilities
	// over the pairs (the paper's fractional representation).
	Valid    float64 `json:"valid"`
	Invalid  float64 `json:"invalid"`
	NotFound float64 `json:"notfound"`
	// Coverage is the probability of being RPKI-covered at all.
	Coverage float64 `json:"coverage"`
	// Protected: every pair validates — a hijack of any serving prefix
	// is dropped by strict-filtering relying parties.
	Protected bool `json:"protected"`
	// StrictReachable: at least one pair is not invalid, i.e. the name
	// stays reachable when routers drop invalid announcements.
	StrictReachable bool `json:"strict_reachable"`
}

// DomainVerdict is the per-domain exposure answer of GET /v1/domain.
type DomainVerdict struct {
	Domain string         `json:"domain"`
	Rank   int            `json:"rank"`
	CDN    bool           `json:"cdn"`
	Serial uint64         `json:"serial"`
	WWW    VariantVerdict `json:"www"`
	Apex   VariantVerdict `json:"apex"`
}

// Domain answers the per-domain exposure query. The name may carry a
// leading "www." label; both variants are always reported.
func (sn *Snapshot) Domain(name string) (*DomainVerdict, bool) {
	t := sn.Domains
	i, ok := t.lookup(name)
	if !ok {
		return nil, false
	}
	dn := t.name(i)
	return &DomainVerdict{
		Domain: dn,
		Rank:   int(t.ranks[i]),
		CDN:    t.flags[i]&flagCDN != 0,
		Serial: sn.Serial,
		WWW:    sn.variantVerdict("www."+dn, t.wwwIDs(i), t.flags[i]&flagWWWResolved != 0),
		Apex:   sn.variantVerdict(dn, t.apexIDs(i), t.flags[i]&flagApexResolved != 0),
	}, true
}

// variantVerdict validates one variant's routes (ids into the table's
// unique-route array) against the snapshot.
func (sn *Snapshot) variantVerdict(name string, ids []uint32, resolved bool) VariantVerdict {
	v := VariantVerdict{Name: name, Resolved: resolved}
	if !resolved || len(ids) == 0 {
		return v
	}
	routes := sn.Domains.routes
	v.Routes = make([]RouteResult, 0, len(ids))
	valid, invalid := 0, 0
	for _, id := range ids {
		p := routes[id]
		rr, st := sn.validateRoute(p.Prefix, p.Origin)
		v.Routes = append(v.Routes, rr)
		switch st {
		case vrp.Valid:
			valid++
		case vrp.Invalid:
			invalid++
		}
	}
	v.Valid, v.Invalid, v.NotFound, v.Coverage = measure.StateMix(valid, invalid, len(ids))
	v.Protected = valid == len(ids)
	v.StrictReachable = invalid < len(ids)
	return v
}

// Service publishes snapshots and serves queries over them. Writers
// (PublishSet and the Run* sources) serialise on an internal mutex; the
// read path — Current and every HTTP handler — only ever loads the
// atomic snapshot pointer.
type Service struct {
	domains *DomainTable
	reg     *obs.Registry
	start   time.Time
	startup *Startup // nil unless SetStartup was called
	// Per-endpoint request metrics; instrument holds their children.
	requests, requestErrors *obs.CounterVec
	durations               *obs.HistogramVec
	// rtrSync is how long the first RunRTR took from dialling the cache
	// to its first publish, in nanoseconds; 0 until then.
	rtrSync atomic.Int64

	// events is the incident feed behind GET /v1/events; eventsTotal
	// counts appends by event_type for /metrics.
	events      *eventRing
	eventsTotal *obs.CounterVec

	// healthMaxStaleness, when positive, turns /healthz into a
	// staleness probe: 503 once any live source's last publish is older
	// than this.
	healthMaxStaleness time.Duration

	snap atomic.Pointer[Snapshot]

	// Staleness trackers behind GET /metrics and /healthz: when the
	// service last published at all, and one record per update source.
	publishedAt atomic.Int64
	sources     sync.Map // source name → *sourceStat

	// pubMu serialises writers so serials and snapshots advance
	// together. Readers never touch it.
	pubMu  sync.Mutex
	serial uint64
}

// New creates a service over a domain exposure table (which may be
// empty). No snapshot is published yet: /healthz reports starting and
// queries answer 503 until the first Publish.
func New(domains *DomainTable) *Service {
	if domains == nil {
		domains = &DomainTable{names: strtab.New()}
	}
	s := &Service{
		domains: domains,
		start:   time.Now(),
		events:  newEventRing(eventRingCapacity),
	}
	s.reg = s.buildRegistry()
	return s
}

// SetHealthMaxStaleness arms the degraded-health probe: when d > 0,
// /healthz answers 503 with a JSON reason once any live update source
// has not published for longer than d. Set before serving traffic.
func (s *Service) SetHealthMaxStaleness(d time.Duration) { s.healthMaxStaleness = d }

// markLive registers a continuously updating source (an RTR session, a
// sim scenario) with the health probe, stamping when it was first
// registered; one-shot publishers ("world", "csv") are not live and
// never trip it.
func (s *Service) markLive(source string) {
	s.source(source).liveNS.CompareAndSwap(0, time.Now().UnixNano())
}

// Current returns the latest published snapshot, or nil before the
// first publish. It is safe from any goroutine and takes no lock.
func (s *Service) Current() *Snapshot { return s.snap.Load() }

// PublishSet publishes the set as it stands now, bumping the serial.
// The snapshot's index is an O(1) freeze of the set (vrp.IndexOf), not
// a rebuild: it shares the set's nodes, the caller goes on mutating the
// set, and each write copies the path it descends, so the snapshot
// never sees it.
func (s *Service) PublishSet(set *vrp.Set, source string, sourceSerial uint32) (*Snapshot, error) {
	return s.publishIndex(vrp.IndexOf(set), source, sourceSerial, nil), nil
}

// publishIndex is where every publish ends: it wraps a finished index
// in the next snapshot, swaps it in and reports it on the feed. attrs,
// if any, join the feed event's attributes (what the source knows about
// the update it just delivered).
func (s *Service) publishIndex(ix *vrp.Index, source string, sourceSerial uint32, attrs map[string]string) *Snapshot {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.serial++
	sn := &Snapshot{
		Serial:       s.serial,
		Source:       source,
		SourceSerial: sourceSerial,
		Index:        ix,
		Domains:      s.domains,
		Exposure:     s.domains.exposure(ix),
	}
	s.snap.Store(sn)
	s.recordPublish(source, sourceSerial)
	event := FeedEvent{
		EventType: "serve.snapshot_publish",
		Feed:      "serve",
		Observer:  source,
		Attributes: map[string]string{
			"source":        source,
			"source_serial": fmt.Sprintf("%d", sourceSerial),
			"vrps":          fmt.Sprintf("%d", ix.Len()),
		},
	}
	maps.Copy(event.Attributes, attrs)
	s.appendEvent(event)
	return sn
}
