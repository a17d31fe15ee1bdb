// Package webworld generates the synthetic web ecosystem the
// measurement pipeline studies: organisations (ISPs, webhosters,
// enterprises, and the paper's sixteen CDNs), RIR number-resource
// allocation, BGP announcements into a collector RIB, RPKI ROA
// issuance according to per-stakeholder policies, and the DNS zones of
// a ranked domain population.
//
// The paper measured the live Internet; this package is the offline
// substitute. Crucially, the paper's findings are not painted onto the
// output — they emerge from three structural facts encoded here:
//
//  1. CDN adoption grows with site popularity (Figure 3's cause),
//  2. apex domains cannot be CNAMEs, so CDN customers serve "www"
//     from the CDN but the bare domain from the origin host (Figure 1's
//     and Table 1's cause), and
//  3. ROA creation is an organisation-level policy that webhosters and
//     ISPs sometimes adopt and CDNs (except an Internap-like one) do
//     not (Figures 2 and 4 and §4.2's cause).
//
// Everything is deterministic given Config.Seed and Config.Domains.
package webworld

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"ripki/internal/alexa"
	"ripki/internal/dns"
	"ripki/internal/rib"
	"ripki/internal/rpki/repo"
)

// CDNSpec describes one content delivery network.
type CDNSpec struct {
	// Name is the lower-case operator name used for keyword spotting.
	Name string
	// ASCount is how many ASes the operator runs.
	ASCount int
	// Weight is the relative probability a CDN-hosted domain uses this
	// CDN.
	Weight float64
	// ServiceSuffixes are the DNS suffixes of the CDN's delivery
	// platform (the strings HTTPArchive-style classifiers match).
	ServiceSuffixes []string
	// SignsROAs marks the Internap-like exception that created a
	// handful of ROAs; everyone else abstains (§4.2).
	SignsROAs bool
	// SignedPrefixes and SignedASes bound the exception's deployment
	// (the paper found 4 prefixes tied to 3 origin ASes).
	SignedPrefixes, SignedASes int
}

// CDNs is the paper's §4.2 list: "Akamai, Amazon, Cdnetworks,
// Chinacache, Chinanet, Cloudflare, Cotendo, Edgecast, Highwinds,
// Instart, Internap, Limelight, Mirrorimage, Netdna, Simplecdn, and
// Yottaa", with AS counts summing to the 199 ASes the paper discovered
// and Internap's 41 ASes called out explicitly. Every world has this
// roster; each call returns a fresh copy.
func CDNs() []CDNSpec {
	return []CDNSpec{
		{Name: "akamai", ASCount: 36, Weight: 0.28, ServiceSuffixes: []string{"edgesuite.wld", "edgekey.wld", "akamaized.wld"}},
		{Name: "amazon", ASCount: 18, Weight: 0.20, ServiceSuffixes: []string{"cloudfront.wld", "awsdns.wld"}},
		{Name: "cdnetworks", ASCount: 8, Weight: 0.04, ServiceSuffixes: []string{"cdngc.wld"}},
		{Name: "chinacache", ASCount: 10, Weight: 0.03, ServiceSuffixes: []string{"ccgslb.wld"}},
		{Name: "chinanet", ASCount: 22, Weight: 0.05, ServiceSuffixes: []string{"chinanetcenter.wld"}},
		{Name: "cloudflare", ASCount: 6, Weight: 0.14, ServiceSuffixes: []string{"cdnsun-cf.wld", "cloudflarecdn.wld"}},
		{Name: "cotendo", ASCount: 4, Weight: 0.02, ServiceSuffixes: []string{"cotcdn.wld"}},
		{Name: "edgecast", ASCount: 9, Weight: 0.06, ServiceSuffixes: []string{"edgecastcdn.wld"}},
		{Name: "highwinds", ASCount: 6, Weight: 0.02, ServiceSuffixes: []string{"hwcdn.wld"}},
		{Name: "instart", ASCount: 3, Weight: 0.01, ServiceSuffixes: []string{"insnw.wld"}},
		{Name: "internap", ASCount: 41, Weight: 0.03, ServiceSuffixes: []string{"internapcdn.wld"}, SignsROAs: true, SignedPrefixes: 4, SignedASes: 3},
		{Name: "limelight", ASCount: 12, Weight: 0.05, ServiceSuffixes: []string{"llnwd.wld"}},
		{Name: "mirrorimage", ASCount: 5, Weight: 0.01, ServiceSuffixes: []string{"mirror-image.wld"}},
		{Name: "netdna", ASCount: 7, Weight: 0.03, ServiceSuffixes: []string{"netdna-cdn.wld"}},
		{Name: "simplecdn", ASCount: 4, Weight: 0.01, ServiceSuffixes: []string{"simplecdn.wld"}},
		{Name: "yottaa", ASCount: 8, Weight: 0.02, ServiceSuffixes: []string{"yottaa.wld"}},
	}
}

// Config names a world. Nothing else about a world can be set: the rest
// is the calibration that makes the paper's observed magnitudes emerge.
type Config struct {
	// Seed drives all randomness; equal seeds give equal worlds.
	Seed int64
	// Domains is the size of the ranked list; zero means the paper's
	// 1,000,000.
	Domains int
}

// The calibration. Each value reproduces a magnitude the paper reports.
const (
	// defaultDomains is the paper's ranked-list size.
	defaultDomains = 1000000
	// rpkiTTL is the validity window of RPKI objects.
	rpkiTTL = 365 * 24 * time.Hour

	// hosterROAProb is the share of webhoster and ISP organisations that
	// create ROAs for all their prefixes. The paper reports >5%
	// penetration for these stakeholders and ~6% of web prefixes covered
	// overall.
	hosterROAProb = 0.062
	// misconfigProb is the probability a ROA-signing organisation botches
	// one of its ROAs (wrong origin AS), producing the ~0.09% invalid
	// announcements the paper observes, evenly across ranks.
	misconfigProb = 0.015
	// cdnShareTop and cdnShareTail anchor the convex-in-log-rank CDN
	// adoption curve (Figure 3: ~30% at the top ranks, a few percent in
	// the tail).
	cdnShareTop, cdnShareTail = 0.30, 0.02
	// thirdPartyCacheShare is the fraction of CDN cache deployments placed
	// in third-party eyeball ISP networks ("CDN servers that are placed in
	// third party networks benefit from RPKI deployment that these
	// networks perform").
	thirdPartyCacheShare = 0.15
	// singleCNAMEShare is the fraction of CDN customers whose delivery
	// uses a single CNAME rather than a 2+ chain; the paper's
	// indirection-counting heuristic misses these while the
	// HTTPArchive-style pattern matcher catches them (Figure 3's gap).
	singleCNAMEShare = 0.35
	// bogusDNSProb is the probability a domain resolves only to IANA
	// special-purpose addresses (paper: 0.07% of answers excluded).
	bogusDNSProb = 0.0007
	// unreachableProb is the probability a server address comes from an
	// allocated but unannounced prefix (paper: 0.01% of addresses).
	unreachableProb = 0.0001
	// multiPrefixTopShare is the probability a top-10k non-CDN domain is
	// served from several prefixes (availability engineering at prominent
	// sites).
	multiPrefixTopShare = 0.35
	// backupArrangements is the number of confidential standby setups
	// (one organisation authorising another's AS on one of its prefixes)
	// planted in the RPKI — the business relations §5.2 warns the RPKI
	// exposes "in advance".
	backupArrangements = 3
	// dnssecBaseProb is the probability a domain's zone is DNSSEC signed
	// (a DNSKEY at the apex). The paper's future work compares RPKI with
	// DNSSEC adoption; roughly 2-3% of zones were signed in 2015, with
	// strong ccTLD effects modelled by dnssecTLDBoost.
	dnssecBaseProb = 0.022
)

// epoch is every world's creation time; MeasureTime is 30 days later.
var epoch = time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)

// dnssecTLDBoost is the 2015-flavoured signing probability of the TLDs
// signed far above dnssecBaseProb.
var dnssecTLDBoost = map[string]float64{
	".nl": 0.30, ".se": 0.40, ".cz": 0.35, ".fr": 0.08,
}

// hosters and isps scale the infrastructure population with the world.
func hosters(domains int) int { return clamp(domains/2500, 80, 400) }
func isps(domains int) int    { return clamp(domains/2000, 120, 500) }

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// OrgKind classifies organisations.
type OrgKind uint8

const (
	// KindHoster is a webhosting company.
	KindHoster OrgKind = iota
	// KindISP is an access or transit network operator.
	KindISP
	// KindCDN is a content delivery network.
	KindCDN
	// KindEnterprise is a content owner running its own network
	// (e.g. the Facebook-like fixture).
	KindEnterprise
)

// String names the kind.
func (k OrgKind) String() string {
	switch k {
	case KindHoster:
		return "hoster"
	case KindISP:
		return "isp"
	case KindCDN:
		return "cdn"
	case KindEnterprise:
		return "enterprise"
	default:
		return fmt.Sprintf("OrgKind(%d)", uint8(k))
	}
}

// Org is one organisation: an owner of ASes and prefixes and, possibly,
// a ROA-signing RPKI member.
type Org struct {
	Name      string
	Kind      OrgKind
	RIR       string
	ASNs      []uint32
	Prefixes  []netip.Prefix
	SignsROAs bool
	// CDN points at the spec when Kind == KindCDN.
	CDN *CDNSpec
	// fixture marks organisations backing the Table 1 fixtures, which
	// are exempt from random ROA misconfiguration so the table stays
	// deterministic.
	fixture bool
}

// PlantedBackup is one confidential standby setup written into the
// RPKI: the owner organisation's prefix additionally authorises the
// standby organisation's AS.
type PlantedBackup struct {
	OwnerOrg   string
	StandbyOrg string
	Prefix     netip.Prefix
	StandbyASN uint32
}

// ASInfo is one row of the world's AS assignment registry (the "common
// AS assignment lists" the paper applies keyword spotting to).
type ASInfo struct {
	ASN  uint32
	Name string // upper-case registry description, e.g. "AKAMAI-AS3"
	Org  string
}

// World is a fully generated ecosystem.
type World struct {
	Cfg Config

	// List is the ranked domain population (the Alexa substitute).
	List *alexa.List
	// Registry holds every DNS record of every zone.
	Registry *dns.Registry
	// RIB is the collector's routing table (the RIS substitute).
	RIB *rib.Table
	// Repo is the RPKI (5 trust anchors, CAs, ROAs).
	Repo *repo.Repository
	// Orgs is every organisation.
	Orgs []*Org
	// ASRegistry is the AS assignment list for keyword spotting.
	ASRegistry []ASInfo

	// CDNSuffixes maps each CDN name to its service-domain suffixes,
	// for pattern-based classification.
	CDNSuffixes map[string][]string

	rnd   *rand.Rand
	alloc *allocator
	orgs  *worldOrgs
	// memo caches what runs derive from the immutable layers (RPKI
	// validation at MeasureTime, seeded routers); shared by clones (see
	// snapshot.go).
	memo *sync.Map
	// prefixOrg maps each allocated prefix to its owner; generation
	// reads it to keep sub-prefixes from colliding.
	prefixOrg map[netip.Prefix]*Org
	// pinnedOrigin fixes the announcing AS per prefix so ROAs and
	// announcements agree.
	pinnedOrigin map[netip.Prefix]uint32
	// subOf maps each more-specific announcement to its covering
	// aggregate.
	subOf map[netip.Prefix]netip.Prefix
	// cleanSigned lists each organisation's correctly ROA-signed IPv4
	// prefixes, the candidates for backup arrangements.
	cleanSigned map[*Org][]netip.Prefix
	// PlantedBackups records the confidential standby setups written
	// into the RPKI (owner org, standby org, prefix), so experiments
	// can check the §5.2 exposure analysis finds exactly these.
	PlantedBackups []PlantedBackup
	// stats collected during generation.
	Stats Stats
	// Phases is where Generate's wall clock went: "orgs+roas", "announce",
	// "domains" (cache pools and the sharded build), "registry" (adopting
	// the shards' records; fixtures). Timings: never in diffed output.
	Phases []Phase
}

// Phase is one named span of wall clock.
type Phase struct {
	Name string
	D    time.Duration
}

// Stats records generation-time tallies used by tests and reports.
type Stats struct {
	PrefixesTotal     int
	PrefixesSigned    int
	ROAsIssued        int
	ROAsMisconfigured int
	DomainsCDN        int
	DomainsBogusDNS   int
	DomainsDNSSEC     int
	AddrsUnreachable  int
	CacheInThirdParty int
	CacheInCDNNetwork int
}

// MeasureTime returns the canonical measurement instant for this world
// (30 days after creation, well inside every validity window).
func (w *World) MeasureTime() time.Time {
	return epoch.Add(30 * 24 * time.Hour)
}
