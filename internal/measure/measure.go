// Package measure implements the paper's measurement methodology (§3):
//
//  1. select websites (a ranked domain list),
//  2. map domain names — with and without the "www" label — to IP
//     addresses via DNS, excluding IANA special-purpose answers,
//  3. map each address to the covering prefixes and origin ASes seen in
//     a BGP collector RIB, excluding AS_SET paths, and
//  4. validate every (prefix, origin) pair against the RPKI.
//
// The output dataset carries, per domain and per name variant, the
// validation-state mix ("we assign corresponding probabilities to
// domain names"), the CNAME indirection count for CDN classification
// (§4.3), and the prefix sets for the www/apex comparison (Figure 1).
//
// This package is the only place steps 2–4 and the exposure aggregate
// are written down; everything else that answers "how protected is this
// name" calls in here:
//
//   - AppendPairs is the kernel of steps 2–3. It starts at a DNS answer
//     (how the lookup is made — over the wire, in process, into a reused
//     buffer — is the caller's business), drops special-purpose
//     addresses, and appends the distinct covering (prefix, origin)
//     pairs in order to a buffer the caller owns. Run and Incremental
//     reach it through measureVariant, which validates the sorted run in
//     one pass (step 4); serve.BuildDomainTable calls it with a
//     per-worker arena and validates later, per snapshot.
//   - StateMix turns a name's valid/invalid/total pair counts into the
//     paper's per-domain probabilities. It is behind
//     VariantData.StateProb and CoverageProb, the accumulator below, and
//     serve's per-domain verdicts.
//   - ExposureAccumulator is the head-vs-tail aggregate: Snapshot feeds
//     it a Dataset (the study and the sim probe), serve feeds it the
//     domain table against a snapshot's VRP index.
//   - CDNThreshold is the "two or more CNAMEs" rule.
package measure

import (
	"cmp"
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"sync"

	"ripki/internal/alexa"
	"ripki/internal/dns"
	"ripki/internal/httparchive"
	"ripki/internal/netutil"
	"ripki/internal/rib"
	"ripki/internal/rpki/vrp"
)

// Config wires the pipeline to its data sources.
type Config struct {
	// Resolver answers the DNS lookups (dns.RegistryResolver, in
	// process).
	Resolver dns.Lookuper
	// RIB is the collector routing table (step 3).
	RIB *rib.Table
	// VRPs is the validated ROA payload set (step 4).
	VRPs *vrp.Set
	// HTTPArchive, if non-nil, supplies the independent CDN
	// classification for Figure 3.
	HTTPArchive *httparchive.Classifier
	// BinWidth groups domains for the figures (default 10,000).
	BinWidth int
	// DNSSEC, if true, additionally records whether each domain's zone
	// is DNSSEC signed (the paper's stated future-work comparison).
	// The Resolver must implement dns.DNSSECChecker.
	DNSSEC bool
}

// CDNThreshold is the paper's conservative CDN heuristic: a www name
// reached through this many CNAMEs or more is CDN-hosted.
const CDNThreshold = 2

func (c Config) binWidth() int {
	if c.BinWidth <= 0 {
		return 10000
	}
	return c.BinWidth
}

// VariantData is the measurement of one name variant (www or w/o www).
type VariantData struct {
	// Resolved is true when DNS produced at least one answer record.
	Resolved bool
	// NXDomain marks names that do not exist (e.g. a missing www).
	NXDomain bool
	// Excluded marks variants whose every address was special-purpose
	// (the paper's "incorrect DNS answers").
	Excluded bool
	// Addrs counts usable (public) addresses.
	Addrs int
	// SpecialAddrs counts discarded special-purpose answers.
	SpecialAddrs int
	// UnreachableAddrs counts addresses with no covering prefix in the
	// RIB.
	UnreachableAddrs int
	// CNAMEs is the DNS indirection count.
	CNAMEs int
	// Chain is the CNAME chain (for pattern classification).
	Chain []string

	// Pairs counts distinct (prefix, origin) pairs; PairMappings counts
	// them with per-address multiplicity (the paper's headline number).
	Pairs        int
	PairMappings int
	// ValidPairs/InvalidPairs split Pairs by RFC 6811 outcome; the rest
	// are NotFound.
	ValidPairs   int
	InvalidPairs int
	// CoveredPrefixes/TotalPrefixes count distinct covering prefixes,
	// for Table 1's "(1/3)" column.
	CoveredPrefixes int
	TotalPrefixes   int

	// prefixes is the distinct covering prefix set (Figure 1 compares
	// the two variants' sets).
	prefixes []netip.Prefix
}

// StateProb returns the per-domain probability of an RFC 6811 state —
// the paper's fractional representation of heterogeneous deployment.
func (v VariantData) StateProb(s vrp.State) float64 {
	valid, invalid, notFound, _ := StateMix(v.ValidPairs, v.InvalidPairs, v.Pairs)
	switch s {
	case vrp.Valid:
		return valid
	case vrp.Invalid:
		return invalid
	default:
		return notFound
	}
}

// CoverageProb is the probability a pair is covered by the RPKI at all
// (valid or invalid) — "RPKI-enabled" in Figure 4.
func (v VariantData) CoverageProb() float64 {
	_, _, _, coverage := StateMix(v.ValidPairs, v.InvalidPairs, v.Pairs)
	return coverage
}

// StateMix turns one name's pair counts into the paper's fractional
// representation: the probability of each RFC 6811 state over its pairs
// and of being RPKI-covered at all. All four are zero without pairs.
func StateMix(validPairs, invalidPairs, pairs int) (valid, invalid, notFound, coverage float64) {
	if pairs == 0 {
		return 0, 0, 0, 0
	}
	n := float64(pairs)
	return float64(validPairs) / n, float64(invalidPairs) / n,
		float64(pairs-validPairs-invalidPairs) / n, float64(validPairs+invalidPairs) / n
}

// Usable reports whether the variant contributes measurements.
func (v VariantData) Usable() bool { return v.Resolved && !v.Excluded && v.Addrs > 0 }

// DomainResult is one domain's measurement.
type DomainResult struct {
	Rank int
	Name string
	WWW  VariantData
	Apex VariantData

	// CDNByChain is the paper's heuristic: the www variant is reached
	// via >= threshold CNAMEs.
	CDNByChain bool
	// CDNByPattern is the HTTPArchive-style classification;
	// PatternCovered is false outside the classifier's corpus.
	CDNByPattern   bool
	PatternCovered bool
	// EqualPrefixShare is |www ∩ apex| / |www ∪ apex| over covering
	// prefix sets, when both variants resolved (-1 otherwise).
	EqualPrefixShare float64
	// DNSSEC is true when the zone apex publishes a DNSKEY (only
	// collected when Config.DNSSEC is set).
	DNSSEC bool
}

// Totals are the dataset-level headline numbers (§4's first paragraph).
type Totals struct {
	Domains          int
	WWWAddrs         int
	ApexAddrs        int
	WWWPairMappings  int
	ApexPairMappings int
	SpecialAddrs     int
	TotalAnswers     int
	UnreachableAddrs int
}

// Dataset is the pipeline output.
type Dataset struct {
	Results  []DomainResult
	BinWidth int
	Totals   Totals
}

// Run executes the methodology over the ranked list.
func Run(list *alexa.List, cfg Config) (*Dataset, error) {
	if cfg.Resolver == nil || cfg.RIB == nil || cfg.VRPs == nil {
		return nil, fmt.Errorf("measure: Resolver, RIB and VRPs are required")
	}
	entries := list.Entries()
	ds := &Dataset{
		Results:  make([]DomainResult, len(entries)),
		BinWidth: cfg.binWidth(),
	}
	err := fanOut(len(entries), func(lo, hi int) error {
		var scratch []rib.PrefixOrigin
		for i := lo; i < hi; i++ {
			r, err := measureDomain(entries[i], cfg, nil, &scratch)
			if err != nil {
				return err
			}
			ds.Results[i] = r
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ds.computeTotals()
	return ds, nil
}

// fanOut splits [0, n) into one contiguous chunk per GOMAXPROCS worker,
// runs fn on every chunk concurrently and returns the first error. The
// chunks only write slot-addressed results, so scheduling cannot reorder
// anything observable.
func fanOut(n int, fn func(lo, hi int) error) error {
	workers := runtime.GOMAXPROCS(0)
	chunk := max((n+workers-1)/workers, 1)
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			if err := fn(lo, hi); err != nil {
				errOnce.Do(func() { firstErr = err })
			}
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
	return firstErr
}

// domainKeys records what one domain's measurement depended on: the
// owner names whose DNS records were consulted (the queried names plus
// every CNAME target traversed) and the covering prefixes validated
// against the VRP set. The incremental dataset inverts these into its
// dirty-set indexes; Run passes a nil collector.
type domainKeys struct {
	hosts    []string
	prefixes []netip.Prefix
}

// measureDomain measures both variants of one list entry. scratch is
// the calling worker's pair buffer, reused from domain to domain.
func measureDomain(e alexa.Entry, cfg Config, keys *domainKeys, scratch *[]rib.PrefixOrigin) (DomainResult, error) {
	r := DomainResult{Rank: e.Rank, Name: e.Domain, EqualPrefixShare: -1}
	var err error
	if r.WWW, err = measureVariant("www."+e.Domain, cfg, keys, scratch); err != nil {
		return r, err
	}
	if r.Apex, err = measureVariant(e.Domain, cfg, keys, scratch); err != nil {
		return r, err
	}
	r.CDNByChain = r.WWW.Usable() && r.WWW.CNAMEs >= CDNThreshold
	if cfg.HTTPArchive != nil {
		chain := r.WWW.Chain
		if len(r.Apex.Chain) > len(chain) {
			chain = r.Apex.Chain
		}
		r.CDNByPattern, r.PatternCovered = cfg.HTTPArchive.Classify(e.Rank, chain)
	}
	if r.WWW.Usable() && r.Apex.Usable() {
		r.EqualPrefixShare = jaccard(r.WWW.prefixes, r.Apex.prefixes)
	}
	if cfg.DNSSEC {
		checker, ok := cfg.Resolver.(dns.DNSSECChecker)
		if !ok {
			return r, fmt.Errorf("measure: DNSSEC requested but resolver %T cannot check DNSKEY", cfg.Resolver)
		}
		signed, err := checker.HasDNSKEY(e.Domain)
		if err != nil {
			return r, fmt.Errorf("measure: DNSKEY check for %q: %w", e.Domain, err)
		}
		r.DNSSEC = signed
	}
	return r, nil
}

func measureVariant(name string, cfg Config, keys *domainKeys, scratch *[]rib.PrefixOrigin) (VariantData, error) {
	var v VariantData
	res, err := cfg.Resolver.LookupWeb(name)
	if err != nil {
		return v, fmt.Errorf("measure: resolving %q: %w", name, err)
	}
	if keys != nil {
		// The queried name is recorded even when it does not exist:
		// a record added there later must re-trigger this measurement.
		keys.hosts = append(keys.hosts, dns.CanonicalName(name))
		keys.hosts = append(keys.hosts, res.Chain...)
	}
	if res.NXDomain {
		v.NXDomain = true
		return v, nil
	}
	v.CNAMEs = res.CNAMECount()
	v.Chain = res.Chain
	if len(res.Addrs) == 0 && v.CNAMEs == 0 {
		return v, nil // no data
	}
	v.Resolved = true
	pairs, n := AppendPairs((*scratch)[:0], cfg.RIB, res.Addrs)
	*scratch = pairs
	v.Addrs, v.SpecialAddrs, v.UnreachableAddrs, v.PairMappings = n.Addrs, n.SpecialAddrs, n.UnreachableAddrs, n.PairMappings
	if v.Addrs == 0 && v.SpecialAddrs > 0 {
		v.Excluded = true
		return v, nil
	}
	// Step 4, one pass: the pairs arrive sorted, so each prefix's origins
	// are one run.
	v.Pairs = len(pairs)
	for i := 0; i < len(pairs); {
		p, covered := pairs[i].Prefix, false
		for ; i < len(pairs) && pairs[i].Prefix == p; i++ {
			switch cfg.VRPs.Validate(p, pairs[i].Origin) {
			case vrp.Valid:
				v.ValidPairs++
				covered = true
			case vrp.Invalid:
				v.InvalidPairs++
				covered = true
			}
		}
		v.TotalPrefixes++
		if covered {
			v.CoveredPrefixes++
		}
		v.prefixes = append(v.prefixes, p)
	}
	if keys != nil {
		keys.prefixes = append(keys.prefixes, v.prefixes...)
	}
	return v, nil
}

// PairCounts is what AppendPairs counted on the way through one DNS
// answer.
type PairCounts struct {
	// Addrs counts usable (public) addresses, SpecialAddrs the discarded
	// special-purpose ones.
	Addrs, SpecialAddrs int
	// UnreachableAddrs counts public addresses under no routed prefix.
	UnreachableAddrs int
	// PairMappings counts (prefix, origin) pairs with per-address
	// multiplicity, i.e. before deduplication across addresses.
	PairMappings int
}

// AppendPairs is methodology steps 2–3 from the DNS answer on: it drops
// IANA special-purpose addresses, looks every remaining one up in the
// RIB, and appends the distinct (prefix, origin) pairs serving the name
// to dst in (prefix, origin) order. What dst held before is left alone;
// a caller that keeps the buffer allocates nothing once it has grown.
func AppendPairs(dst []rib.PrefixOrigin, table *rib.Table, addrs []netip.Addr) ([]rib.PrefixOrigin, PairCounts) {
	var n PairCounts
	start := len(dst)
	for _, a := range addrs {
		if netutil.IsSpecialPurpose(a) {
			n.SpecialAddrs++
			continue
		}
		n.Addrs++
		before := len(dst)
		dst = table.AppendOriginPairs(dst, a)
		n.PairMappings += len(dst) - before
		// No pair is not yet unreachable: a prefix announced only with
		// AS_SET paths covers the address and yields none.
		if len(dst) == before && !table.Reachable(a) {
			n.UnreachableAddrs++
		}
	}
	// One address's pairs arrive distinct and in order; those of several
	// addresses repeat and interleave.
	if n.Addrs > 1 {
		pairs := dst[start:]
		slices.SortFunc(pairs, func(a, b rib.PrefixOrigin) int {
			if c := netutil.ComparePrefixes(a.Prefix, b.Prefix); c != 0 {
				return c
			}
			return cmp.Compare(a.Origin, b.Origin)
		})
		dst = dst[:start+len(slices.Compact(pairs))]
	}
	return dst, n
}

// jaccard computes |a ∩ b| / |a ∪ b| over sorted prefix slices.
func jaccard(a, b []netip.Prefix) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	i, j, inter := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch c := netutil.ComparePrefixes(a[i], b[j]); {
		case c == 0:
			inter++
			i++
			j++
		case c < 0:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

func (ds *Dataset) computeTotals() {
	ds.Totals = Totals{}
	t := &ds.Totals
	t.Domains = len(ds.Results)
	for i := range ds.Results {
		r := &ds.Results[i]
		t.WWWAddrs += r.WWW.Addrs
		t.ApexAddrs += r.Apex.Addrs
		t.WWWPairMappings += r.WWW.PairMappings
		t.ApexPairMappings += r.Apex.PairMappings
		t.SpecialAddrs += r.WWW.SpecialAddrs + r.Apex.SpecialAddrs
		t.TotalAnswers += r.WWW.Addrs + r.Apex.Addrs + r.WWW.SpecialAddrs + r.Apex.SpecialAddrs
		t.UnreachableAddrs += r.WWW.UnreachableAddrs + r.Apex.UnreachableAddrs
	}
}

// ExcludedDNSFraction is the share of answers discarded as
// special-purpose (paper: 0.07%).
func (t Totals) ExcludedDNSFraction() float64 {
	if t.TotalAnswers == 0 {
		return 0
	}
	return float64(t.SpecialAddrs) / float64(t.TotalAnswers)
}

// UnreachableFraction is the share of public addresses not covered by
// any announced prefix (paper: 0.01%).
func (t Totals) UnreachableFraction() float64 {
	total := t.WWWAddrs + t.ApexAddrs
	if total == 0 {
		return 0
	}
	return float64(t.UnreachableAddrs) / float64(total)
}
