package webworld

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"runtime"
	"strings"
	"sync"

	"ripki/internal/alexa"
	"ripki/internal/dns"
)

// cachePoolEntry is one CDN delivery hostname: the terminal name of
// customer CNAME chains, carrying the cache addresses.
type cachePoolEntry struct {
	host  string
	addrs []netip.Addr
}

// buildCachePools provisions each CDN's delivery hostnames, writing
// their records into b. A fraction of cache addresses live in
// third-party eyeball ISP networks; those inherit whatever RPKI coverage
// the ISP created — the §4.2 finding "every RPKI-enabled CDN-content is
// served by a third party network".
func (w *World) buildCachePools(b *dns.Builder) map[string][]cachePoolEntry {
	pools := make(map[string][]cachePoolEntry, len(w.orgs.cdns))
	size := clamp(w.Cfg.Domains/500, 40, 2000)
	for _, cdnOrg := range w.orgs.cdns {
		spec := cdnOrg.CDN
		entries := make([]cachePoolEntry, 0, size)
		for i := 0; i < size; i++ {
			suffix := spec.ServiceSuffixes[w.rnd.Intn(len(spec.ServiceSuffixes))]
			e := cachePoolEntry{host: fmt.Sprintf("e%05d.%c.%s", i, 'a'+rune(w.rnd.Intn(4)), suffix)}
			nAddr := 1 + w.rnd.Intn(2)
			for j := 0; j < nAddr; j++ {
				var p netip.Prefix
				if w.rnd.Float64() < thirdPartyCacheShare {
					isp := w.orgs.isps[w.rnd.Intn(len(w.orgs.isps))]
					p = w.v4PrefixOf(w.rnd, isp)
					w.Stats.CacheInThirdParty++
				} else {
					p = w.v4PrefixOf(w.rnd, cdnOrg)
					w.Stats.CacheInCDNNetwork++
				}
				e.addrs = append(e.addrs, hostAddr(p, 1+w.rnd.Intn(4000)))
			}
			for _, a := range e.addrs {
				b.Add(dns.RR{Name: e.host, Type: dns.TypeA, TTL: 20, Addr: a})
			}
			if v6 := w.v6PrefixOf(cdnOrg); v6.IsValid() && w.rnd.Float64() < 0.3 {
				a6 := hostAddr(v6, 1+w.rnd.Intn(4000))
				b.Add(dns.RR{Name: e.host, Type: dns.TypeAAAA, TTL: 20, Addr: a6})
			}
			entries = append(entries, e)
		}
		pools[spec.Name] = entries
	}
	return pools
}

// v4PrefixOf picks a random IPv4 prefix of the organisation, drawing
// from the caller's stream (shards and fixtures each own one).
func (w *World) v4PrefixOf(rnd *rand.Rand, o *Org) netip.Prefix {
	for tries := 0; tries < 8; tries++ {
		p := o.Prefixes[rnd.Intn(len(o.Prefixes))]
		if p.Addr().Is4() {
			return p
		}
	}
	for _, p := range o.Prefixes {
		if p.Addr().Is4() {
			return p
		}
	}
	panic("webworld: organisation " + o.Name + " has no IPv4 prefix")
}

// v6PrefixOf returns an IPv6 prefix of the organisation, if any.
func (w *World) v6PrefixOf(o *Org) netip.Prefix {
	for _, p := range o.Prefixes {
		if p.Addr().Is6() {
			return p
		}
	}
	return netip.Prefix{}
}

// cdnShare interpolates CDN adoption between the top and tail anchors
// as a convex curve in log10(rank): adoption stays high through the
// prominent ranks and falls away in the long tail, matching Figure 3's
// measured profile.
func (w *World) cdnShare(rank int) float64 {
	n := float64(w.Cfg.Domains)
	if n <= 1 {
		return cdnShareTop
	}
	t := math.Log10(float64(rank)) / math.Log10(n)
	t = math.Pow(t, 2.5)
	return cdnShareTop + (cdnShareTail-cdnShareTop)*t
}

// merge folds another shard's tallies in; addition commutes, so the
// result is shard-count independent.
func (s *Stats) merge(o Stats) {
	s.PrefixesTotal += o.PrefixesTotal
	s.PrefixesSigned += o.PrefixesSigned
	s.ROAsIssued += o.ROAsIssued
	s.ROAsMisconfigured += o.ROAsMisconfigured
	s.DomainsCDN += o.DomainsCDN
	s.DomainsBogusDNS += o.DomainsBogusDNS
	s.DomainsDNSSEC += o.DomainsDNSSEC
	s.AddrsUnreachable += o.AddrsUnreachable
	s.CacheInThirdParty += o.CacheInThirdParty
	s.CacheInCDNNetwork += o.CacheInCDNNetwork
}

// domainBuilder accumulates one shard's per-domain output: DNS records
// go into the shard's own columns and stat tallies into its own Stats,
// handed to the shared world in rank order after all shards finish. The
// rnd stream is re-seeded per domain from (Seed, rank), which is the
// whole determinism argument: no draw ever depends on which shard made
// it.
type domainBuilder struct {
	w     *World
	rnd   *rand.Rand
	dns   *dns.Builder
	stats Stats
	// A domain's prefixes and addresses, kept to append into.
	prefixes []netip.Prefix
	addrs    []netip.Addr
}

func (b *domainBuilder) add(rr dns.RR) { b.dns.Add(rr) }

func (b *domainBuilder) addCNAME(name, target string, ttl uint32) {
	b.add(dns.RR{Name: name, Type: dns.TypeCNAME, TTL: ttl, Target: target})
}

// buildDomains creates the ranked population and all web DNS records.
// The per-domain phase is sharded: the ranked list is split into one
// contiguous range per GOMAXPROCS, each built concurrently into a private
// builder; the output is the same at every count.
// Fixtures are order-coupled (they share a rotating covered-prefix
// counter), so they are rebuilt sequentially afterwards. The registry is
// built from the cache pools', the shards' and the fixtures' records, in
// that order, and the ranked list's names are the registry's own.
func (w *World) buildDomains(lap func(phase string)) error {
	parts := []*dns.Builder{new(dns.Builder)}
	pools := w.buildCachePools(parts[0])

	fixtures := make(map[int]topSite)
	var fixtureList []topSite // ascending rank, as topSites guarantees
	for _, ts := range topSites() {
		if ts.rank <= w.Cfg.Domains {
			fixtures[ts.rank] = ts
			fixtureList = append(fixtureList, ts)
		}
	}

	n := w.Cfg.Domains
	shards := max(1, min(runtime.GOMAXPROCS(0), n))
	// eachShard runs fn over one contiguous range of ranks per shard,
	// concurrently.
	eachShard := func(fn func(s, lo, hi int)) {
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(s, n*s/shards, n*(s+1)/shards)
			}()
		}
		wg.Wait()
	}

	builders := make([]*domainBuilder, shards)
	eachShard(func(s, lo, hi int) {
		// Room for 2.6 records and 36 bytes of names a domain: a shard
		// has measured up to about 2.5 and 35, the top ranks the most.
		b := &domainBuilder{w: w, rnd: rand.New(new(sm64)), dns: dns.NewBuilder((hi-lo)*13/5, (hi-lo)*36)}
		builders[s] = b
		var scratch []byte
		for i := lo; i < hi; i++ {
			rank := i + 1
			if _, ok := fixtures[rank]; ok {
				continue
			}
			b.rnd.Seed(domainSeed(w.Cfg.Seed, rank))
			scratch = appendDomain(append(scratch[:0], "www."...), b.rnd, rank)
			b.buildRegularDomain(rank, string(scratch), pools)
		}
	})
	lap("domains")

	for _, b := range builders {
		parts = append(parts, b.dns)
		w.Stats.merge(b.stats)
	}

	// Fixture streams are also rank-derived, so their draws (covered vs
	// CDN prefix picks) are shard-count independent too.
	fixed := new(dns.Builder)
	frnd := rand.New(new(sm64))
	fixISPNext := 0
	for _, ts := range fixtureList {
		frnd.Seed(domainSeed(w.Cfg.Seed, ts.rank))
		if err := w.buildFixture(fixed, frnd, ts, &fixISPNext); err != nil {
			return err
		}
	}
	w.Registry = dns.Build(append(parts, fixed)...)

	// The ranked list's names are the registry's own strings. A domain's
	// name is the first thing its rank's stream draws, so it is drawn
	// again here and looked up: nothing holds a copy of every name while
	// the registry is built.
	names := make([]string, n)
	eachShard(func(_, lo, hi int) {
		rnd := rand.New(new(sm64))
		var scratch []byte
		for i := lo; i < hi; i++ {
			rank := i + 1
			if ts, ok := fixtures[rank]; ok {
				scratch = append(scratch[:0], ts.name...)
			} else {
				rnd.Seed(domainSeed(w.Cfg.Seed, rank))
				scratch = appendDomain(scratch[:0], rnd, rank)
			}
			if name, ok := w.Registry.Interned(string(scratch)); ok {
				names[i] = name
			} else {
				names[i] = string(scratch)
			}
		}
	})
	w.List = alexa.FromDomains(names)
	return nil
}

// maybeSignZone adds a DNSKEY at the zone apex with the calibrated
// TLD-dependent probability — the DNSSEC-adoption signal the paper's
// future work compares against RPKI. Zone signing is operationally
// independent of routing security, so the two deployments are
// uncorrelated here by construction.
func (b *domainBuilder) maybeSignZone(domain string) {
	p := dnssecBaseProb
	for tld, boost := range dnssecTLDBoost {
		if strings.HasSuffix(domain, tld) {
			p = boost
			break
		}
	}
	if b.rnd.Float64() >= p {
		return
	}
	b.stats.DomainsDNSSEC++
	key := make([]byte, 32)
	b.rnd.Read(key)
	b.add(dns.RR{
		Name: domain, Type: dns.TypeDNSKEY, TTL: 3600,
		Data: &dns.RData{DNSKEY: &dns.DNSKEYData{Flags: 257, Protocol: 3, Algorithm: 8, PublicKey: key}},
	})
}

// pickCDN selects a CDN by spec weight.
func (b *domainBuilder) pickCDN() *Org {
	cdns := b.w.orgs.cdns
	total := 0.0
	for _, o := range cdns {
		total += o.CDN.Weight
	}
	x := b.rnd.Float64() * total
	for _, o := range cdns {
		x -= o.CDN.Weight
		if x <= 0 {
			return o
		}
	}
	return cdns[len(cdns)-1]
}

// maybeUnreachable swaps an address for one in allocated-but-unannounced
// space with the calibrated probability (paper: 0.01% of addresses are
// not visible from the BGP vantage points).
func (b *domainBuilder) maybeUnreachable(a netip.Addr) netip.Addr {
	w := b.w
	if b.rnd.Float64() >= unreachableProb || len(w.orgs.unrouted) == 0 {
		return a
	}
	b.stats.AddrsUnreachable++
	p := w.orgs.unrouted[b.rnd.Intn(len(w.orgs.unrouted))]
	return hostAddr(p, 1+b.rnd.Intn(4000))
}

// buildRegularDomain provisions one generated domain, named by its www
// name: the domain is what follows "www.", so one string holds both.
// All reads of shared world state (orgs, config) are immutable by this
// phase; all writes land in the builder.
func (b *domainBuilder) buildRegularDomain(rank int, www string, pools map[string][]cachePoolEntry) {
	w := b.w
	domain := www[len("www."):]
	b.maybeSignZone(domain)

	// A small fraction of domains answer only with special-purpose
	// addresses; the pipeline must exclude them (paper: 0.07%).
	if b.rnd.Float64() < bogusDNSProb {
		b.stats.DomainsBogusDNS++
		bogus := netip.AddrFrom4([4]byte{127, 0, 0, byte(1 + b.rnd.Intn(200))})
		if b.rnd.Intn(2) == 0 {
			bogus = netip.AddrFrom4([4]byte{10, byte(b.rnd.Intn(256)), byte(b.rnd.Intn(256)), 5})
		}
		b.add(dns.RR{Name: domain, Type: dns.TypeA, TTL: 300, Addr: bogus})
		b.add(dns.RR{Name: www, Type: dns.TypeA, TTL: 300, Addr: bogus})
		return
	}

	if b.rnd.Float64() < w.cdnShare(rank) {
		b.stats.DomainsCDN++
		b.buildCDNDomain(www, pools)
		return
	}

	// Origin hosting: servers at a webhoster (or eyeball ISP for the
	// long tail of self-hosted sites).
	org := w.orgs.hosters[b.rnd.Intn(len(w.orgs.hosters))]
	if b.rnd.Float64() < 0.12 {
		org = w.orgs.isps[b.rnd.Intn(len(w.orgs.isps))]
	}
	prefixes := append(b.prefixes[:0], w.v4PrefixOf(b.rnd, org))
	if rank <= 10000 && b.rnd.Float64() < multiPrefixTopShare {
		// Prominent sites spread across prefixes — sometimes across a
		// second organisation, which mixes RPKI postures (Table 1's
		// partial coverage).
		extra := 1 + b.rnd.Intn(2)
		for i := 0; i < extra; i++ {
			o2 := org
			if b.rnd.Intn(2) == 0 {
				o2 = w.orgs.hosters[b.rnd.Intn(len(w.orgs.hosters))]
			}
			prefixes = append(prefixes, w.v4PrefixOf(b.rnd, o2))
		}
	}
	addrs := b.addrs[:0]
	for _, p := range prefixes {
		addrs = append(addrs, b.maybeUnreachable(hostAddr(p, 1+b.rnd.Intn(60000))))
	}
	b.prefixes, b.addrs = prefixes, addrs
	for _, a := range addrs {
		b.add(dns.RR{Name: domain, Type: dns.TypeA, TTL: 300, Addr: a})
	}
	if v6 := w.v6PrefixOf(org); v6.IsValid() && b.rnd.Float64() < 0.15 {
		a6 := hostAddr(v6, 1+b.rnd.Intn(60000))
		b.add(dns.RR{Name: domain, Type: dns.TypeAAAA, TTL: 300, Addr: a6})
	}
	switch {
	case b.rnd.Float64() < 0.3:
		// www as an alias of the apex (one indirection — still below
		// the paper's two-CNAME CDN threshold).
		b.addCNAME(www, domain, 300)
	case b.rnd.Float64() < 0.04:
		// Separate www infrastructure: some operators serve the two
		// names from different networks entirely, one of Figure 1's
		// sources of www/apex prefix divergence.
		o2 := w.orgs.hosters[b.rnd.Intn(len(w.orgs.hosters))]
		a := b.maybeUnreachable(hostAddr(w.v4PrefixOf(b.rnd, o2), 1+b.rnd.Intn(60000)))
		b.add(dns.RR{Name: www, Type: dns.TypeA, TTL: 300, Addr: a})
	default:
		for _, a := range addrs {
			b.add(dns.RR{Name: www, Type: dns.TypeA, TTL: 300, Addr: a})
		}
	}
}

// buildCDNDomain provisions a CDN-served domain, named as in
// buildRegularDomain: the www variant rides a CNAME chain into the CDN,
// the apex stays at an origin host because apex names cannot be CNAMEs
// (RFC 1034) — except for single-CNAME anycast CDNs that front the apex
// with their own addresses.
func (b *domainBuilder) buildCDNDomain(www string, pools map[string][]cachePoolEntry) {
	w := b.w
	domain := www[len("www."):]
	cdnOrg := b.pickCDN()
	spec := cdnOrg.CDN
	pool := pools[spec.Name]
	entry := pool[b.rnd.Intn(len(pool))]

	// The apex first, beside its DNSKEY; the CNAMEs after it draw nothing.
	single := b.rnd.Float64() < singleCNAMEShare
	if single && b.rnd.Float64() < 0.6 {
		// Anycast CDN fronts the apex too: same cache addresses.
		for _, a := range entry.addrs {
			b.add(dns.RR{Name: domain, Type: dns.TypeA, TTL: 300, Addr: a})
		}
	} else {
		// Apex at the origin host.
		org := w.orgs.hosters[b.rnd.Intn(len(w.orgs.hosters))]
		a := b.maybeUnreachable(hostAddr(w.v4PrefixOf(b.rnd, org), 1+b.rnd.Intn(60000)))
		b.add(dns.RR{Name: domain, Type: dns.TypeA, TTL: 300, Addr: a})
	}
	if single {
		// www.domain → cache host (one CNAME; the indirection-counting
		// heuristic misses it, pattern matching does not).
		b.addCNAME(www, entry.host, 300)
	} else {
		// www.domain → customer edge name → cache host (two CNAMEs,
		// like www.huffingtonpost.com → ...edgesuite.net → a495.g...).
		edge := www + "." + spec.ServiceSuffixes[0]
		b.addCNAME(www, edge, 300)
		b.addCNAME(edge, entry.host, 300)
	}
}

// buildFixture realises one Table 1 row structurally into b, drawing
// from the fixture's own rank-derived stream.
func (w *World) buildFixture(b *dns.Builder, rnd *rand.Rand, ts topSite, fixISPNext *int) error {
	www := "www." + ts.name
	coveredPrefix := func() netip.Prefix {
		p := w.orgs.fixISP.Prefixes[*fixISPNext%len(w.orgs.fixISP.Prefixes)]
		*fixISPNext++
		return p
	}
	if ts.cdn == "" {
		// Enterprise hosting from the site's own organisation.
		org := w.orgs.fixOrgs[ts.name]
		if org == nil {
			return fmt.Errorf("webworld: missing fixture org for %s", ts.name)
		}
		for i := 0; i < ts.wwwTotal; i++ {
			a := hostAddr(org.Prefixes[i%len(org.Prefixes)], 10+i)
			b.Add(dns.RR{Name: www, Type: dns.TypeA, TTL: 300, Addr: a})
		}
		for i := 0; i < ts.apexTotal; i++ {
			a := hostAddr(org.Prefixes[i%len(org.Prefixes)], 30+i)
			b.Add(dns.RR{Name: ts.name, Type: dns.TypeA, TTL: 300, Addr: a})
		}
		return nil
	}

	// CDN-served fixture.
	var cdnOrg *Org
	for _, o := range w.orgs.cdns {
		if o.CDN.Name == ts.cdn {
			cdnOrg = o
			break
		}
	}
	if cdnOrg == nil {
		return fmt.Errorf("webworld: fixture %s references unknown CDN %q", ts.name, ts.cdn)
	}
	suffix := cdnOrg.CDN.ServiceSuffixes[0]

	if ts.name == "kickass.to" {
		// Anycast single-CNAME CDN fronting both variants with ten
		// prefixes, exactly one RPKI-covered (Table 1: 1/10 and 1/10).
		cache := "ka." + suffix
		used := map[netip.Prefix]bool{}
		var addrs []netip.Addr
		addrs = append(addrs, hostAddr(coveredPrefix(), 42))
		for len(addrs) < ts.wwwTotal {
			p := w.v4PrefixOf(rnd, cdnOrg)
			if used[p] {
				continue
			}
			used[p] = true
			addrs = append(addrs, hostAddr(p, 42))
		}
		for _, a := range addrs {
			b.Add(dns.RR{Name: cache, Type: dns.TypeA, TTL: 30, Addr: a})
			b.Add(dns.RR{Name: ts.name, Type: dns.TypeA, TTL: 300, Addr: a})
		}
		b.Add(dns.RR{Name: www, Type: dns.TypeCNAME, TTL: 300, Target: cache})
		return nil
	}

	if !ts.noWWW {
		// www: chain into a dedicated cache host whose addresses mix
		// one covered third-party prefix with uncovered CDN prefixes.
		cache := fmt.Sprintf("fx-%s.a.%s", dns.CanonicalName(ts.name), suffix)
		var addrs []netip.Addr
		for i := 0; i < ts.wwwCovered; i++ {
			addrs = append(addrs, hostAddr(coveredPrefix(), 50+i))
		}
		used := map[netip.Prefix]bool{}
		for len(addrs) < ts.wwwTotal {
			p := w.v4PrefixOf(rnd, cdnOrg)
			if used[p] {
				continue
			}
			used[p] = true
			addrs = append(addrs, hostAddr(p, 60))
		}
		for _, a := range addrs {
			b.Add(dns.RR{Name: cache, Type: dns.TypeA, TTL: 30, Addr: a})
		}
		edge := www + "." + suffix
		b.Add(dns.RR{Name: www, Type: dns.TypeCNAME, TTL: 300, Target: edge})
		b.Add(dns.RR{Name: edge, Type: dns.TypeCNAME, TTL: 300, Target: cache})
	}

	// Apex (or the bare cache-domain for the noWWW fixture): covered
	// prefixes from the signing ISP, uncovered from the legacy hoster
	// (or the CDN itself for the akamaihd-style cache domain).
	var apexAddrs []netip.Addr
	for i := 0; i < ts.apexCovered; i++ {
		apexAddrs = append(apexAddrs, hostAddr(coveredPrefix(), 70+i))
	}
	for i := len(apexAddrs); i < ts.apexTotal; i++ {
		var p netip.Prefix
		if ts.noWWW {
			p = w.v4PrefixOf(rnd, cdnOrg)
		} else {
			p = w.orgs.fixLegacy.Prefixes[(ts.rank+i)%len(w.orgs.fixLegacy.Prefixes)]
		}
		apexAddrs = append(apexAddrs, hostAddr(p, 80+i))
	}
	for _, a := range apexAddrs {
		b.Add(dns.RR{Name: ts.name, Type: dns.TypeA, TTL: 300, Addr: a})
	}
	return nil
}
