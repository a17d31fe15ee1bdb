package webworld

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"time"

	"ripki/internal/bgp"
	"ripki/internal/rib"
	"ripki/internal/rpki/cert"
	"ripki/internal/rpki/repo"
	"ripki/internal/rpki/roa"
)

// Generate builds the whole world from the configuration. A negative
// Domains is an error; zero means the paper's 1,000,000.
func Generate(cfg Config) (*World, error) {
	if cfg.Domains < 0 {
		return nil, fmt.Errorf("webworld: domains must not be negative, got %d", cfg.Domains)
	}
	if cfg.Domains == 0 {
		cfg.Domains = defaultDomains
	}
	w := &World{
		Cfg:         cfg,
		RIB:         rib.New(),
		rnd:         rand.New(rand.NewSource(cfg.Seed)),
		alloc:       newAllocator(),
		prefixOrg:   make(map[netip.Prefix]*Org),
		CDNSuffixes: make(map[string][]string),
		memo:        new(sync.Map),
	}
	mark := time.Now()
	lap := func(phase string) {
		w.Phases = append(w.Phases, Phase{Name: phase, D: time.Since(mark)})
		mark = time.Now()
	}
	var err error
	if w.Repo, err = repo.New(repo.RIRNames, epoch, rpkiTTL); err != nil {
		return nil, err
	}
	if err := w.buildOrgs(); err != nil {
		return nil, err
	}
	if err := w.signROAs(); err != nil {
		return nil, err
	}
	lap("orgs+roas")
	w.announce()
	lap("announce")
	if err := w.buildDomains(lap); err != nil {
		return nil, err
	}
	// The generated records are the registry's base, which nothing
	// writes again (a write lands in the writer's overlay), so
	// Registry.Written says, for this world and every clone of it,
	// whether its DNS is still as generated — which is what lets values
	// derived from it be shared.
	lap("registry")
	return w, nil
}

// --- organisations -----------------------------------------------------

type worldOrgs struct {
	hosters   []*Org
	isps      []*Org
	cdns      []*Org
	transit   []uint32 // transit ASNs for path middles
	unrouted  []netip.Prefix
	fixISP    *Org // ROA-signing eyeball ISP used by fixtures
	fixLegacy *Org // unsigned hoster used by fixtures
	fixOrgs   map[string]*Org
}

func (w *World) buildOrgs() error {
	w.orgs = &worldOrgs{fixOrgs: make(map[string]*Org)}
	nextASN := uint32(2000)
	newOrg := func(name string, kind OrgKind, rir string, asCount int) *Org {
		o := &Org{Name: name, Kind: kind, RIR: rir}
		for i := 0; i < asCount; i++ {
			o.ASNs = append(o.ASNs, nextASN)
			w.ASRegistry = append(w.ASRegistry, ASInfo{
				ASN:  nextASN,
				Name: fmt.Sprintf("%s-AS%d", strings.ToUpper(name), i+1),
				Org:  name,
			})
			nextASN++
		}
		w.Orgs = append(w.Orgs, o)
		return o
	}
	addPrefix := func(o *Org, bits int) (netip.Prefix, error) {
		p, err := w.alloc.nextV4(o.RIR, bits)
		if err != nil {
			return netip.Prefix{}, err
		}
		o.Prefixes = append(o.Prefixes, p)
		w.prefixOrg[p] = o
		w.Stats.PrefixesTotal++
		return p, nil
	}
	rirs := w.alloc.rirNames()
	rirFor := func(i int) string { return rirs[i%len(rirs)] }

	// Transit providers: path middles and collector peers.
	for i := 0; i < 12; i++ {
		o := newOrg(fmt.Sprintf("transit-%02d", i), KindISP, rirFor(i), 1)
		w.orgs.transit = append(w.orgs.transit, o.ASNs[0])
	}

	addV6 := func(o *Org) error {
		p, err := w.alloc.nextV6(o.RIR)
		if err != nil {
			return err
		}
		o.Prefixes = append(o.Prefixes, p)
		w.prefixOrg[p] = o
		w.Stats.PrefixesTotal++
		return nil
	}
	// addSubs sometimes announces more-specific blocks inside an
	// aggregate, as real operators do; addresses inside them then map
	// to several covering (prefix, origin) pairs, matching the paper's
	// >1 pair-per-address ratio. Sub-prefixes are also the world's main
	// source of *invalid* announcements: a signing organisation that
	// forgets to authorise its traffic-engineering more-specific leaves
	// it violating the covering ROA's maxLength — the real-world
	// misconfiguration pattern behind most RPKI invalids.
	addSubs := func(o *Org, p netip.Prefix) {
		if p.Bits() != 16 || w.rnd.Float64() >= 0.3 {
			return
		}
		n := 1 + w.rnd.Intn(2)
		for k := 0; k < n; k++ {
			sp := subPrefix(p, 20, w.rnd.Intn(16))
			if _, taken := w.prefixOrg[sp]; taken {
				continue
			}
			o.Prefixes = append(o.Prefixes, sp)
			w.prefixOrg[sp] = o
			w.Stats.PrefixesTotal++
			if w.subOf == nil {
				w.subOf = make(map[netip.Prefix]netip.Prefix)
			}
			w.subOf[sp] = p
		}
	}

	// Eyeball/regional ISPs: may sign ROAs, may host CDN caches.
	for i := 0; i < isps(w.Cfg.Domains); i++ {
		name := fmt.Sprintf("isp-%s%s", nameSyllables[w.rnd.Intn(len(nameSyllables))], nameSyllables[w.rnd.Intn(len(nameSyllables))])
		o := newOrg(fmt.Sprintf("%s-%03d", name, i), KindISP, rirFor(w.rnd.Intn(len(rirs))), 1+w.rnd.Intn(2))
		n := 2 + w.rnd.Intn(4)
		for j := 0; j < n; j++ {
			p, err := addPrefix(o, 16+4*w.rnd.Intn(2))
			if err != nil {
				return err
			}
			addSubs(o, p)
		}
		if w.rnd.Float64() < 0.4 {
			if err := addV6(o); err != nil {
				return err
			}
		}
		w.orgs.isps = append(w.orgs.isps, o)
	}

	// Webhosters: where most origin servers live.
	for i := 0; i < hosters(w.Cfg.Domains); i++ {
		name := fmt.Sprintf("host-%s%s", nameSyllables[w.rnd.Intn(len(nameSyllables))], nameSyllables[w.rnd.Intn(len(nameSyllables))])
		o := newOrg(fmt.Sprintf("%s-%03d", name, i), KindHoster, rirFor(w.rnd.Intn(len(rirs))), 1)
		n := 2 + w.rnd.Intn(5)
		for j := 0; j < n; j++ {
			p, err := addPrefix(o, 16+4*w.rnd.Intn(3))
			if err != nil {
				return err
			}
			addSubs(o, p)
		}
		if w.rnd.Float64() < 0.5 {
			if err := addV6(o); err != nil {
				return err
			}
		}
		w.orgs.hosters = append(w.orgs.hosters, o)
	}

	// ROA signing is an organisation-level policy adopted by a fixed
	// share of hosters and ISPs ("web hosters or common ISPs ... have
	// far higher levels of penetration (> 5%)"). The count is exact so
	// small worlds keep the calibrated deployment level; which
	// organisations sign is random.
	signShare := func(list []*Org) {
		n := int(math.Round(hosterROAProb * float64(len(list))))
		if n == 0 && len(list) > 0 {
			n = 1
		}
		for _, idx := range w.rnd.Perm(len(list))[:n] {
			list[idx].SignsROAs = true
		}
	}
	signShare(w.orgs.isps)
	signShare(w.orgs.hosters)

	// CDNs, per spec.
	cdns := CDNs()
	for i := range cdns {
		spec := &cdns[i]
		o := newOrg(spec.Name, KindCDN, rirFor(i), spec.ASCount)
		o.CDN = spec
		o.SignsROAs = spec.SignsROAs
		// Roughly two prefixes per AS, as delivery platforms do.
		for j := 0; j < spec.ASCount*2; j++ {
			if _, err := addPrefix(o, 20); err != nil {
				return err
			}
		}
		if err := addV6(o); err != nil {
			return err
		}
		w.orgs.cdns = append(w.orgs.cdns, o)
		w.CDNSuffixes[spec.Name] = spec.ServiceSuffixes
	}

	// Fixture support organisations.
	w.orgs.fixISP = newOrg("secure-eyeball", KindISP, "ripe", 2)
	w.orgs.fixISP.SignsROAs = true
	w.orgs.fixISP.fixture = true
	for j := 0; j < 6; j++ {
		if _, err := addPrefix(w.orgs.fixISP, 20); err != nil {
			return err
		}
	}
	w.orgs.fixLegacy = newOrg("legacy-hosting", KindHoster, "arin", 2)
	w.orgs.fixLegacy.fixture = true
	for j := 0; j < 12; j++ {
		if _, err := addPrefix(w.orgs.fixLegacy, 20); err != nil {
			return err
		}
	}
	for _, ts := range topSites() {
		if ts.cdn != "" && ts.name != "kickass.to" {
			continue // CDN fixtures borrow CDN + fixISP + fixLegacy space
		}
		kind := KindEnterprise
		label := strings.SplitN(ts.name, ".", 2)[0]
		o := newOrg(label, kind, "arin", 2)
		o.fixture = true
		total := ts.wwwTotal
		if ts.apexTotal > total {
			total = ts.apexTotal
		}
		o.SignsROAs = ts.wwwCovered == ts.wwwTotal && ts.wwwTotal > 0
		for j := 0; j < total; j++ {
			if _, err := addPrefix(o, 20); err != nil {
				return err
			}
		}
		w.orgs.fixOrgs[ts.name] = o
	}

	// Allocated-but-unannounced space for the unreachable 0.01%.
	for j := 0; j < 4; j++ {
		p, err := w.alloc.nextV4("lacnic", 20)
		if err != nil {
			return err
		}
		w.orgs.unrouted = append(w.orgs.unrouted, p)
	}
	return nil
}

// --- RPKI --------------------------------------------------------------

// caROAs is one CA and the ROAs the world decides it signs. They are
// issued in one batch once every decision is made, so each manifest is
// signed once rather than once per ROA.
type caROAs struct {
	ca   *repo.CA
	roas []repo.ROASpec
}

func (w *World) signROAs() error {
	var batches []*caROAs
	byOrg := make(map[*Org]*caROAs)
	for _, o := range w.Orgs {
		if !o.SignsROAs || len(o.Prefixes) == 0 {
			continue
		}
		anchor := w.Repo.Anchor(o.RIR)
		if anchor == nil {
			return fmt.Errorf("webworld: no trust anchor for RIR %q", o.RIR)
		}
		res := certResources(o)
		ca, err := w.Repo.NewCA(anchor, o.Name, res)
		if err != nil {
			return err
		}
		b := &caROAs{ca: ca}
		prefixes := o.Prefixes
		signedASes := map[uint32]bool{}
		if o.CDN != nil && o.CDN.SignsROAs {
			// The Internap-like exception: only a handful of prefixes,
			// tied to a few of its many ASes.
			if o.CDN.SignedPrefixes < len(prefixes) {
				prefixes = prefixes[:o.CDN.SignedPrefixes]
			}
		}
		for i, p := range prefixes {
			origin := w.originFor(o, p)
			if o.CDN != nil && o.CDN.SignsROAs {
				// Constrain to SignedASes distinct origins.
				origin = o.ASNs[i%o.CDN.SignedASes]
				w.prefixOrigin(p, origin) // pin the announcement
			}
			if agg, isSub := w.subOf[p]; isSub && !o.fixture && w.rnd.Float64() < 0.25 {
				// Forgotten more-specific: the aggregate's ROA exists
				// with maxLength == aggregate length, so this /20
				// announcement validates Invalid. Pin both origins to
				// match the real pattern (same operator, same AS).
				w.prefixOrigin(p, w.originFor(o, agg))
				w.Stats.ROAsMisconfigured++
				continue
			}
			misconfigured := o.CDN == nil && !o.fixture && w.rnd.Float64() < misconfigProb
			roaOrigin := origin
			if misconfigured {
				// Wrong origin in the ROA: the announcement turns
				// Invalid (the paper: misconfiguration, not hijacks).
				roaOrigin = origin + 100000
				w.Stats.ROAsMisconfigured++
			}
			b.roas = append(b.roas, repo.ROASpec{ASID: roaOrigin, Prefixes: []roa.Prefix{{Prefix: p, MaxLength: p.Bits()}}})
			w.Stats.ROAsIssued++
			w.Stats.PrefixesSigned++
			signedASes[roaOrigin] = true
			if !misconfigured && p.Addr().Is4() {
				if w.cleanSigned == nil {
					w.cleanSigned = make(map[*Org][]netip.Prefix)
				}
				w.cleanSigned[o] = append(w.cleanSigned[o], p)
			}
		}
		batches = append(batches, b)
		byOrg[o] = b
	}
	w.plantBackups(byOrg)
	for _, b := range batches {
		if _, err := w.Repo.AddROAs(b.ca, b.roas); err != nil {
			return err
		}
	}
	return nil
}

// plantBackups adds the §5.2 confidential standby setups to the ROAs the
// owners' CAs sign: a signing organisation additionally authorises a partner
// organisation's AS on one of its prefixes. The arrangement never
// appears in BGP (the partner only announces during an incident), yet
// the RPKI documents it in advance — exactly the disclosure the paper
// argues deters deployment.
func (w *World) plantBackups(byOrg map[*Org]*caROAs) {
	var signers []*Org
	for _, o := range w.Orgs {
		if o.SignsROAs && !o.fixture && o.CDN == nil && len(o.Prefixes) > 0 {
			signers = append(signers, o)
		}
	}
	// Partners are hosters and ISPs. CDNs are deliberately excluded:
	// the paper found no CDN anywhere in the RPKI (except the Internap
	// prefixes), and §5.2's point is precisely that such arrangements
	// WOULD be exposed if CDNs ever created them.
	var partners []*Org
	for _, o := range w.Orgs {
		if !o.fixture && len(o.ASNs) > 0 && (o.Kind == KindHoster || o.Kind == KindISP) {
			partners = append(partners, o)
		}
	}
	usedPrefix := make(map[netip.Prefix]bool)
	for i := 0; i < backupArrangements && len(signers) > 0; i++ {
		owner := signers[i%len(signers)]
		partner := partners[w.rnd.Intn(len(partners))]
		if partner == owner {
			continue
		}
		// The arrangement only documents a relation when the owner's own
		// (correct) ROA coexists with the standby's; pick from the
		// owner's cleanly signed prefixes.
		candidates := w.cleanSigned[owner]
		var prefix netip.Prefix
		ok := false
		for _, c := range candidates {
			if !usedPrefix[c] {
				prefix, ok = c, true
				break
			}
		}
		if !ok {
			continue
		}
		usedPrefix[prefix] = true
		standbyASN := partner.ASNs[w.rnd.Intn(len(partner.ASNs))]
		b := byOrg[owner]
		b.roas = append(b.roas, repo.ROASpec{ASID: standbyASN, Prefixes: []roa.Prefix{{Prefix: prefix, MaxLength: prefix.Bits()}}})
		w.Stats.ROAsIssued++
		w.PlantedBackups = append(w.PlantedBackups, PlantedBackup{
			OwnerOrg:   owner.Name,
			StandbyOrg: partner.Name,
			Prefix:     prefix,
			StandbyASN: standbyASN,
		})
	}
}

// certResources bounds a CA to its organisation's holdings.
func certResources(o *Org) cert.Resources {
	var res cert.Resources
	res.Prefixes = append(res.Prefixes, o.Prefixes...)
	// A ROA may authorise any AS number (the prefix owner decides), so
	// the CA carries the full AS range; prefix resources are what bound
	// mis-issuance.
	res.ASNs = append(res.ASNs, cert.ASRange{Min: 0, Max: 4294967295})
	return res
}

// --- BGP ---------------------------------------------------------------

// originFor returns (and pins) the origin AS announcing prefix p.
func (w *World) originFor(o *Org, p netip.Prefix) uint32 {
	if asn, ok := w.pinnedOrigin[p]; ok {
		return asn
	}
	asn := o.ASNs[w.rnd.Intn(len(o.ASNs))]
	w.prefixOrigin(p, asn)
	return asn
}

func (w *World) prefixOrigin(p netip.Prefix, asn uint32) {
	if w.pinnedOrigin == nil {
		w.pinnedOrigin = make(map[netip.Prefix]uint32)
	}
	w.pinnedOrigin[p] = asn
}

// announce inserts every organisation's prefixes into the collector RIB
// with realistic AS paths from three vantage peers.
func (w *World) announce() {
	peers := make([]uint16, 0, 3)
	for i := 0; i < 3 && i < len(w.orgs.transit); i++ {
		peers = append(peers, w.RIB.AddPeer(rib.Peer{
			BGPID: netip.AddrFrom4([4]byte{10, 0, byte(i), 1}),
			Addr:  netip.AddrFrom4([4]byte{10, 0, byte(i), 1}),
			ASN:   w.orgs.transit[i],
		}))
	}
	for _, o := range w.Orgs {
		for _, p := range o.Prefixes {
			origin := w.originFor(o, p)
			for pi, peerIdx := range peers {
				path := w.path(w.orgs.transit[pi], origin)
				w.RIB.Insert(rib.Route{
					Prefix:    p,
					PeerIndex: peerIdx,
					Path:      path,
					NextHop:   netip.AddrFrom4([4]byte{10, 0, byte(pi), 1}),
				})
			}
		}
	}
}

// path builds [peer, (transit), origin].
func (w *World) path(peer, origin uint32) []bgp.Segment {
	asns := []uint32{peer}
	if w.rnd.Intn(2) == 0 && len(w.orgs.transit) > 3 {
		mid := w.orgs.transit[3+w.rnd.Intn(len(w.orgs.transit)-3)]
		if mid != peer && mid != origin {
			asns = append(asns, mid)
		}
	}
	asns = append(asns, origin)
	return []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: asns}}
}
