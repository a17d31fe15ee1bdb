package sim

import (
	"fmt"
	"maps"
	"net/netip"

	"ripki/internal/dns"
	"ripki/internal/router"
	"ripki/internal/rpki/repo"
	"ripki/internal/rpki/vrp"
	"ripki/internal/webworld"
)

// The built-in scenario library. Each scenario is a story about RPKI
// deployment evolving over time; all of them drive the same pipeline
// (world → VRP deltas → RTR → routers → probe) and differ only in the
// events they schedule. `ripki-sim -list` prints each one's parameters
// and their defaults.
func init() {
	for _, sc := range []Scenario{baseline, roaChurn, hijackWindow, maxlenMisissuance, cdnMigration,
		rtrRestart, rpLag, routeLeak, taOutage, caCompromise} {
		Register(sc)
	}
}

// unsignedCDNPrefix finds the named CDN's first announced IPv4 prefix
// with no RPKI coverage — the paper's archetypal victim.
func unsignedCDNPrefix(s *Simulation, cdn string) (netip.Prefix, uint32, error) {
	org := s.World.CDNOrg(cdn)
	if org == nil {
		return netip.Prefix{}, 0, fmt.Errorf("sim: unknown CDN %q", cdn)
	}
	for _, p := range org.Prefixes {
		if !p.Addr().Is4() {
			continue
		}
		origin, ok := s.World.PinnedOriginOf(p)
		if !ok {
			continue
		}
		if s.TruthSet().Validate(p, origin) == vrp.NotFound {
			return p, origin, nil
		}
	}
	return netip.Prefix{}, 0, fmt.Errorf("sim: CDN %q has no unsigned announced IPv4 prefix", cdn)
}

// --- baseline ----------------------------------------------------------

// baseline runs the static world with no events: the control series.
var baseline = Scenario{Name: "baseline", Description: "static world, no events (control run)"}

// --- roa-churn ---------------------------------------------------------

// roaChurn models organic deployment motion: previously unsigned
// organisations issue ROAs at a steady rate while a smaller rate of
// revocations pulls coverage back — the background noise every relying
// party lives with. issue VRPs are issued and revoke revoked every
// every_ticks ticks.
var roaChurn = Scenario{
	Name:        "roa-churn",
	Description: "steady ROA issuance and revocation ramping coverage over time",
	Params:      withChurn(nil),
	Setup:       churn,
}

// withChurn declares roa-churn's parameters beside a scenario's own, for
// the scenarios that run roa-churn's events underneath theirs.
func withChurn(own map[string]any) map[string]any {
	p := map[string]any{"issue": 3, "revoke": 1, "every_ticks": 1}
	maps.Copy(p, own)
	return p
}

type churnCandidate struct {
	prefix netip.Prefix
	origin uint32
}

func churn(s *Simulation, p Params) error {
	issue := p.Int("issue")
	revoke := p.Int("revoke")
	every := p.Int("every_ticks")

	var candidates []churnCandidate
	for _, pfx := range s.World.RoutedV4Prefixes() {
		origin, ok := s.World.PinnedOriginOf(pfx)
		if !ok {
			continue
		}
		if s.TruthSet().Validate(pfx, origin) == vrp.NotFound {
			candidates = append(candidates, churnCandidate{prefix: pfx, origin: origin})
		}
	}
	// Capture the component stream: the revoke draws happen at event
	// time, after a composite may have repointed s.Rand elsewhere.
	rng := s.Rand
	perm := rng.Perm(len(candidates))
	next := 0
	var issued []vrp.VRP
	s.EveryTick(every, func() {
		for i := 0; i < issue && next < len(candidates); i++ {
			cand := candidates[perm[next]]
			next++
			v := vrp.VRP{Prefix: cand.prefix, MaxLength: cand.prefix.Bits(), ASN: cand.origin}
			s.IssueVRP(v, "churn")
			issued = append(issued, v)
		}
		for i := 0; i < revoke && len(issued) > 1; i++ {
			j := rng.Intn(len(issued))
			v := issued[j]
			issued[j] = issued[len(issued)-1]
			issued = issued[:len(issued)-1]
			s.RevokeVRP(v, "churn")
		}
	})
	return nil
}

// --- hijack-window -----------------------------------------------------

// hijackWindow is the paper's tragedy on a clock: a popular CDN's
// unprotected prefix is sub-prefix hijacked; mid-incident the operator
// issues an emergency ROA; each relying party stays hijacked until its
// own cache refresh delivers the new payload and revalidation drops the
// now-invalid route — and the accept-all legacy router stays hijacked
// until the attacker gives up. The time series' hijacked_* columns are
// the per-router attack windows. The *_frac params place the events as
// fractions of the run.
var hijackWindow = Scenario{
	Name:        "hijack-window",
	Description: "sub-prefix hijack of an unprotected CDN prefix, closed by an emergency ROA propagating at RP refresh lag",
	Params: map[string]any{"cdn": "akamai", "attacker": 65551,
		"hijack_frac": 0.1, "roa_frac": 0.4, "end_frac": 0.85},
	Setup: hijackWindowSetup,
}

func hijackWindowSetup(s *Simulation, p Params) error {
	cdn := p.String("cdn")
	attacker := uint32(p.Int("attacker"))

	prefix, origin, err := unsignedCDNPrefix(s, cdn)
	if err != nil {
		return err
	}
	sub := netip.PrefixFrom(prefix.Addr(), prefix.Bits()+2)
	victim := webworld.HostAddr(sub, 7)

	s.AtFrac(p.Float("hijack_frac"), func() {
		s.StartHijack(Hijack{
			Name:   "cdn-subprefix",
			Prefix: sub,
			Path:   []uint32{attacker},
			Victim: victim,
		})
	})
	s.AtFrac(p.Float("roa_frac"), func() {
		s.IssueVRP(vrp.VRP{Prefix: prefix, MaxLength: prefix.Bits(), ASN: origin},
			fmt.Sprintf("emergency ROA by %s", cdn))
	})
	s.AtFrac(p.Float("end_frac"), func() {
		s.EndHijack("cdn-subprefix")
	})
	return nil
}

// --- maxlen-misissuance ------------------------------------------------

// maxlenMisissuance demonstrates the classic maxLength pitfall: an
// operator loosens a ROA's maxLength "for future deaggregation", an
// attacker answers with a forged-origin sub-prefix hijack that validates
// *Valid* — origin validation is satisfied, every policy accepts it —
// and only narrowing the ROA back turns the attack Invalid.
var maxlenMisissuance = Scenario{
	Name:        "maxlen-misissuance",
	Description: "loosened ROA maxLength lets a forged-origin sub-prefix hijack validate as Valid",
	Params: map[string]any{"maxlen": 24, "attacker": 65540,
		"loosen_frac": 0.2, "attack_frac": 0.45, "fix_frac": 0.7, "end_frac": 0.9},
	Setup: maxlenMisissuanceSetup,
}

func maxlenMisissuanceSetup(s *Simulation, p Params) error {
	maxlen := p.Int("maxlen")
	attacker := uint32(p.Int("attacker"))

	// A cleanly signed aggregate whose ROA we can loosen: signed at its
	// own length, announced by the authorised AS, and room to deaggregate.
	var tight vrp.VRP
	found := false
	for _, v := range s.TruthVRPs() {
		if !v.Prefix.Addr().Is4() || v.Prefix.Bits() > maxlen-2 || v.MaxLength != v.Prefix.Bits() {
			continue
		}
		if origin, ok := s.World.PinnedOriginOf(v.Prefix); ok && origin == v.ASN {
			tight = v
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("sim: no suitable signed aggregate for maxlen misissuance")
	}
	loose := vrp.VRP{Prefix: tight.Prefix, MaxLength: maxlen, ASN: tight.ASN}
	sub := netip.PrefixFrom(tight.Prefix.Addr(), maxlen)
	victim := webworld.HostAddr(sub, 9)

	s.AtFrac(p.Float("loosen_frac"), func() {
		s.RevokeVRP(tight, "replaced by loose maxLength")
		s.IssueVRP(loose, fmt.Sprintf("maxLength loosened to /%d", maxlen))
	})
	s.AtFrac(p.Float("attack_frac"), func() {
		// Forged origin: the attacker prepends itself but keeps the
		// authorised AS as the path's origin, so the announcement
		// validates Valid under the loose ROA.
		s.StartHijack(Hijack{
			Name:   "forged-origin",
			Prefix: sub,
			Path:   []uint32{attacker, tight.ASN},
			Victim: victim,
		})
	})
	s.AtFrac(p.Float("fix_frac"), func() {
		s.RevokeVRP(loose, "maxLength narrowed back")
		s.IssueVRP(tight, "minimal ROA restored")
	})
	s.AtFrac(p.Float("end_frac"), func() {
		s.EndHijack("forged-origin")
	})
	return nil
}

// --- cdn-migration -----------------------------------------------------

// cdnMigration re-homes one CDN's delivery fleet into another provider's
// address space, batch by batch — the kind of provider switch the web's
// head ranks perform routinely. When the destination is the
// Internap-like ROA-signing CDN, the head's protection visibly rises as
// the migration proceeds; migrating away reverses it. batch hosts move
// every every_ticks ticks; a negative batch is sized to finish by
// done_frac of the run.
var cdnMigration = Scenario{
	Name:        "cdn-migration",
	Description: "batched re-homing of a CDN's delivery hosts into another provider's (signed) address space",
	Params: map[string]any{"from": "akamai", "to": "internap", "every_ticks": 1,
		"batch": -1, "done_frac": 0.8},
	Setup: cdnMigrationSetup,
}

func cdnMigrationSetup(s *Simulation, p Params) error {
	from := p.String("from")
	to := p.String("to")
	every := p.Int("every_ticks")

	hosts := s.World.CacheHosts(from)
	if len(hosts) == 0 {
		return fmt.Errorf("sim: CDN %q has no cache hosts", from)
	}
	dest := s.World.CDNOrg(to)
	if dest == nil {
		return fmt.Errorf("sim: unknown destination CDN %q", to)
	}
	// Prefer the destination's RPKI-covered prefixes (Internap's four);
	// fall back to any announced IPv4 space.
	var destPrefixes []netip.Prefix
	for _, pfx := range dest.Prefixes {
		if !pfx.Addr().Is4() {
			continue
		}
		if origin, ok := s.World.PinnedOriginOf(pfx); ok && s.TruthSet().Validate(pfx, origin) == vrp.Valid {
			destPrefixes = append(destPrefixes, pfx)
		}
	}
	if len(destPrefixes) == 0 {
		for _, pfx := range dest.Prefixes {
			if pfx.Addr().Is4() {
				destPrefixes = append(destPrefixes, pfx)
			}
		}
	}
	if len(destPrefixes) == 0 {
		return fmt.Errorf("sim: destination CDN %q has no IPv4 prefixes", to)
	}

	batch := p.Int("batch")
	if batch < 0 {
		totalTicks := int(s.Cfg.Duration / s.Cfg.Tick)
		steps := max(int(p.Float("done_frac")*float64(totalTicks)/float64(every)), 1)
		batch = (len(hosts) + steps - 1) / steps
	}
	batch = max(batch, 1)

	next := 0
	moved := 0
	s.EveryTick(every, func() {
		if next >= len(hosts) {
			return
		}
		for i := 0; i < batch && next < len(hosts); i++ {
			host := hosts[next]
			pfx := destPrefixes[next%len(destPrefixes)]
			s.World.Registry.Remove(host, dns.TypeA)
			s.World.Registry.Remove(host, dns.TypeAAAA)
			s.World.Registry.Add(dns.RR{
				Name: host, Type: dns.TypeA, TTL: 20,
				Addr: webworld.HostAddr(pfx, 100+next%3800),
			})
			next++
			moved++
		}
		s.Publish(TopicDNS, fmt.Sprintf("migrated %d/%d cache hosts %s → %s", moved, len(hosts), from, to), nil)
	})
	return nil
}

// --- rtr-restart -------------------------------------------------------

// rtrRestart replays a relying-party nightmare: under steady ROA churn
// the RTR cache restarts mid-run with a new session ID. Warm restarts
// only force a full resync (serial history is gone); cold restarts
// additionally serve an *empty* payload set until revalidation
// completes, briefly tearing protection down for every fast-refreshing
// client. roa-churn's params drive the churn.
var rtrRestart = Scenario{
	Name:        "rtr-restart",
	Description: "RTR cache session restart (warm or cold) under background ROA churn",
	Params:      withChurn(map[string]any{"restart_frac": 0.5, "cold": true}),
	Setup: func(s *Simulation, p Params) error {
		if err := churn(s, p); err != nil {
			return err
		}
		cold := p.Bool("cold")
		s.AtFrac(p.Float("restart_frac"), func() {
			s.RestartCache(cold)
		})
		return nil
	},
}

// --- rp-lag ------------------------------------------------------------

// rpLag isolates relying-party refresh lag: identical drop-invalid
// routers whose caches refresh at 1, 5, and slow_ticks-tick intervals
// all chase the same ROA churn; the vrps_* columns fan out into a
// staircase whose width IS the lag. roa-churn's params drive the churn.
var rpLag = Scenario{
	Name:        "rp-lag",
	Description: "identical validators at increasing cache-refresh lag chasing the same ROA churn",
	Params:      withChurn(map[string]any{"slow_ticks": 20}),
	Roster: func(p Params) []RPSpec {
		slow := p.Int("slow_ticks")
		return []RPSpec{
			{Name: "rp-1t", RefreshTicks: 1, Policy: router.PolicyDropInvalid},
			{Name: "rp-5t", RefreshTicks: 5, Policy: router.PolicyDropInvalid},
			{Name: fmt.Sprintf("rp-%dt", slow), RefreshTicks: slow, Policy: router.PolicyDropInvalid},
			{Name: "legacy", RefreshTicks: 0, Policy: router.PolicyAcceptAll},
		}
	},
	Setup: churn,
}

// --- route-leak --------------------------------------------------------

// routeLeak models the failure mode origin validation only half-covers:
// a multihomed customer leaks internally deaggregated more-specifics of
// its providers' prefixes to the world, origin intact. Leaked
// more-specifics of tightly signed prefixes validate Invalid (a
// maxLength violation) and drop-invalid routers discard them — but for
// the unsigned majority the leak validates NotFound and every router
// follows it. The gap between hijacked_legacy and hijacked_rp-* is
// exactly the signed fraction of the leaked set. The leaker AS leaks
// count prefixes.
var routeLeak = Scenario{
	Name:        "route-leak",
	Description: "leaked more-specifics with intact origins: OV drops only the signed fraction",
	Params:      map[string]any{"leaker": 65530, "count": 12, "leak_frac": 0.25, "end_frac": 0.8},
	Setup:       routeLeakSetup,
}

func routeLeakSetup(s *Simulation, p Params) error {
	leaker := uint32(p.Int("leaker"))
	count := p.Int("count")

	// Split the candidate pool by what the leaked more-specific would
	// validate to, then leak a mix: the signed half shows OV working,
	// the unsigned half shows it having nothing to say.
	var signed, unsigned []Hijack
	for i, pfx := range s.World.RoutedV4Prefixes() {
		if pfx.Bits() >= 31 {
			continue
		}
		origin, ok := s.World.PinnedOriginOf(pfx)
		if !ok {
			continue
		}
		sub := netip.PrefixFrom(pfx.Addr(), pfx.Bits()+1)
		h := Hijack{
			Name:   fmt.Sprintf("leak-%d", i),
			Prefix: sub,
			Path:   []uint32{leaker, origin},
			Victim: webworld.HostAddr(sub, 3),
		}
		switch s.TruthSet().Validate(sub, origin) {
		case vrp.Invalid:
			signed = append(signed, h)
		case vrp.NotFound:
			unsigned = append(unsigned, h)
		}
	}
	leaks := make([]Hijack, 0, count)
	nSigned := 0
	for i := 0; len(leaks) < count && (i < len(signed) || i < len(unsigned)); i++ {
		if i < len(signed) {
			leaks = append(leaks, signed[i])
			nSigned++
		}
		if i < len(unsigned) && len(leaks) < count {
			leaks = append(leaks, unsigned[i])
		}
	}
	if len(leaks) == 0 {
		return fmt.Errorf("sim: no leakable prefixes in this world")
	}

	s.AtFrac(p.Float("leak_frac"), func() {
		for _, h := range leaks {
			s.StartHijack(h)
		}
		s.Publish(TopicBGP, fmt.Sprintf("AS%d leaks %d more-specifics (%d signed, %d unsigned)",
			leaker, len(leaks), nSigned, len(leaks)-nSigned), nil)
	})
	s.AtFrac(p.Float("end_frac"), func() {
		for _, h := range leaks {
			s.EndHijack(h.Name)
		}
	})
	return nil
}

// --- trust-anchor-outage -----------------------------------------------

// taOutage takes one RIR's publication point dark: every VRP under that
// trust anchor vanishes from what relying parties can fetch, previously
// protected prefixes fall back to NotFound, and a hijack launched inside
// the outage window sails through even drop-invalid routers — the ROA
// that would have branded it Invalid is unreachable. Slow-refreshing RPs
// keep validating on their stale (complete) snapshot, so for once lag
// *protects*. Recovery restores the subtree and the hijack dies at each
// RP's next refresh. ta names the RIR (empty: the anchor holding the
// most VRPs); attack=false takes the outage without the hijack.
var taOutage = Scenario{
	Name:        "trust-anchor-outage",
	Description: "one RIR trust anchor goes dark: its whole VRP subtree vanishes until recovery",
	Params: map[string]any{"ta": "", "attacker": 65533, "attack": true,
		"outage_frac": 0.15, "attack_frac": 0.3, "restore_frac": 0.6, "end_frac": 0.9},
	Setup: taOutageSetup,
}

func taOutageSetup(s *Simulation, p Params) error {
	name := p.String("ta")
	// What the world's one memoised validation found under each anchor:
	// no signature is verified again here.
	validation := s.World.Validation()
	var lost []vrp.VRP
	if name != "" {
		lost = anchorTruth(s, validation.AnchorVRPs(name))
	} else {
		// Default to the anchor whose subtree holds the most ground-truth
		// VRPs, ties broken by RIR roster order.
		for _, cand := range repo.RIRNames {
			vs := anchorTruth(s, validation.AnchorVRPs(cand))
			if len(vs) > len(lost) {
				name, lost = cand, vs
			}
		}
	}
	if len(lost) == 0 {
		return fmt.Errorf("sim: trust anchor %q holds no validated VRPs in this world", name)
	}

	s.AtFrac(p.Float("outage_frac"), func() {
		s.Publish(TopicRTR, fmt.Sprintf("trust anchor %s dark: %d VRPs lost", name, len(lost)),
			AnchorData{Anchor: name, VRPs: len(lost)})
		for _, v := range lost {
			s.RevokeVRP(v, "TA "+name+" outage")
		}
	})
	s.AtFrac(p.Float("restore_frac"), func() {
		s.Publish(TopicRTR, fmt.Sprintf("trust anchor %s recovered: %d VRPs restored", name, len(lost)),
			AnchorData{Anchor: name, VRPs: len(lost), Restored: true})
		for _, v := range lost {
			s.IssueVRP(v, "TA "+name+" recovery")
		}
	})

	if p.Bool("attack") {
		sub, victim, err := outageTarget(s, lost)
		if err != nil {
			return err
		}
		attacker := uint32(p.Int("attacker"))
		s.AtFrac(p.Float("attack_frac"), func() {
			s.StartHijack(Hijack{Name: "outage-window", Prefix: sub, Path: []uint32{attacker}, Victim: victim})
		})
		s.AtFrac(p.Float("end_frac"), func() {
			s.EndHijack("outage-window")
		})
	}
	return nil
}

// AnchorData is the typed payload on TopicRTR trust-anchor events: the
// anchor that changed state and the size of its VRP subtree.
type AnchorData struct {
	Anchor   string
	VRPs     int
	Restored bool
}

// anchorTruth returns those of a trust anchor's validated payloads that
// are ground truth now, in VRP sort order.
func anchorTruth(s *Simulation, validated []vrp.VRP) []vrp.VRP {
	var out []vrp.VRP
	for _, v := range validated {
		if s.HasVRP(v) {
			out = append(out, v)
		}
	}
	return out
}

// outageTarget picks the attack: a sub-prefix that is Invalid while the
// RPKI is whole but NotFound once the anchor's subtree is gone — i.e.
// covered only by a tightly signed VRP the outage removes.
func outageTarget(s *Simulation, lost []vrp.VRP) (netip.Prefix, netip.Addr, error) {
	remaining := make([]vrp.VRP, 0, s.truth.Len())
	gone := make(map[vrp.VRP]bool, len(lost))
	for _, v := range lost {
		gone[v] = true
	}
	for _, v := range s.TruthVRPs() {
		if !gone[v] {
			remaining = append(remaining, v)
		}
	}
	rest, err := vrp.FromVRPs(remaining)
	if err != nil {
		return netip.Prefix{}, netip.Addr{}, err
	}
	for _, v := range lost {
		if !v.Prefix.Addr().Is4() || v.MaxLength != v.Prefix.Bits() || v.Prefix.Bits() > 28 {
			continue
		}
		if origin, ok := s.World.PinnedOriginOf(v.Prefix); !ok || origin != v.ASN {
			continue
		}
		sub := netip.PrefixFrom(v.Prefix.Addr(), v.Prefix.Bits()+2)
		if s.TruthSet().Validate(sub, 0) == vrp.Invalid && rest.Validate(sub, 0) == vrp.NotFound {
			return sub, webworld.HostAddr(sub, 5), nil
		}
	}
	return netip.Prefix{}, netip.Addr{}, fmt.Errorf("sim: no hijackable prefix under the outaged trust anchor")
}

// --- delegated-ca-compromise -------------------------------------------

// caCompromise turns the RPKI itself into the attack vector: a
// compromised delegated CA issues a rogue ROA authorising the attacker's
// AS for a sub-prefix of a properly signed aggregate. Once relying
// parties sync the rogue payload the attacker's announcement validates
// *Valid* — drop-invalid routers accept the hijack, and RPs still on a
// pre-compromise snapshot drop it (stale caches briefly protect, the
// mirror image of the hijack-window story). Revoking the rogue ROA makes
// the announcement Invalid under the victim's own tight ROA, and each RP
// sheds it at its next refresh.
var caCompromise = Scenario{
	Name:        "delegated-ca-compromise",
	Description: "a compromised CA's rogue ROA makes the attacker's hijack validate Valid until revoked",
	Params: map[string]any{"attacker": 65532,
		"compromise_frac": 0.2, "attack_frac": 0.35, "revoke_frac": 0.65, "end_frac": 0.9},
	Setup: caCompromiseSetup,
}

func caCompromiseSetup(s *Simulation, p Params) error {
	attacker := uint32(p.Int("attacker"))

	// The victim: a tightly signed, announced aggregate, so that without
	// the rogue ROA the attack is cleanly Invalid.
	var tight vrp.VRP
	found := false
	for _, v := range s.TruthVRPs() {
		if !v.Prefix.Addr().Is4() || v.MaxLength != v.Prefix.Bits() || v.Prefix.Bits() > 28 {
			continue
		}
		if origin, ok := s.World.PinnedOriginOf(v.Prefix); ok && origin == v.ASN {
			tight = v
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("sim: no tightly signed aggregate to compromise")
	}
	sub := netip.PrefixFrom(tight.Prefix.Addr(), tight.Prefix.Bits()+2)
	rogue := vrp.VRP{Prefix: sub, MaxLength: sub.Bits(), ASN: attacker}

	s.AtFrac(p.Float("compromise_frac"), func() {
		s.IssueVRP(rogue, "rogue ROA from compromised delegated CA")
	})
	s.AtFrac(p.Float("attack_frac"), func() {
		s.StartHijack(Hijack{Name: "ca-compromise", Prefix: sub, Path: []uint32{attacker}, Victim: webworld.HostAddr(sub, 11)})
	})
	s.AtFrac(p.Float("revoke_frac"), func() {
		s.RevokeVRP(rogue, "rogue ROA revoked, CA re-keyed")
	})
	s.AtFrac(p.Float("end_frac"), func() {
		s.EndHijack("ca-compromise")
	})
	return nil
}
