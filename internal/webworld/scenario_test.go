package webworld

import (
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ripki/internal/dns"
)

func TestScenarioAccessors(t *testing.T) {
	w, err := Generate(Config{Seed: 11, Domains: 3000})
	if err != nil {
		t.Fatal(err)
	}

	for _, spec := range CDNs() {
		if org := w.CDNOrg(spec.Name); org == nil || org.Kind != KindCDN || org.CDN.Name != spec.Name {
			t.Fatalf("CDNOrg(%s) = %v", spec.Name, org)
		}
	}
	if org := w.CDNOrg("akamai"); org == nil || org.CDN.Name != "akamai" {
		t.Fatalf("CDNOrg(akamai) = %v", org)
	}
	if org := w.CDNOrg("no-such-cdn"); org != nil {
		t.Errorf("CDNOrg on unknown name = %v, want nil", org)
	}

	prefixes := w.RoutedV4Prefixes()
	if len(prefixes) == 0 {
		t.Fatal("no routed v4 prefixes")
	}
	// Deterministic order and every prefix announced with a pinned origin.
	if again := w.RoutedV4Prefixes(); !reflect.DeepEqual(prefixes, again) {
		t.Error("RoutedV4Prefixes order not deterministic")
	}
	for _, p := range prefixes[:10] {
		if _, ok := w.PinnedOriginOf(p); !ok {
			t.Errorf("prefix %v has no pinned origin", p)
		}
		if !p.Contains(HostAddr(p, 42)) {
			t.Errorf("HostAddr(%v) escaped the prefix", p)
		}
	}

	hosts := w.CacheHosts("akamai")
	if len(hosts) == 0 {
		t.Fatal("akamai has no cache hosts")
	}
	suffixes := w.CDNSuffixes["akamai"]
	for _, h := range hosts[:5] {
		matched := false
		for _, suf := range suffixes {
			if strings.HasSuffix(h, "."+dns.CanonicalName(suf)) {
				matched = true
			}
		}
		if !matched {
			t.Errorf("cache host %q not under any akamai suffix %v", h, suffixes)
		}
		if len(w.Registry.Lookup(h, dns.TypeA)) == 0 {
			t.Errorf("cache host %q has no A record", h)
		}
	}
	if w.CacheHosts("no-such-cdn") != nil {
		t.Error("CacheHosts on unknown CDN should be nil")
	}
}

// cacheHostsByNames is CacheHosts as it was: every owner name, sorted,
// then filtered — the suffixes spelled out per name.
func cacheHostsByNames(w *World, cdnName string) []string {
	suffixes := w.CDNSuffixes[cdnName]
	if len(suffixes) == 0 {
		return nil
	}
	var out []string
	for _, name := range w.Registry.Names() {
		for _, suf := range suffixes {
			if strings.HasSuffix(name, "."+dns.CanonicalName(suf)) {
				if len(w.Registry.Lookup(name, dns.TypeA)) > 0 {
					out = append(out, name)
				}
				break
			}
		}
	}
	return out
}

// TestCacheHostsMatchesNamesThenFilter: filtering while ranging the
// registry and sorting the survivors lists, for every CDN of a generated
// world, exactly what sorting every name and filtering did — on the
// generated registry, and again on a clone a migration step has written
// (hosts re-pointed, one stripped of its addresses, one added), where
// the names come from base and overlay both.
func TestCacheHostsMatchesNamesThenFilter(t *testing.T) {
	w, err := Generate(Config{Seed: 3, Domains: 3000})
	if err != nil {
		t.Fatal(err)
	}
	check := func(w *World, when string) {
		t.Helper()
		listed := 0
		for name := range w.CDNSuffixes {
			got, want := w.CacheHosts(name), cacheHostsByNames(w, name)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: CacheHosts(%q) lists %d hosts, names-then-filter %d, and they differ", when, name, len(got), len(want))
			}
			listed += len(got)
		}
		if listed == 0 {
			t.Errorf("%s: no CDN has a cache host", when)
		}
	}
	check(w, "as generated")

	moved := w.Snapshot().Clone()
	hosts := moved.CacheHosts("akamai")
	if len(hosts) < 4 {
		t.Fatalf("akamai has %d cache hosts", len(hosts))
	}
	for i, h := range hosts[:len(hosts)/2] {
		moved.Registry.Remove(h, dns.TypeA)
		moved.Registry.Remove(h, dns.TypeAAAA)
		if i > 0 { // the first keeps no address: it must drop out
			moved.Registry.Add(dns.RR{Name: h, Type: dns.TypeA, TTL: 20, Addr: netip.MustParseAddr("198.51.100.9")})
		}
	}
	moved.Registry.Add(dns.RR{Name: "zz-new." + w.CDNSuffixes["akamai"][0], Type: dns.TypeA, TTL: 20, Addr: netip.MustParseAddr("198.51.100.10")})
	check(moved, "after a migration step")
	if got := moved.CacheHosts("akamai"); len(got) != len(hosts) || slices.Contains(got, hosts[0]) {
		t.Errorf("after the step akamai lists %d hosts (was %d), the stripped one among them: %v", len(got), len(hosts), slices.Contains(got, hosts[0]))
	}
	check(w, "the snapshot's own world afterwards")
}
