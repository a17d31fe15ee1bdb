package measure

import (
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ripki/internal/dns"
	"ripki/internal/httparchive"
	"ripki/internal/rpki/vrp"
	"ripki/internal/webworld"
)

// incState is everything an Incremental holds, copied out so that a
// later comparison sees a write anywhere: rows, totals, dependency keys
// and both reverse indexes, lists included.
type incState struct {
	Results []DomainResult
	Totals  Totals
	Keys    []domainKeys
	Hosts   map[string][]int32
	Pairs   map[netip.Prefix][]int32
}

func stateOf(inc *Incremental) incState {
	st := incState{
		Results: slices.Clone(inc.ds.Results),
		Totals:  inc.ds.Totals,
		Keys:    slices.Clone(inc.keys),
		Hosts:   make(map[string][]int32, len(inc.hostIdx)),
		Pairs:   make(map[netip.Prefix][]int32),
	}
	for h, l := range inc.hostIdx {
		st.Hosts[h] = slices.Clone(l)
	}
	inc.pairIdx.Walk(func(p netip.Prefix, l []int32) bool {
		st.Pairs[p] = slices.Clone(l)
		return true
	})
	return st
}

// TestForksMatchFreshAndStayApart is the property behind sharing one
// measurement between runs. Forks of one base are each driven, at the
// same time, through their own seeded interleaving of VRP issues and
// revokes (some through a swapped set), DNS writes arriving through the
// registry hook, and DirtyAll. After every Refresh a fork is, rows,
// totals, keys and reverse indexes alike, what NewIncremental builds
// from scratch on that fork's sources — so re-indexing on key change
// alone loses nothing. And at the end the base, and a fork that was
// never touched, are exactly what they were: a sibling's re-index or
// re-measured row is visible to nobody else. Under -race this is also
// the check that what forks share is only ever read.
func TestForksMatchFreshAndStayApart(t *testing.T) {
	if testing.Short() {
		t.Skip("world generation in -short mode")
	}
	w, err := webworld.Generate(webworld.Config{Seed: 7, Domains: 400})
	if err != nil {
		t.Fatal(err)
	}
	truth := w.Validation().VRPs
	cfg := Config{
		Resolver:    dns.RegistryResolver{Registry: w.Registry.Clone()},
		RIB:         w.RIB,
		VRPs:        truth,
		HTTPArchive: httparchive.New(w.CDNSuffixes),
		BinWidth:    50,
	}
	base, err := NewIncremental(w.List, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Measured() != w.List.Len() || base.Marked() != 0 {
		t.Errorf("fresh base: measured %d, marked %d; want %d, 0", base.Measured(), base.Marked(), w.List.Len())
	}
	before := stateOf(base)
	idle := base.Fork(cfg.Resolver, truth)
	if idle.Measured() != 0 || idle.Marked() != 0 {
		t.Errorf("fresh fork: measured %d, marked %d; want 0, 0", idle.Measured(), idle.Marked())
	}

	const forks = 4
	reindexed := make([]bool, forks)
	var wg sync.WaitGroup
	for n := 0; n < forks; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Forked here, not up front: Fork runs beside siblings that
			// are already refreshing.
			reg, set := w.Registry.Clone(), truth.Clone()
			fcfg := cfg
			fcfg.Resolver, fcfg.VRPs = dns.RegistryResolver{Registry: reg}, set
			f := base.Fork(fcfg.Resolver, set)
			reg.SetMutationHook(f.DirtyHost)
			reindexed[n] = driveFork(t, w, f, &fcfg, reg, int64(100+n))
		}()
	}
	wg.Wait()

	if !slices.Contains(reindexed, true) {
		t.Error("no fork ever re-indexed a domain: the copy-on-write of the indexes went unexercised")
	}
	if got := stateOf(base); !reflect.DeepEqual(got, before) {
		t.Error("the base changed under its forks")
	}
	if got := stateOf(idle); !reflect.DeepEqual(got, before) {
		t.Error("an untouched fork changed under its siblings")
	}
	if base.Measured() != w.List.Len() || idle.Measured() != 0 {
		t.Errorf("forks' work was counted elsewhere: base measured %d, idle fork %d", base.Measured(), idle.Measured())
	}
}

// driveFork runs one fork's interleaving and reports whether any refresh
// moved a domain in the reverse indexes. Failures go through t.Errorf:
// it runs off the test's goroutine.
func driveFork(t *testing.T, w *webworld.World, f *Incremental, cfg *Config, reg *dns.Registry, seed int64) (reindexed bool) {
	rnd := rand.New(rand.NewSource(seed))
	routed := w.RoutedV4Prefixes()
	entries := w.List.Entries()
	ops := []func(){
		func() { // ROA flip, sometimes with a mismatching origin
			p := routed[rnd.Intn(len(routed))]
			origin, ok := w.PinnedOriginOf(p)
			if !ok || rnd.Intn(3) == 0 {
				origin += 64512
			}
			v := vrp.VRP{Prefix: p, MaxLength: p.Bits(), ASN: origin}
			if !cfg.VRPs.Remove(v) {
				cfg.VRPs.Add(v)
			}
			f.DirtyVRP(v.Prefix)
		},
		func() { // the same through a clone of the set, on a fork of the fork
			p := routed[rnd.Intn(len(routed))]
			v := vrp.VRP{Prefix: p, MaxLength: p.Bits(), ASN: 64999}
			cfg.VRPs = cfg.VRPs.Clone()
			cfg.VRPs.Add(v)
			f = f.Fork(cfg.Resolver, cfg.VRPs)
			reg.SetMutationHook(f.DirtyHost)
			f.DirtyVRP(v.Prefix)
		},
		func() { // A record flip on an apex or www name
			name := entries[rnd.Intn(len(entries))].Domain
			if rnd.Intn(2) == 0 {
				name = "www." + name
			}
			if reg.Remove(name, dns.TypeA) == 0 {
				reg.Add(dns.RR{Name: name, Type: dns.TypeA, TTL: 60, Addr: routed[rnd.Intn(len(routed))].Addr()})
			}
		},
		func() { // CNAME repoint onto another domain's www
			from := "www." + entries[rnd.Intn(len(entries))].Domain
			to := "www." + entries[rnd.Intn(len(entries))].Domain
			reg.Remove(from, dns.TypeA)
			reg.Remove(from, dns.TypeCNAME)
			reg.Add(dns.RR{Name: from, Type: dns.TypeCNAME, TTL: 60, Target: to})
		},
		func() {
			if rnd.Intn(4) == 0 {
				f.DirtyAll()
			}
		},
	}
	for i := 0; i < 48; i++ {
		ops[rnd.Intn(len(ops))]()
		if i%4 != 3 {
			continue
		}
		keys := slices.Clone(f.keys)
		if err := f.Refresh(); err != nil {
			t.Errorf("fork %d op %d: refresh: %v", seed, i, err)
			return
		}
		reindexed = reindexed || !reflect.DeepEqual(keys, f.keys)
		fresh, err := NewIncremental(w.List, *cfg)
		if err != nil {
			t.Errorf("fork %d op %d: fresh build: %v", seed, i, err)
			return
		}
		if !reflect.DeepEqual(f.Dataset(), fresh.Dataset()) {
			t.Errorf("fork %d op %d: dataset differs from a fresh build on the same state", seed, i)
			return
		}
		if got, want := stateOf(f), stateOf(fresh); !reflect.DeepEqual(got, want) {
			t.Errorf("fork %d op %d: keys or reverse indexes differ from a fresh build:\n%s", seed, i, diffIndexes(got, want))
			return
		}
	}
	return reindexed
}

// diffIndexes names the first index entries two states disagree on.
func diffIndexes(got, want incState) string {
	for _, h := range slices.Sorted(maps.Keys(want.Hosts)) {
		if !slices.Equal(got.Hosts[h], want.Hosts[h]) {
			return fmt.Sprintf("host %q: fork %v, fresh %v", h, got.Hosts[h], want.Hosts[h])
		}
	}
	for h, l := range got.Hosts {
		if _, ok := want.Hosts[h]; !ok {
			return fmt.Sprintf("host %q: fork %v, fresh has none", h, l)
		}
	}
	for p, l := range want.Pairs {
		if !slices.Equal(got.Pairs[p], l) {
			return fmt.Sprintf("prefix %v: fork %v, fresh %v", p, got.Pairs[p], l)
		}
	}
	for p, l := range got.Pairs {
		if _, ok := want.Pairs[p]; !ok {
			return fmt.Sprintf("prefix %v: fork %v, fresh has none", p, l)
		}
	}
	return "keys differ"
}
