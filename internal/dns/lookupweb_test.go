package dns

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// lookupWebOracle is RegistryResolver.LookupWeb as it was before the
// one-walk kernel: two Registry.Query calls merged by lookupWeb.
func lookupWebOracle(reg *Registry, name string) (Result, error) {
	return lookupWeb(name, func(q Question) ([]RR, uint8, error) {
		ans, rcode := reg.Query(q)
		return ans, rcode, nil
	})
}

// lookupWeb merges an A and an AAAA query made through query: the
// two-query path RegistryResolver's one walk is tested against.
func lookupWeb(name string, query func(Question) ([]RR, uint8, error)) (Result, error) {
	res := Result{Name: CanonicalName(name)}
	nx := 0
	for _, typ := range []uint16{TypeA, TypeAAAA} {
		answers, rcode, err := query(Question{Name: name, Type: typ, Class: ClassINET})
		if err != nil {
			return res, err
		}
		if rcode == RCodeNameError {
			nx++
			continue
		}
		if rcode != RCodeSuccess {
			return res, fmt.Errorf("dns: lookup %q type %d: rcode %d", name, typ, rcode)
		}
		var chain []string
		for _, rr := range answers {
			switch rr.Type {
			case TypeCNAME:
				chain = append(chain, rr.Target)
			case TypeA, TypeAAAA:
				res.Addrs = append(res.Addrs, rr.Addr)
			}
		}
		// Both queries traverse the same chain; keep the longer one.
		if len(chain) > len(res.Chain) {
			res.Chain = chain
		}
	}
	res.NXDomain = nx == 2
	return res, nil
}

// randomWebRegistry fills a registry from a small pool of owner names so
// that every shape the walk distinguishes turns up often: owners with A
// only, AAAA only, both, neither (TXT only: NODATA), a CNAME beside
// addresses of one family (the two queries then stop at different
// owners), CNAMEs to names that do not exist, to themselves and in
// cycles, and one chain longer than maxChase. Records of an owner are
// added in random order, so A, AAAA and CNAME interleave.
func randomWebRegistry(rnd *rand.Rand) (*Registry, []string) {
	const pool = 24
	names := make([]string, pool)
	for i := range names {
		names[i] = fmt.Sprintf("n%d.example", i)
	}
	reg := NewRegistry()
	for i, name := range names {
		if rnd.Intn(6) == 0 {
			continue // referenced by CNAMEs, never defined
		}
		var rrs []RR
		for k := rnd.Intn(3); k > 0; k-- {
			rrs = append(rrs, RR{Name: name, Type: TypeA, TTL: 60, Addr: netip.AddrFrom4([4]byte{203, 0, byte(i), byte(k)})})
		}
		for k := rnd.Intn(3); k > 0; k-- {
			rrs = append(rrs, RR{Name: name, Type: TypeAAAA, TTL: 60, Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(i), byte(k)})})
		}
		for k := rnd.Intn(3); k > 0; k-- {
			// More than one CNAME is not legal DNS; the first one wins.
			rrs = append(rrs, RR{Name: name, Type: TypeCNAME, TTL: 60, Target: names[rnd.Intn(pool)]})
		}
		if len(rrs) == 0 {
			rrs = append(rrs, RR{Name: name, Type: TypeTXT, TTL: 60, Data: &RData{TXT: []string{"v=none"}}})
		}
		rnd.Shuffle(len(rrs), func(a, b int) { rrs[a], rrs[b] = rrs[b], rrs[a] })
		reg.AddBatch(rrs)
	}
	// A chain past maxChase with an address only at its far end, entered
	// at every depth.
	const long = maxChase + 4
	for i := 0; i < long; i++ {
		name := fmt.Sprintf("c%d.example", i)
		names = append(names, name)
		if i == long-1 {
			reg.Add(RR{Name: name, Type: TypeA, TTL: 60, Addr: netip.AddrFrom4([4]byte{198, 51, 100, 1})})
		} else {
			reg.AddCNAME(name, fmt.Sprintf("c%d.example", i+1), 60)
		}
	}
	return reg, append(names, "nosuch.example", "")
}

// spell returns name as a client might type it: mixed case, perhaps a
// trailing dot.
func spell(rnd *rand.Rand, name string) string {
	switch rnd.Intn(4) {
	case 0:
		return strings.ToUpper(name)
	case 1:
		return name + "."
	case 2:
		return strings.ToUpper(name[:len(name)/2]) + name[len(name)/2:] + "."
	}
	return name
}

// TestLookupWebMatchesOracle: the one-walk kernel answers every name of
// random registries exactly as two chased queries merged by lookupWeb
// do, field for field; and a Result reused across all of them through
// LookupWebInto holds, after each call, that call's answer and nothing
// of an earlier one.
func TestLookupWebMatchesOracle(t *testing.T) {
	shapes := map[string]int{}
	for seed := int64(1); seed <= 200; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		reg, names := randomWebRegistry(rnd)
		resolver := RegistryResolver{Registry: reg}
		var reused Result
		for _, name := range names {
			q := spell(rnd, name)
			want, err := lookupWebOracle(reg, q)
			if err != nil {
				t.Fatalf("seed %d: oracle on %q: %v", seed, q, err)
			}
			got, err := resolver.LookupWeb(q)
			if err != nil {
				t.Fatalf("seed %d: LookupWeb(%q): %v", seed, q, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: LookupWeb(%q)\n got %+v\nwant %+v", seed, q, got, want)
			}
			resolver.LookupWebInto(&reused, q)
			if reused.Name != "" || reused.NXDomain != want.NXDomain ||
				!slices.Equal(reused.Addrs, want.Addrs) || !slices.Equal(reused.Chain, want.Chain) {
				t.Fatalf("seed %d: reused Result after %q\n got %+v\nwant %+v (Name empty)", seed, q, reused, want)
			}
			switch {
			case want.NXDomain:
				shapes["nxdomain"]++
			case len(want.Chain) >= maxChase:
				shapes["chain cut at maxChase"]++
			case len(want.Addrs) == 0 && len(want.Chain) == 0:
				shapes["nodata"]++
			case len(want.Addrs) == 0:
				shapes["chain without addresses"]++
			default:
				shapes["addresses"]++
			}
		}
	}
	for _, shape := range []string{"nxdomain", "chain cut at maxChase", "nodata", "chain without addresses", "addresses"} {
		if shapes[shape] == 0 {
			t.Errorf("no lookup had the shape %q: the generator no longer covers it", shape)
		}
	}
}

// TestLookupWebQueriesStopApart pins the case the single walk exists to
// get right: an owner with A and a CNAME but no AAAA ends the A query
// and not the AAAA one, so the addresses come from two owners — A first
// even when the AAAA owner is met first — and the chain is the longer.
func TestLookupWebQueriesStopApart(t *testing.T) {
	a := RR{Type: TypeA, TTL: 60, Addr: netip.MustParseAddr("203.0.113.1")}
	aaaa := RR{Type: TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("2001:db8::1")}
	for _, order := range [][2]RR{{a, aaaa}, {aaaa, a}} {
		near, far := order[0], order[1]
		near.Name, far.Name = "near.example", "far.example"
		reg := NewRegistry()
		reg.Add(near)
		reg.AddCNAME("near.example", "far.example", 60)
		reg.Add(far)
		got, _ := RegistryResolver{Registry: reg}.LookupWeb("near.example")
		want, _ := lookupWebOracle(reg, "near.example")
		if !reflect.DeepEqual(got, want) ||
			!slices.Equal(got.Addrs, []netip.Addr{a.Addr, aaaa.Addr}) || !slices.Equal(got.Chain, []string{"far.example"}) {
			t.Errorf("type %d at the near owner: got %+v, oracle %+v", near.Type, got, want)
		}
	}
}
