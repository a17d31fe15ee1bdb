//go:build linux

package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"ripki/internal/rpki/vrp"
)

// Seeded input generators. Everything a measured program receives —
// VRP CSV, request bodies, domain ranks, grids, RTR deltas — is made
// here from the run's seed before any clock starts, so the programs see
// generated inputs only and the same seed gives the same bytes.

// Origin ASNs of generated VRPs come from [asnBase, asnBase+asnPool);
// wrongOriginBase starts a range no VRP ever names, so a route with
// such an origin under a covering VRP is Invalid by construction.
const (
	asnBase         = 1000
	asnPool         = 60000
	wrongOriginBase = 4200000000
)

// subStreams derives independent generators from one seed, so that
// adding draws to one input never shifts another.
func subStream(seed int64, stream uint64) *rand.Rand {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

const (
	streamVRPs = iota + 1
	streamRoutes
	streamZipf
	streamChurn
	streamMix
)

// v4Lengths is the base-prefix length mix of generated IPv4 VRPs,
// roughly today's shape: /24 dominates, /22 and /16 follow.
var v4Lengths = []struct {
	bits   int
	weight int
}{{24, 55}, {23, 8}, {22, 12}, {21, 5}, {20, 6}, {19, 4}, {18, 3}, {17, 2}, {16, 5}}

func pickV4Length(rnd *rand.Rand) int {
	n := rnd.Intn(100)
	for _, l := range v4Lengths {
		if n < l.weight {
			return l.bits
		}
		n -= l.weight
	}
	return 24
}

// randV4 returns a random unicast IPv4 prefix of the given length.
func randV4(rnd *rand.Rand, bits int) netip.Prefix {
	for {
		a := rnd.Uint32()
		if first := a >> 24; first == 0 || first == 10 || first == 127 || first >= 224 {
			continue
		}
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], a)
		return netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
	}
}

// randV6 returns a random prefix of the given length inside 2000::/3.
func randV6(rnd *rand.Rand, bits int) netip.Prefix {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], rnd.Uint64())
	b[0] = 0x20 | b[0]&0x1f
	return netip.PrefixFrom(netip.AddrFrom16(b), bits).Masked()
}

// subPrefix returns a random more-specific of p with the given length.
func subPrefix(rnd *rand.Rand, p netip.Prefix, bits int) netip.Prefix {
	raw := p.Addr().AsSlice()
	for i := p.Bits(); i < bits; i++ {
		if rnd.Intn(2) == 1 {
			raw[i/8] |= 0x80 >> (i % 8)
		}
	}
	a, _ := netip.AddrFromSlice(raw)
	return netip.PrefixFrom(a, bits).Masked()
}

// capBits is the longest prefix the generators announce per family.
func capBits(p netip.Prefix) int {
	if p.Addr().Is4() {
		return 24
	}
	return 48
}

// genVRPs makes n distinct VRPs: 85 % IPv4, 15 % IPv6; a quarter are
// more-specifics of an earlier VRP (same origin more often than not),
// so covering lists of two and more occur as they do in the real RPKI;
// about a third allow a maxLength beyond the prefix length.
func genVRPs(rnd *rand.Rand, n int) []vrp.VRP {
	out := make([]vrp.VRP, 0, n)
	seen := make(map[vrp.VRP]struct{}, n)
	for len(out) < n {
		var v vrp.VRP
		if len(out) > 16 && rnd.Intn(4) == 0 {
			parent := out[rnd.Intn(len(out))]
			limit := capBits(parent.Prefix)
			if parent.Prefix.Bits() >= limit {
				continue
			}
			bits := parent.Prefix.Bits() + 1 + rnd.Intn(limit-parent.Prefix.Bits())
			v.Prefix = subPrefix(rnd, parent.Prefix, bits)
			v.ASN = parent.ASN
			if rnd.Intn(5) < 2 {
				v.ASN = asnBase + uint32(rnd.Intn(asnPool))
			}
		} else {
			if rnd.Intn(100) < 15 {
				v.Prefix = randV6(rnd, []int{32, 36, 40, 48, 48, 48}[rnd.Intn(6)])
			} else {
				v.Prefix = randV4(rnd, pickV4Length(rnd))
			}
			v.ASN = asnBase + uint32(rnd.Intn(asnPool))
		}
		v.MaxLength = v.Prefix.Bits()
		if room := capBits(v.Prefix) - v.Prefix.Bits(); room > 0 && rnd.Intn(3) == 0 {
			v.MaxLength += 1 + rnd.Intn(room)
		}
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// vrpCSV renders VRPs in the "prefix,maxLength,ASN" format ripki-served
// reads with -vrps, in generation order.
func vrpCSV(vs []vrp.VRP) []byte {
	var b bytes.Buffer
	b.WriteString("prefix,maxLength,ASN\n")
	for _, v := range vs {
		fmt.Fprintf(&b, "%s,%d,AS%d\n", v.Prefix, v.MaxLength, v.ASN)
	}
	return b.Bytes()
}

// routeClass is the verdict a generated route is built to receive.
type routeClass uint8

const (
	classValid routeClass = iota
	classWrongOrigin
	classTooSpecific
	classNotFound
)

// The fixed verdict mix of generated routes, in percent.
var classShare = [...]int{classValid: 40, classWrongOrigin: 20, classTooSpecific: 10, classNotFound: 30}

// wantState is the RFC 6811 state each class must validate to.
func (c routeClass) wantState() vrp.State {
	switch c {
	case classValid:
		return vrp.Valid
	case classNotFound:
		return vrp.NotFound
	default:
		return vrp.Invalid
	}
}

// route is one (prefix, origin) a validate request asks about.
type route struct {
	Prefix netip.Prefix
	ASN    uint32
	Class  routeClass
}

// genRoutes draws n routes with exactly the classShare mix, shuffled.
// Each candidate is built from the VRP list and kept only if the oracle
// set gives it the state its class promises, so the mix the daemon sees
// is the mix stated.
func genRoutes(rnd *rand.Rand, vs []vrp.VRP, oracle *vrp.Set, n int) []route {
	out := make([]route, 0, n)
	for class, share := range classShare {
		want := n * share / 100
		if class == len(classShare)-1 {
			want = n - len(out)
		}
		for made := 0; made < want; {
			r, ok := candidate(rnd, vs, routeClass(class))
			if !ok || oracle.Validate(r.Prefix, r.ASN) != r.Class.wantState() {
				continue
			}
			out = append(out, r)
			made++
		}
	}
	rnd.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func candidate(rnd *rand.Rand, vs []vrp.VRP, class routeClass) (route, bool) {
	v := vs[rnd.Intn(len(vs))]
	switch class {
	case classValid:
		bits := v.Prefix.Bits() + rnd.Intn(v.MaxLength-v.Prefix.Bits()+1)
		return route{subPrefix(rnd, v.Prefix, bits), v.ASN, class}, true
	case classWrongOrigin:
		return route{v.Prefix, wrongOriginBase + uint32(rnd.Intn(1<<20)), class}, true
	case classTooSpecific:
		room := v.Prefix.Addr().BitLen() - v.MaxLength
		if room == 0 {
			return route{}, false
		}
		bits := v.MaxLength + 1 + rnd.Intn(min(room, 4))
		return route{subPrefix(rnd, v.Prefix, bits), v.ASN, class}, true
	default:
		if rnd.Intn(100) < 15 {
			return route{randV6(rnd, 48), asnBase + uint32(rnd.Intn(asnPool)), class}, true
		}
		return route{randV4(rnd, 16+rnd.Intn(9)), asnBase + uint32(rnd.Intn(asnPool)), class}, true
	}
}

// validateBody renders routes as a POST /v1/validate body.
func validateBody(rs []route) []byte {
	type spec struct {
		Prefix string `json:"prefix"`
		ASN    uint32 `json:"asn"`
	}
	req := struct {
		Routes []spec `json:"routes"`
	}{Routes: make([]spec, len(rs))}
	for i, r := range rs {
		req.Routes[i] = spec{r.Prefix.String(), r.ASN}
	}
	b, _ := json.Marshal(req)
	return b
}

// zipfRanks draws n ranks in [0, population) with P(rank k) ∝ 1/(k+1):
// Zipf with exponent 1.0, which math/rand's Zipf (s > 1) cannot give.
func zipfRanks(rnd *rand.Rand, population, n int) []int {
	cum := make([]float64, population)
	sum := 0.0
	for k := range cum {
		sum += 1 / float64(k+1)
		cum[k] = sum
	}
	out := make([]int, n)
	for i := range out {
		out[i] = sort.SearchFloat64s(cum, rnd.Float64()*sum)
		if out[i] >= population {
			out[i] = population - 1
		}
	}
	return out
}

// churnDelta is one RTR update: VRPs to announce and to withdraw.
type churnDelta struct {
	Announce []vrp.VRP
	Withdraw []vrp.VRP
}

// genChurn makes rounds deltas of size announces and size withdraws.
// Withdraws take initial VRPs, each at most once; announces are fresh
// VRPs not in the initial set, so every entry changes membership and
// every delta bumps the cache's serial by exactly one.
func genChurn(rnd *rand.Rand, initial []vrp.VRP, rounds, size int) []churnDelta {
	have := make(map[vrp.VRP]struct{}, len(initial))
	for _, v := range initial {
		have[v] = struct{}{}
	}
	order := rnd.Perm(len(initial))
	out := make([]churnDelta, rounds)
	for r := range out {
		d := &out[r]
		for len(d.Announce) < size {
			v := genVRPs(rnd, 1)[0]
			if _, dup := have[v]; dup {
				continue
			}
			have[v] = struct{}{}
			d.Announce = append(d.Announce, v)
		}
		for i := 0; i < size; i++ {
			d.Withdraw = append(d.Withdraw, initial[order[(r*size+i)%len(order)]])
		}
	}
	return out
}

// gridJSON renders a sweep workload as the grid file ripki-sweep reads.
func gridJSON(s sweepSize, seed int64) []byte {
	g := struct {
		Scenarios   []string `json:"scenarios"`
		MasterSeed  int64    `json:"master_seed"`
		Replicates  int      `json:"replicates"`
		Domains     []int    `json:"domains"`
		Ticks       []string `json:"ticks"`
		Durations   []string `json:"durations"`
		SampleEvery []int    `json:"sample_every"`
	}{s.scenarios, seed, s.replicates, []int{s.domains}, []string{s.tick.String()},
		[]string{s.duration.String()}, []int{s.sampleEvery}}
	b, _ := json.MarshalIndent(g, "", "  ")
	return append(b, '\n')
}
