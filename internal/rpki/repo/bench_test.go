package repo

import (
	"fmt"
	"net/netip"
	"testing"

	"ripki/internal/rpki/cert"
	"ripki/internal/rpki/roa"
)

// worldROAs is the ROA count of each CA a generated world issues under
// the trust anchors (webworld at seed 1, 20 000 or 200 000 domains
// alike): 21 CAs with the anchors, 72 ROAs, 186 signatures to check.
var worldROAs = []int{4, 5, 2, 2, 3, 7, 6, 4, 3, 4, 6, 3, 6, 7, 4, 6}

// worldShaped issues a repository of a generated world's shape: the
// five anchors, one CA per worldROAs entry under them in turn, each
// holding a /16 and signing its ROAs, a /24 apiece, in one batch.
func worldShaped(tb testing.TB) *Repository {
	tb.Helper()
	r, err := New(RIRNames, clock, ttl)
	if err != nil {
		tb.Fatal(err)
	}
	for i, n := range worldROAs {
		block := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(20 + i), 0, 0, 0}), 16)
		ca, err := r.NewCA(r.Anchors[i%len(r.Anchors)], fmt.Sprintf("org-%d", i), cert.Resources{
			Prefixes: []netip.Prefix{block},
			ASNs:     []cert.ASRange{{Min: 0, Max: 4294967295}},
		})
		if err != nil {
			tb.Fatal(err)
		}
		specs := make([]ROASpec, n)
		for j := range specs {
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(20 + i), 0, byte(j), 0}), 24)
			specs[j] = ROASpec{ASID: uint32(64500 + i), Prefixes: []roa.Prefix{{Prefix: p, MaxLength: 24}}}
		}
		if _, err := r.AddROAs(ca, specs); err != nil {
			tb.Fatal(err)
		}
	}
	return r
}

// BenchmarkRepositoryIssue: generating and signing a world's RPKI —
// 93 keys and 218 signatures, what a world's generation spends on it.
func BenchmarkRepositoryIssue(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		worldShaped(b)
	}
}

// BenchmarkRepositoryValidate: the relying party's walk over a world's
// RPKI, 186 signature checks, what a world's first Validation costs.
func BenchmarkRepositoryValidate(b *testing.B) {
	r := worldShaped(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := r.Validate(at); len(res.Problems) != 0 {
			b.Fatal(res.Problems)
		}
	}
}
