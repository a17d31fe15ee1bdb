package webworld

import (
	"math/rand"
	"strconv"
)

// topSite is a fixture for a prominent domain whose hosting profile
// mirrors a row of the paper's Table 1 (or a named unsecured giant).
// Coverage counts are per variant: covered prefixes / total prefixes.
type topSite struct {
	rank  int
	name  string
	noWWW bool
	// cdn names the CDN serving the www variant ("" = none).
	cdn string

	wwwCovered, wwwTotal   int
	apexCovered, apexTotal int
}

// topSites mirrors the published Table 1 plus the "huge international
// players such as Google" remark (google.com: prominent and unsecured).
// The generator realises each row structurally: covered prefixes belong
// to ROA-signing organisations, uncovered ones to abstaining
// organisations, and CDN-served www variants traverse CNAME chains.
// Rows are in ascending rank order; sharded generation relies on that
// to rebuild fixtures sequentially.
func topSites() []topSite {
	return []topSite{
		{rank: 1, name: "google.com", cdn: "", wwwCovered: 0, wwwTotal: 4, apexCovered: 0, apexTotal: 4},
		{rank: 2, name: "facebook.com", cdn: "", wwwCovered: 3, wwwTotal: 3, apexCovered: 2, apexTotal: 2},
		{rank: 70, name: "cdncache1-a.akamaihd.net", noWWW: true, cdn: "akamai", apexCovered: 1, apexTotal: 3},
		{rank: 73, name: "huffingtonpost.com", cdn: "akamai", wwwCovered: 1, wwwTotal: 3, apexCovered: 0, apexTotal: 3},
		{rank: 92, name: "cnet.com", cdn: "akamai", wwwCovered: 1, wwwTotal: 3, apexCovered: 0, apexTotal: 2},
		{rank: 95, name: "dailymail.co.uk", cdn: "edgecast", wwwCovered: 1, wwwTotal: 3, apexCovered: 0, apexTotal: 1},
		{rank: 117, name: "indiatimes.com", cdn: "akamai", wwwCovered: 1, wwwTotal: 3, apexCovered: 0, apexTotal: 1},
		{rank: 120, name: "kickass.to", cdn: "cloudflare", wwwCovered: 1, wwwTotal: 10, apexCovered: 1, apexTotal: 10},
		{rank: 130, name: "booking.com", cdn: "", wwwCovered: 4, wwwTotal: 4, apexCovered: 2, apexTotal: 2},
	}
}

var nameSyllables = []string{
	"ba", "be", "bo", "ca", "ce", "co", "da", "di", "do", "fa", "fi", "ga",
	"go", "ha", "ka", "ki", "la", "le", "lo", "ma", "me", "mi", "mo", "na",
	"ne", "no", "pa", "pe", "po", "ra", "re", "ro", "sa", "se", "so", "ta",
	"te", "to", "va", "vi", "wa", "wo", "ya", "za", "zu",
}

var tlds = []string{
	".com", ".com", ".com", ".com", ".net", ".org", ".de", ".ru", ".co.uk",
	".info", ".fr", ".it", ".nl", ".pl", ".br", ".jp", ".in", ".io",
}

// appendDomain appends a pronounceable unique domain for the given rank
// to dst and returns the extended slice. Uniqueness comes from embedding
// the rank in the syllable choice, with random decoration; the
// allocation-free shape lets shards build a million names straight into
// their string-table slabs.
func appendDomain(dst []byte, rnd *rand.Rand, rank int) []byte {
	n := rank
	for i := 0; i < 3; i++ {
		dst = append(dst, nameSyllables[n%len(nameSyllables)]...)
		n /= len(nameSyllables)
	}
	if n > 0 {
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	if rnd.Intn(4) == 0 {
		dst = append(dst, nameSyllables[rnd.Intn(len(nameSyllables))]...)
	}
	return append(dst, tlds[rnd.Intn(len(tlds))]...)
}
