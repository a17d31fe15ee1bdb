package alexa

import (
	"bytes"
	"testing"
)

func TestFromDomainsAndTop(t *testing.T) {
	l := FromDomains([]string{"Google.com", "facebook.com", "youtube.com"})
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	es := l.Entries()
	if es[0].Rank != 1 || es[0].Domain != "google.com" {
		t.Errorf("entry 0 = %+v", es[0])
	}
	top := l.Top(2)
	if top.Len() != 2 || top.Entries()[1].Domain != "facebook.com" {
		t.Errorf("Top(2) = %+v", top.Entries())
	}
	if l.Top(99).Len() != 3 {
		t.Error("Top beyond length truncated wrongly")
	}
}

func TestWriteCSV(t *testing.T) {
	l := FromEntries([]Entry{{Rank: 1, Domain: "Google.com"}, {Rank: 2, Domain: "facebook.com"}, {Rank: 7, Domain: "youtube.com"}})
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// One "rank,domain" line each, domains lower-cased, ranks kept.
	if want := "1,google.com\n2,facebook.com\n7,youtube.com\n"; buf.String() != want {
		t.Errorf("WriteCSV = %q, want %q", buf.String(), want)
	}
}

func TestFromEntriesKeepsRanks(t *testing.T) {
	l := FromEntries([]Entry{{Rank: 3, Domain: "Alpha.Example"}, {Rank: 900, Domain: "beta.example"}})
	es := l.Entries()
	if len(es) != 2 {
		t.Fatalf("len = %d", len(es))
	}
	if es[0].Rank != 3 || es[0].Domain != "alpha.example" {
		t.Errorf("entry 0 = %+v", es[0])
	}
	if es[1].Rank != 900 {
		t.Errorf("entry 1 rank = %d, want 900 (not renumbered)", es[1].Rank)
	}
}
