package alexa

import "testing"

func TestFromDomains(t *testing.T) {
	l := FromDomains([]string{"Google.com", "facebook.com", "youtube.com"})
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	es := l.Entries()
	if es[0].Rank != 1 || es[0].Domain != "google.com" {
		t.Errorf("entry 0 = %+v", es[0])
	}
	if es[1].Rank != 2 || es[1].Domain != "facebook.com" {
		t.Errorf("entry 1 = %+v", es[1])
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
