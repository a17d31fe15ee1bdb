// Package alexa holds ranked website lists as the Alexa "Top 1M Sites"
// list ranks them: one (rank, domain) pair a site, rank starting at
// one. The paper's methodology step (1) selects its sample set from this
// list; the synthetic world builds one in memory.
package alexa

import "strings"

// Entry is one ranked domain.
type Entry struct {
	Rank   int // 1-based
	Domain string
}

// List is a ranked domain list, ordered by rank.
type List struct {
	entries []Entry
}

// FromDomains builds a list from domains already ordered by popularity.
func FromDomains(domains []string) *List {
	l := &List{entries: make([]Entry, len(domains))}
	for i, d := range domains {
		l.entries[i] = Entry{Rank: i + 1, Domain: strings.ToLower(d)}
	}
	return l
}

// FromEntries builds a list from explicit (rank, domain) pairs, keeping
// the given ranks. Entries must already be ordered by ascending rank.
// Sampled sub-populations use this so each domain keeps its original
// rank (and therefore its figure bin) instead of being renumbered.
func FromEntries(entries []Entry) *List {
	l := &List{entries: make([]Entry, len(entries))}
	copy(l.entries, entries)
	for i := range l.entries {
		l.entries[i].Domain = strings.ToLower(l.entries[i].Domain)
	}
	return l
}

// Len returns the number of entries.
func (l *List) Len() int { return len(l.entries) }

// Entries returns the underlying slice (not a copy; treat as read-only).
func (l *List) Entries() []Entry { return l.entries }
