package strtab

import (
	"fmt"
	"strings"
	"testing"
)

func TestInternRoundTrip(t *testing.T) {
	tab := New()
	words := []string{"google.com", "facebook.com", "", "a", "www.google.com", "google.com"}
	ids := make([]uint32, len(words))
	for i, w := range words {
		ids[i] = tab.Intern(w)
	}
	for i, w := range words {
		if got := tab.Get(ids[i]); got != w {
			t.Fatalf("Get(%d) = %q, want %q", ids[i], got, w)
		}
	}
	// Dedup: equal strings, equal ids.
	if ids[0] != ids[5] {
		t.Fatalf("duplicate intern got distinct ids %d and %d", ids[0], ids[5])
	}
	if tab.Len() != 5 {
		t.Fatalf("Len = %d, want 5 unique strings", tab.Len())
	}
	// Re-interning anything returns the original id.
	for i, w := range words {
		if again := tab.Intern(w); again != ids[i] {
			t.Fatalf("re-Intern(%q) = %d, want %d", w, again, ids[i])
		}
	}
}

func TestLookup(t *testing.T) {
	tab := New()
	id := tab.Intern("example.org")
	if got, ok := tab.Lookup("example.org"); !ok || got != id {
		t.Fatalf("Lookup = %d,%v want %d,true", got, ok, id)
	}
	if _, ok := tab.Lookup("missing"); ok {
		t.Fatal("Lookup found a string that was never interned")
	}
}

func TestAppendArenaMode(t *testing.T) {
	tab := NewSized(4, 64)
	a := tab.Append([]byte("dup"))
	b := tab.Append([]byte("dup"))
	if a == b {
		t.Fatal("Append deduplicated; arena mode must not")
	}
	if tab.Get(a) != "dup" || tab.Get(b) != "dup" {
		t.Fatalf("Get after Append: %q, %q", tab.Get(a), tab.Get(b))
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	// Footprint counts by capacity: the 64-byte slab and 5 offsets
	// asked for, and no index, because Append builds none.
	if tab.Footprint() != 64+4*5 {
		t.Fatalf("Footprint = %d, want %d", tab.Footprint(), 64+4*5)
	}
}

// TestStableAcrossGrowth interns enough strings to force repeated slab
// reallocation, holding on to every returned string, and verifies none
// of them were corrupted by growth (the no-aliasing guarantee).
func TestStableAcrossGrowth(t *testing.T) {
	tab := NewSized(0, 0) // start with no capacity to maximise growth events
	const n = 20000
	want := make([]string, n)
	got := make([]string, n)
	ids := make([]uint32, n)
	for i := range want {
		want[i] = fmt.Sprintf("site-%d.example", i)
		ids[i] = tab.Intern(want[i])
		got[i] = tab.Get(ids[i]) // captured early, before later growth
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("early Get(%d) corrupted by growth: %q != %q", ids[i], got[i], want[i])
		}
		if tab.Get(ids[i]) != want[i] {
			t.Fatalf("late Get(%d) = %q, want %q", ids[i], tab.Get(ids[i]), want[i])
		}
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
}

// FuzzIntern round-trips arbitrary token lists through two tables —
// one from New, one from NewSized(2, 0), whose index doubles several
// times within one input — and cross-checks against a plain map copy:
// dedup must be exact, Get must return byte-identical content, Lookup
// must find every interned token and no other, and no earlier string
// may be aliased or clobbered by later inserts.
func FuzzIntern(f *testing.F) {
	f.Add("google.com\nfacebook.com\ngoogle.com")
	f.Add("")
	f.Add("\n\n\n")
	f.Add("a\xff\x00b\nsame\nsame\nsame")
	f.Add(strings.Repeat("x", 300) + "\n" + strings.Repeat("x", 300))
	f.Fuzz(func(t *testing.T, input string) {
		if _, ok := New().Lookup(input); ok {
			t.Fatalf("an empty table found %q", input)
		}
		tokens := strings.Split(input, "\n")
		for _, tab := range []*Table{New(), NewSized(2, 0)} {
			ref := make(map[string]uint32) // reference copies own their bytes
			var order []string
			for _, tok := range tokens {
				id := tab.Intern(tok)
				clone := strings.Clone(tok)
				if prev, ok := ref[clone]; ok {
					if id != prev {
						t.Fatalf("Intern(%q) = %d, earlier id %d", tok, id, prev)
					}
					continue
				}
				ref[clone] = id
				order = append(order, clone)
			}
			if tab.Len() != len(ref) {
				t.Fatalf("Len = %d, want %d unique", tab.Len(), len(ref))
			}
			for _, s := range order {
				id := ref[s]
				if got := tab.Get(id); got != s {
					t.Fatalf("Get(%d) = %q, want %q", id, got, s)
				}
				if got, ok := tab.Lookup(s); !ok || got != id {
					t.Fatalf("Lookup(%q) = %d,%v want %d,true", s, got, ok, id)
				}
				if _, interned := ref[s+"\x00"]; !interned {
					if got, ok := tab.Lookup(s + "\x00"); ok {
						t.Fatalf("Lookup(%q) = %d, but it was never interned", s+"\x00", got)
					}
				}
			}
		}
	})
}
