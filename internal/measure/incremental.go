package measure

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sync"

	"ripki/internal/alexa"
	"ripki/internal/dns"
	"ripki/internal/radix"
	"ripki/internal/rib"
	"ripki/internal/rpki/vrp"
)

// Incremental is a Dataset that stays current under world mutation at a
// cost proportional to what changed, not to world size. The initial
// build runs the full pipeline once (exactly Run) and additionally
// records, per domain, the inputs a mutation can reach: the DNS owner
// names resolved and the covering prefixes validated against the VRP
// set. Those keys are inverted into reverse indexes — hostname →
// domains and a radix tree prefix → domains — so a mutation marks
// exactly the impacted domains dirty:
//
//   - DirtyVRP(q): a VRP issued or revoked at q flips the RFC 6811
//     outcome only for (prefix, origin) pairs at q or below (validation
//     consults covering VRPs), so the pair-prefix subtree of q is
//     marked;
//   - DirtyHost(name): a DNS record mutation affects the domains whose
//     resolution touched that owner name (queried names are recorded
//     even when they did not exist, so records appearing later still
//     invalidate).
//
// There is no index for RIB mutations, because nothing mutates a
// world's RIB after generation: a scenario that starts to must either
// DirtyAll or bring an address → domains index with it.
//
// Refresh then re-measures only the dirty domains — through the same
// measureDomain code path Run uses, writing into the same
// slot-addressed Results — and recomputes the totals. Because an
// unchanged domain's inputs are untouched by construction, its cached
// row equals what a fresh measurement would produce, and the refreshed
// Dataset is byte-identical to a full Run against the mutated world.
// The sim engine's lock-step test (TestIncrementalMatchesFull) enforces
// exactly that contract end to end.
//
// A dataset measured once can stand for many: Fork hands out a copy that
// shares whatever neither side has changed. What is shared is never
// written — a re-measured row replaces its slot in the fork's own
// Results, a re-indexed domain gets new index lists in the fork's own
// map and tree — so the dataset forked from, and every sibling, stay
// exactly what they were.
//
// Incremental is not safe for concurrent use, with one exception: any
// number of goroutines may Fork one dataset at once, as long as nothing
// else is using it. Refresh parallelises internally just as Run does.
type Incremental struct {
	cfg     Config
	entries []alexa.Entry
	ds      *Dataset
	keys    []domainKeys

	// The reverse indexes. A value is the sorted list of domains under a
	// key and is never written once stored — forks alias it — so a change
	// stores a new list.
	hostIdx map[string][]int32
	pairIdx radix.Tree[[]int32]

	// What a Fork leaves aliased on both sides until one of them writes:
	// ds.Results while rowsShared (copied before the first re-measured
	// row lands), keys and the host map while idxShared (copied before
	// the first re-index); the pair tree is forked copy-on-write by
	// radix.Tree.Clone. mu only orders concurrent Forks, which mark the
	// receiver.
	mu         sync.Mutex
	rowsShared bool
	idxShared  bool

	dirty map[int]struct{}
	// marked counts the domain marks the Dirty methods made, repeats
	// included; measured counts the domain measurements made. Both are
	// functions of the inputs alone.
	marked, measured int
}

// NewIncremental measures the full list once and builds the reverse
// indexes. The Config requirements are those of Run.
func NewIncremental(list *alexa.List, cfg Config) (*Incremental, error) {
	if cfg.Resolver == nil || cfg.RIB == nil || cfg.VRPs == nil {
		return nil, fmt.Errorf("measure: Resolver, RIB and VRPs are required")
	}
	entries := list.Entries()
	inc := &Incremental{
		cfg:     cfg,
		entries: entries,
		ds: &Dataset{
			Results:  make([]DomainResult, len(entries)),
			BinWidth: cfg.binWidth(),
		},
		keys:    make([]domainKeys, len(entries)),
		hostIdx: make(map[string][]int32),
		dirty:   make(map[int]struct{}),
	}
	all := make([]int, len(entries))
	for i := range all {
		all[i] = i
	}
	if err := inc.recompute(all); err != nil {
		return nil, err
	}
	return inc, nil
}

// Fork returns an independent dataset in the receiver's exact state —
// results, dependency keys, pending dirty marks — that resolves through
// resolver and validates against vrps from now on, in time independent
// of the list: rows, keys and reverse indexes stay shared, the rows until
// one side re-measures a domain (an O(domains) slice copy then), keys
// and indexes until one side has to re-index one. Nothing either dataset
// does afterwards is visible in the other, and the receiver stays as
// usable as before. The fork is only as good as the claim that resolver
// and vrps currently answer as the receiver's own sources did when it
// was last refreshed; Fork does not re-measure. Measured and Marked
// start at zero on the fork.
func (inc *Incremental) Fork(resolver dns.Lookuper, vrps *vrp.Set) *Incremental {
	f := &Incremental{
		cfg:        inc.cfg,
		entries:    inc.entries,
		ds:         &Dataset{Results: inc.ds.Results, BinWidth: inc.ds.BinWidth, Totals: inc.ds.Totals},
		keys:       inc.keys,
		hostIdx:    inc.hostIdx,
		rowsShared: true,
		idxShared:  true,
		dirty:      maps.Clone(inc.dirty),
	}
	f.cfg.Resolver, f.cfg.VRPs = resolver, vrps
	inc.mu.Lock()
	inc.rowsShared, inc.idxShared = true, true
	f.pairIdx = *inc.pairIdx.Clone()
	inc.mu.Unlock()
	return f
}

// Dataset returns the current dataset. It is valid until the next
// Refresh and must be treated as read-only.
func (inc *Incremental) Dataset() *Dataset { return inc.ds }

// Measured returns how many domain measurements the dataset has made
// since it was built or forked: the whole list for NewIncremental, none
// for Fork, plus every dirty domain a Refresh found.
func (inc *Incremental) Measured() int { return inc.measured }

// Marked returns how many domain marks DirtyVRP, DirtyHost and DirtyAll
// have made since the dataset was built or forked, a domain marked twice
// before a Refresh counting twice — an upper bound on what the refreshes
// since had to measure.
func (inc *Incremental) Marked() int { return inc.marked }

// DirtyVRP marks the domains whose measurement validated a pair prefix
// at q or below — the set a VRP issue/revoke at q can affect.
func (inc *Incremental) DirtyVRP(q netip.Prefix) {
	inc.pairIdx.WalkSubtree(q, func(_ netip.Prefix, domains []int32) bool {
		inc.mark(domains)
		return true
	})
}

// DirtyHost marks the domains whose resolution consulted the given
// owner name.
func (inc *Incremental) DirtyHost(name string) {
	inc.mark(inc.hostIdx[dns.CanonicalName(name)])
}

func (inc *Incremental) mark(domains []int32) {
	for _, i := range domains {
		inc.dirty[int(i)] = struct{}{}
	}
	inc.marked += len(domains)
}

// DirtyAll marks every domain, degrading the next Refresh to a full
// recompute — the escape hatch for mutations the caller cannot
// attribute.
func (inc *Incremental) DirtyAll() {
	for i := range inc.entries {
		inc.dirty[i] = struct{}{}
	}
	inc.marked += len(inc.entries)
}

// Refresh re-measures the dirty domains and recomputes the totals. With
// an empty dirty set it returns immediately — the steady-state tick.
func (inc *Incremental) Refresh() error {
	if len(inc.dirty) == 0 {
		return nil
	}
	idxs := make([]int, 0, len(inc.dirty))
	for i := range inc.dirty {
		idxs = append(idxs, i)
	}
	slices.Sort(idxs)
	if err := inc.recompute(idxs); err != nil {
		return err
	}
	clear(inc.dirty)
	return nil
}

// recompute re-measures the given domains (sorted indices) in parallel,
// moves those whose dependency keys changed in the reverse indexes, and
// recomputes the totals. A VRP change never moves a domain's hosts or
// covering prefixes, so the common refresh touches no index at all.
func (inc *Incremental) recompute(idxs []int) error {
	if inc.rowsShared {
		inc.ds.Results = slices.Clone(inc.ds.Results)
		inc.rowsShared = false
	}
	fresh := make([]domainKeys, len(idxs))
	err := fanOut(len(idxs), func(lo, hi int) error {
		var scratch []rib.PrefixOrigin
		for j := lo; j < hi; j++ {
			i := idxs[j]
			r, err := measureDomain(inc.entries[i], inc.cfg, &fresh[j], &scratch)
			if err != nil {
				return err
			}
			inc.ds.Results[i] = r
		}
		return nil
	})
	if err != nil {
		return err
	}
	inc.measured += len(idxs)
	for j, i := range idxs {
		old := inc.keys[i]
		if slices.Equal(old.hosts, fresh[j].hosts) && slices.Equal(old.prefixes, fresh[j].prefixes) {
			continue
		}
		inc.reindex(int32(i), old, fresh[j])
	}
	inc.ds.computeTotals()
	return nil
}

// reindex moves domain i from the lists under its old keys to those
// under its new ones and records the new keys, on a key slice and host
// map of the dataset's own.
func (inc *Incremental) reindex(i int32, old, fresh domainKeys) {
	if inc.idxShared {
		inc.keys = slices.Clone(inc.keys)
		inc.hostIdx = maps.Clone(inc.hostIdx)
		inc.idxShared = false
	}
	inc.keys[i] = fresh
	for _, h := range old.hosts {
		if l := without(inc.hostIdx[h], i); len(l) == 0 {
			delete(inc.hostIdx, h)
		} else {
			inc.hostIdx[h] = l
		}
	}
	for _, p := range old.prefixes {
		l, _ := inc.pairIdx.Lookup(p)
		if l = without(l, i); len(l) == 0 {
			inc.pairIdx.Delete(p)
		} else {
			// Keys come from netip values the pipeline already accepted,
			// so Insert cannot fail.
			_ = inc.pairIdx.Insert(p, l)
		}
	}
	for _, h := range fresh.hosts {
		inc.hostIdx[h] = with(inc.hostIdx[h], i)
	}
	for _, p := range fresh.prefixes {
		l, _ := inc.pairIdx.Lookup(p)
		_ = inc.pairIdx.Insert(p, with(l, i))
	}
}

// with returns the sorted list l with i in it: l itself when it already
// is (a domain's keys repeat across its two name variants), a new list
// otherwise.
func with(l []int32, i int32) []int32 {
	at, found := slices.BinarySearch(l, i)
	if found {
		return l
	}
	out := make([]int32, 0, len(l)+1)
	return append(append(append(out, l[:at]...), i), l[at:]...)
}

// without is the inverse of with.
func without(l []int32, i int32) []int32 {
	at, found := slices.BinarySearch(l, i)
	if !found {
		return l
	}
	out := make([]int32, 0, len(l)-1)
	return append(append(out, l[:at]...), l[at+1:]...)
}
