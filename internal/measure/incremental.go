package measure

import (
	"fmt"
	"net/netip"
	"slices"

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
// Incremental is not safe for concurrent use; Refresh parallelises
// internally just as Run does.
type Incremental struct {
	cfg     Config
	entries []alexa.Entry
	ds      *Dataset
	keys    []domainKeys

	hostIdx map[string]map[int]struct{}
	pairIdx radix.Tree[map[int]struct{}]

	dirty map[int]struct{}
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
		hostIdx: make(map[string]map[int]struct{}),
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

// Dataset returns the current dataset. It is valid until the next
// Refresh and must be treated as read-only.
func (inc *Incremental) Dataset() *Dataset { return inc.ds }

// SetVRPs swaps the validation source consulted by subsequent
// refreshes. It does not mark anything dirty by itself: the caller is
// responsible for a DirtyVRP per changed prefix (or DirtyAll when the
// new set's relation to the old one is unknown).
func (inc *Incremental) SetVRPs(set *vrp.Set) { inc.cfg.VRPs = set }

// DirtyVRP marks the domains whose measurement validated a pair prefix
// at q or below — the set a VRP issue/revoke at q can affect.
func (inc *Incremental) DirtyVRP(q netip.Prefix) {
	for _, e := range inc.pairIdx.Subtree(q, nil) {
		for i := range e.Value {
			inc.dirty[i] = struct{}{}
		}
	}
}

// DirtyHost marks the domains whose resolution consulted the given
// owner name.
func (inc *Incremental) DirtyHost(name string) {
	for i := range inc.hostIdx[dns.CanonicalName(name)] {
		inc.dirty[i] = struct{}{}
	}
}

// DirtyAll marks every domain, degrading the next Refresh to a full
// recompute — the escape hatch for mutations the caller cannot
// attribute.
func (inc *Incremental) DirtyAll() {
	for i := range inc.entries {
		inc.dirty[i] = struct{}{}
	}
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
// swaps their dependency keys in the reverse indexes, and recomputes
// the totals.
func (inc *Incremental) recompute(idxs []int) error {
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
	for j, i := range idxs {
		inc.unindex(i, inc.keys[i])
		inc.keys[i] = fresh[j]
		inc.index(i, fresh[j])
	}
	inc.ds.computeTotals()
	return nil
}

func (inc *Incremental) index(i int, k domainKeys) {
	for _, h := range k.hosts {
		m := inc.hostIdx[h]
		if m == nil {
			m = make(map[int]struct{}, 1)
			inc.hostIdx[h] = m
		}
		m[i] = struct{}{}
	}
	for _, p := range k.prefixes {
		treeAdd(&inc.pairIdx, p, i)
	}
}

func (inc *Incremental) unindex(i int, k domainKeys) {
	for _, h := range k.hosts {
		if m := inc.hostIdx[h]; m != nil {
			delete(m, i)
			if len(m) == 0 {
				delete(inc.hostIdx, h)
			}
		}
	}
	for _, p := range k.prefixes {
		treeRemove(&inc.pairIdx, p, i)
	}
}

func treeAdd(t *radix.Tree[map[int]struct{}], p netip.Prefix, i int) {
	if m, ok := t.Lookup(p); ok {
		m[i] = struct{}{}
		return
	}
	// Keys come from netip values the pipeline already accepted, so
	// Insert cannot fail.
	_ = t.Insert(p, map[int]struct{}{i: {}})
}

func treeRemove(t *radix.Tree[map[int]struct{}], p netip.Prefix, i int) {
	if m, ok := t.Lookup(p); ok {
		delete(m, i)
		if len(m) == 0 {
			t.Delete(p)
		}
	}
}
