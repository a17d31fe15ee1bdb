package serve

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"unsafe"

	"ripki/internal/dns"
	"ripki/internal/measure"
	"ripki/internal/rib"
	"ripki/internal/rpki/vrp"
	"ripki/internal/strtab"
	"ripki/internal/webworld"
)

// Per-domain flag bits in DomainTable.flags.
const (
	flagCDN uint8 = 1 << iota
	flagWWWResolved
	flagApexResolved
)

// DomainListing is one row of GET /v1/domains.
type DomainListing struct {
	Name string `json:"name"`
	Rank int    `json:"rank"`
}

// DomainTable maps domain names to their serving routes: each domain's
// VRP-independent measurement state — the distinct (prefix, origin AS)
// pairs serving each name variant, as measure.AppendPairs (the paper's
// methodology steps 2–3) extracts them. Validation (step 4) is
// deliberately NOT baked in — it is re-run against each snapshot's VRP
// index, which is what lets the service answer under live VRP churn
// without re-measuring.
//
// The layout is struct-of-arrays with interned names and deduplicated
// routes, sized for the paper's million-domain population: a domain is
// a rank, a flag byte, a name in the string table (its id the domain's
// position, the table's id array the only name index), and two spans
// into a shared route-id array. The distinct (prefix, origin) pairs of
// the whole world are few (1 396 for 487 365 mentions at 200 000
// domains: the web sits behind a few hosting networks), so per-snapshot
// exposure validates each unique route once instead of once per domain.
// It is built once (DNS and RIB state is VRP-independent) and shared by
// every snapshot; after construction it is immutable and lock-free.
type DomainTable struct {
	names *strtab.Table // id = position in rank order
	ranks []int32
	flags []uint8
	// offs holds 2n+1 boundaries into routeIDs: domain i's www pairs
	// are routeIDs[offs[2i]:offs[2i+1]], its apex pairs
	// routeIDs[offs[2i+1]:offs[2i+2]].
	offs     []uint32
	routeIDs []uint32
	routes   []rib.PrefixOrigin // unique (prefix, origin) pairs
	headCut  int                // head/tail split for exposure aggregation
}

// name returns domain i's interned name.
func (t *DomainTable) name(i int32) string { return t.names.Get(uint32(i)) }

// wwwIDs returns domain i's www-variant route ids.
func (t *DomainTable) wwwIDs(i int32) []uint32 {
	return t.routeIDs[t.offs[2*i]:t.offs[2*i+1]]
}

// apexIDs returns domain i's apex-variant route ids.
func (t *DomainTable) apexIDs(i int32) []uint32 {
	return t.routeIDs[t.offs[2*i+1]:t.offs[2*i+2]]
}

// BuildDomainTable resolves every domain of the world's ranked list —
// both the www and the apex variant — and extracts the covering
// (prefix, origin) pairs from the world's RIB. Resolution fans out
// across GOMAXPROCS chunks into private arenas, each worker reading
// through its own O(1) fork of the registry and the RIB so that no two
// cores write one lock word. A worker numbers the routes it meets in
// the order it meets them and keeps 4-byte local ids, so the few
// thousand distinct routes of a world are the only pairs it holds;
// the pack into the interned table is a sequential second phase that
// maps each worker's local ids to global ones, numbered in rank order
// as one pass over the list would. The only error is a ranked list
// that names a domain twice.
func BuildDomainTable(w *webworld.World) (*DomainTable, error) {
	entries := w.List.Entries()
	n := len(entries)

	type arena struct {
		lo, hi int
		routes []rib.PrefixOrigin // local id → route, in first-seen order
		ids    []uint32           // local route ids, domain by domain
		counts []uint32           // 2 per domain: len(www ids), len(apex ids)
		flags  []uint8
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	arenas := make([]*arena, workers)
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		a := &arena{lo: n * c / workers, hi: n * (c + 1) / workers}
		a.ids = make([]uint32, 0, pairsPerDomain*(a.hi-a.lo))
		a.counts = make([]uint32, 0, 2*(a.hi-a.lo))
		a.flags = make([]uint8, 0, a.hi-a.lo)
		arenas[c] = a
		wg.Add(1)
		go func() {
			defer wg.Done()
			resolver, table := dns.RegistryResolver{Registry: w.Registry.Clone()}, w.RIB.Clone()
			// One answer buffer and one pair buffer serve all of the
			// worker's lookups.
			var (
				res   dns.Result
				pairs []rib.PrefixOrigin
				local = make(map[rib.PrefixOrigin]uint32, 1024)
			)
			number := func() uint32 {
				for _, po := range pairs {
					id, ok := local[po]
					if !ok {
						id = uint32(len(a.routes))
						a.routes = append(a.routes, po)
						local[po] = id
					}
					a.ids = append(a.ids, id)
				}
				return uint32(len(pairs))
			}
			for i := a.lo; i < a.hi; i++ {
				name := entries[i].Domain
				// LookupWebInto does not retain the name, so the www name
				// is built on the stack (up to 32 bytes), not the heap.
				resolver.LookupWebInto(&res, "www."+name)
				var www, apex measure.PairCounts
				pairs, www = measure.AppendPairs(pairs[:0], table, res.Addrs)
				chain := res.CNAMECount()
				nWWW := number()
				resolver.LookupWebInto(&res, name)
				pairs, apex = measure.AppendPairs(pairs[:0], table, res.Addrs)
				nApex := number()
				// A variant is resolved when it has a public address.
				var fl uint8
				if www.Addrs > 0 {
					fl |= flagWWWResolved
					if chain >= measure.CDNThreshold {
						fl |= flagCDN
					}
				}
				if apex.Addrs > 0 {
					fl |= flagApexResolved
				}
				a.counts = append(a.counts, nWWW, nApex)
				a.flags = append(a.flags, fl)
			}
		}()
	}
	wg.Wait()

	totalPairs := 0
	for _, a := range arenas {
		totalPairs += len(a.ids)
	}
	t := &DomainTable{
		names:    strtab.NewSized(n, 14*n),
		ranks:    make([]int32, n),
		flags:    make([]uint8, n),
		offs:     make([]uint32, 1, 2*n+1),
		routeIDs: make([]uint32, 0, totalPairs),
	}
	routeID := make(map[rib.PrefixOrigin]uint32, 1024)
	maxRank, off := 0, uint32(0)
	i := int32(0)
	for _, a := range arenas {
		// Walking the workers in rank order, a route new to this worker
		// and to every earlier one is the next global id.
		global := make([]uint32, len(a.routes))
		for j, po := range a.routes {
			id, ok := routeID[po]
			if !ok {
				id = uint32(len(t.routes))
				t.routes = append(t.routes, po)
				routeID[po] = id
			}
			global[j] = id
		}
		for j, id := range a.ids {
			a.ids[j] = global[id]
		}
		t.routeIDs = append(t.routeIDs, a.ids...)
		for k := a.lo; k < a.hi; k++ {
			if id := t.names.Intern(entries[k].Domain); id != uint32(i) {
				return nil, fmt.Errorf("serve: ranked list names %q twice, at ranks %d and %d", entries[k].Domain, t.ranks[id], entries[k].Rank)
			}
			t.ranks[i] = int32(entries[k].Rank)
			t.flags[i] = a.flags[k-a.lo]
			for v := 0; v < 2; v++ {
				off += a.counts[2*(k-a.lo)+v]
				t.offs = append(t.offs, off)
			}
			if entries[k].Rank > maxRank {
				maxRank = entries[k].Rank
			}
			i++
		}
	}
	t.headCut = measure.HeadCut(maxRank)
	return t, nil
}

// pairsPerDomain sizes a resolution arena: a domain's two variants
// together map to about this many (prefix, origin) pairs in generated
// worlds. An arena that needs more grows.
const pairsPerDomain = 3

// Len returns the number of domains in the table.
func (t *DomainTable) Len() int { return len(t.ranks) }

// MemoryFootprint returns the table's heap bytes: every array by its
// capacity, the string table's slab, offsets and name index included.
// It backs the ripki_serve_domain_table_bytes gauge and the
// bytes/domain bench metric.
func (t *DomainTable) MemoryFootprint() int {
	b := t.names.Footprint() + 4*cap(t.ranks) + cap(t.flags)
	b += 4*cap(t.offs) + 4*cap(t.routeIDs)
	b += int(unsafe.Sizeof(rib.PrefixOrigin{})) * cap(t.routes)
	return b
}

// Listing returns up to limit domains in rank order starting at offset
// (limit <= 0 means all remaining; an offset past the end is empty, not
// an error).
func (t *DomainTable) Listing(limit, offset int) []DomainListing {
	n := t.Len()
	if offset < 0 {
		offset = 0
	}
	if offset > n {
		offset = n
	}
	end := n
	if limit > 0 && offset+limit < n {
		end = offset + limit
	}
	out := make([]DomainListing, 0, end-offset)
	for i := offset; i < end; i++ {
		out = append(out, DomainListing{Name: t.name(int32(i)), Rank: int(t.ranks[i])})
	}
	return out
}

// lookup finds a domain by name, accepting an optional "www." label.
func (t *DomainTable) lookup(name string) (int32, bool) {
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	id, ok := t.names.Lookup(name)
	if rest, www := strings.CutPrefix(name, "www."); !ok && www {
		id, ok = t.names.Lookup(rest)
	}
	return int32(id), ok
}

// exposure aggregates the table's per-domain www state probabilities
// against a VRP index through measure.ExposureAccumulator, domains in
// rank order as measure.Snapshot adds them. Each unique route is
// validated once up front; the per-domain pass is then pure array
// arithmetic — O(routes + domains) instead of O(domains × pairs) trie
// walks. Writers call it once per publish; snapshots serve the
// precomputed value.
func (t *DomainTable) exposure(ix *vrp.Index) measure.ExposureSnapshot {
	states := make([]vrp.State, len(t.routes))
	for id, po := range t.routes {
		states[id] = ix.Validate(po.Prefix, po.Origin)
	}
	acc := measure.ExposureAccumulator{HeadCut: t.headCut}
	for i := 0; i < t.Len(); i++ {
		ids := t.wwwIDs(int32(i))
		valid, invalid := 0, 0
		for _, id := range ids {
			switch states[id] {
			case vrp.Valid:
				valid++
			case vrp.Invalid:
				invalid++
			}
		}
		acc.Add(int(t.ranks[i]), valid, invalid, len(ids))
	}
	return acc.Snapshot()
}
