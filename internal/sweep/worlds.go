package sweep

import (
	"fmt"
	"sync"

	"ripki/internal/webworld"
)

// A generated world is its webworld.Config, (seed, domains): generation
// is byte-identical at any GOMAXPROCS, and nothing else about a world
// can be set. Paired replication reuses the same seed in every cell,
// so a grid of C cells
// × R replicates needs only R × |domains axis| distinct worlds, not
// C × R. The cache below generates each distinct world exactly once
// (organisations, RPKI signing, BGP announcement, DNS zones,
// certificate-path validation), snapshots it, and hands every run that
// shares the key its own webworld clone. Reference counts drop the
// cache's entry when the last sharing run completes (clones alias the
// snapshot's immutable layers, so the base world lives as long as any
// of its runs) — world memory tracks the runs in flight, never the
// grid size.
type worldKey struct {
	seed    int64
	domains int
}

type worldEntry struct {
	once      sync.Once
	snap      *webworld.Snapshot
	err       error
	remaining int // runs still to claim a clone; guarded by worldCache.mu
}

type worldCache struct {
	mu      sync.Mutex
	entries map[worldKey]*worldEntry
}

func specWorldKey(spec *RunSpec) worldKey {
	return worldKey{seed: spec.Config.Seed, domains: spec.Config.Domains}
}

// newWorldCache precounts how many of the scheduled runs (specs indexes
// into plan.Specs — the whole plan, or a distributed worker's leased
// subset) share each world, so entries can be dropped (and collected)
// the moment the last sharer has cloned.
func newWorldCache(plan *Plan, specs []int) *worldCache {
	c := &worldCache{entries: make(map[worldKey]*worldEntry)}
	for _, i := range specs {
		k := specWorldKey(&plan.Specs[i])
		e := c.entries[k]
		if e == nil {
			e = &worldEntry{}
			c.entries[k] = e
		}
		e.remaining++
	}
	return c
}

// clone returns this run's private copy of the spec's world, generating
// and validating the shared original on first use. Concurrent callers
// of the same key block until the one generation completes. The clone
// shares every immutable layer and the memoized validation; only the
// DNS registry (the layer scenarios mutate) is copied.
func (c *worldCache) clone(spec *RunSpec) (*webworld.World, error) {
	c.mu.Lock()
	e := c.entries[specWorldKey(spec)]
	c.mu.Unlock()
	e.once.Do(func() {
		w, err := webworld.Generate(webworld.Config{Seed: spec.Config.Seed, Domains: spec.Config.Domains})
		if err != nil {
			// The same error string sim.New would record, so a failing
			// grid produces identical output in both execution modes.
			e.err = fmt.Errorf("sim: generating world: %w", err)
			return
		}
		w.Validation() // pay certificate-path validation once, here
		e.snap = w.Snapshot()
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.snap.Clone(), nil
}

// release drops one reference (runOne defers it to run completion);
// the last reference removes the entry so the snapshot becomes
// collectable once its runs' clones are gone too.
func (c *worldCache) release(spec *RunSpec) {
	k := specWorldKey(spec)
	c.mu.Lock()
	if e := c.entries[k]; e != nil {
		e.remaining--
		if e.remaining == 0 {
			delete(c.entries, k)
		}
	}
	c.mu.Unlock()
}
