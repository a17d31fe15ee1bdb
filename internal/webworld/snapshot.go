package webworld

import (
	"sync"

	"ripki/internal/rpki/repo"
)

// This file is the sharing surface of a generated world. Sweeps pay the
// world-generation tax (organisations, RPKI signing, BGP announcement,
// a million DNS records, certificate-path validation) once per seed:
// Generate the world, Snapshot it, and hand each grid cell its own
// Clone. A clone copies nothing but the World struct. Every layer is
// immutable at simulation time and simply aliased, except the DNS
// registry, the one layer scenarios mutate (they re-point delivery
// hosts): each clone gets a dns.Registry.Clone, which aliases the
// records for good and keeps what that run writes — one scenario in ten
// writes, a few hundred names — in an overlay of its own. What a run
// *derives* from the world as generated (the validated VRP set, the
// routers the sim seeds from the routing table, the probe's first
// measurement) is a pure function of it, so it is computed once and
// kept on the memo below, which every clone points at.

// memoEntry is one value derived from a generated world's immutable
// layers. World.memo maps keys to entries; every clone of the world
// points at the one map, which lives exactly as long as they do.
type memoEntry struct {
	once  sync.Once
	value any
}

// Derived returns build's result for key, computed once per generated
// world — concurrent callers of one key wait for the one build — and
// shared by every Clone, so it must be treated as read-only (hand out
// copy-on-write forks of anything a run will mutate) and must depend
// only on the world as generated: on the immutable layers, or on the DNS
// registry too — but a run may have written that, so a caller whose
// value reads the registry consults the memo only while
// w.Registry.Written() is false, and builds for itself otherwise. Keys
// follow the context.Value convention: an unexported type of the calling
// package. Worlds assembled by hand without Generate have no memo and
// build on every call.
func (w *World) Derived(key any, build func() any) any {
	if w.memo == nil {
		return build()
	}
	v, ok := w.memo.Load(key)
	if !ok {
		v, _ = w.memo.LoadOrStore(key, new(memoEntry))
	}
	e := v.(*memoEntry)
	e.once.Do(func() { e.value = build() })
	return e.value
}

type validationKey struct{}

// Validation returns the repository validated at MeasureTime, computed
// once per generated world and shared by every Clone (see Derived). The
// result (and its VRP set) must be treated as read-only.
func (w *World) Validation() *repo.ValidationResult {
	return w.Derived(validationKey{}, func() any {
		return w.Repo.Validate(w.MeasureTime())
	}).(*repo.ValidationResult)
}

// Snapshot is an immutable captured world: a template every simulation
// sharing the seed clones from. The snapshot itself must never be
// handed to a scenario — call Clone (concurrency-safe) per run.
type Snapshot struct {
	base *World
}

// Snapshot captures the world as an immutable template. The receiver
// must not be mutated afterwards (run scenarios against Clones, not
// against w itself).
func (w *World) Snapshot() *Snapshot {
	return &Snapshot{base: w}
}

// Clone returns a world that is safe to hand to one simulation, in
// O(1): it shares every immutable layer (ranked list, RIB, RPKI
// repository, organisations, the memo of derived values) with the
// snapshot and takes a clone of the DNS registry, the one layer
// scenarios mutate, whose writes land in an overlay of its own. The
// ranked list's name strings are views into the per-shard generation
// slabs (internal/strtab), shared by every clone — interning survives
// cloning for free because strings are immutable. Clone is safe to call
// concurrently.
func (s *Snapshot) Clone() *World {
	w := *s.base
	w.Registry = s.base.Registry.Clone()
	return &w
}
