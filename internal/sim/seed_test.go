package sim

import (
	"runtime"
	"testing"

	"ripki/internal/router"
	"ripki/internal/rpki/vrp"
	"ripki/internal/webworld"
)

// seedCases are the two seeded routers a run's start asks a world for
// most: a drop-invalid relying party that has just synced, and an
// accept-all router with no RTR session.
var seedCases = []struct {
	name   string
	policy router.Policy
	synced bool
	// maxBytes and maxAllocs bound one seed on the 20 000-domain world
	// of seed 1: what one measured (3 360 B in 34 objects, and 1 280 B
	// in 11), plus about a quarter.
	maxBytes, maxAllocs uint64
}{
	{"drop-invalid-synced", router.PolicyDropInvalid, true, 4200, 42},
	{"accept-all-unsynced", router.PolicyAcceptAll, false, 1600, 14},
}

// TestSeededRouterSharesTheRIB is the seed's cost contract: the world's
// seeded router shares the world's routing table instead of copying it,
// so seeding one allocates what the routes policy rejects cost, not
// what the table holds (the replay through Process it replaced
// allocated about 2.2 MB in 13 900 objects a seed on this world).
func TestSeededRouterSharesTheRIB(t *testing.T) {
	w, err := webworld.Generate(webworld.Config{Seed: 1, Domains: 20000})
	if err != nil {
		t.Fatal(err)
	}
	w.Validation() // built once per world whatever seeds; not the seed's cost
	for _, c := range seedCases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seededRouter(w, c.policy, c.synced)
		runtime.ReadMemStats(&after)
		bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("%s: %d B, %d allocs", c.name, bytes, allocs)
		if bytes > c.maxBytes || allocs > c.maxAllocs {
			t.Errorf("%s: seeding allocated %d B in %d objects, want at most %d B and %d", c.name, bytes, allocs, c.maxBytes, c.maxAllocs)
		}
	}
}

// BenchmarkSeedRouter times one seed of TestSeededRouterSharesTheRIB's
// routers, without the world's memo.
func BenchmarkSeedRouter(b *testing.B) {
	w, err := webworld.Generate(webworld.Config{Seed: 1, Domains: 20000})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range seedCases {
		set := vrp.NewSet()
		if c.synced {
			set = w.Validation().VRPs
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				router.NewFromTable(w.RIB, router.StaticVRPs{VRPs: set}, c.policy)
			}
		})
	}
}
