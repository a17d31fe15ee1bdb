package webworld

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"ripki/internal/dns"
)

// generateAt generates cfg with GOMAXPROCS, and so the shard count, set
// to shards.
func generateAt(t *testing.T, shards int, cfg Config) *World {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(shards))
	w, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate at GOMAXPROCS %d: %v", shards, err)
	}
	return w
}

// TestShardCountInvariance is the determinism contract of sharded
// generation: the world is byte-identical at every GOMAXPROCS, because
// per-domain draws come from (Seed, rank)-derived streams. It compares
// the full name list, every DNS record of every owner name, the RIB,
// and the generation stats across shard counts straddling the range a
// CI runner would have.
func TestShardCountInvariance(t *testing.T) {
	cfg := Config{Seed: 11, Domains: 3000}
	base := generateAt(t, 1, cfg)
	baseNames := base.Registry.Names()
	types := []uint16{dns.TypeA, dns.TypeAAAA, dns.TypeCNAME, dns.TypeNS, dns.TypeDNSKEY, dns.TypeTXT}

	for _, shards := range []int{3, 7} {
		w := generateAt(t, shards, cfg)
		if got, want := w.List.Len(), base.List.Len(); got != want {
			t.Fatalf("shards=%d: %d domains, want %d", shards, got, want)
		}
		for i, e := range w.List.Entries() {
			if be := base.List.Entries()[i]; e != be {
				t.Fatalf("shards=%d: entry %d = %+v, want %+v", shards, i, e, be)
			}
		}
		if w.Stats != base.Stats {
			t.Fatalf("shards=%d: stats %+v, want %+v", shards, w.Stats, base.Stats)
		}
		if got, want := w.RIB.Len(), base.RIB.Len(); got != want {
			t.Fatalf("shards=%d: RIB %d routes, want %d", shards, got, want)
		}
		if got := w.Registry.Names(); !reflect.DeepEqual(got, baseNames) {
			t.Fatalf("shards=%d: registry owner names differ (%d vs %d)", shards, len(got), len(baseNames))
		}
		for _, name := range baseNames {
			for _, typ := range types {
				got, want := w.Registry.Lookup(name, typ), base.Registry.Lookup(name, typ)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d: records at %q type %d differ:\n got %+v\nwant %+v",
						shards, name, typ, got, want)
				}
			}
		}
	}
}

// heapAlloc is the live heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestGeneratedRecordsStayWhereBuilt: what the registry of a generated
// world keeps live is the records that were written — the shards'
// chunks, adopted — and its map: no second copy, and no chunk much
// larger than what went into it. Per record that is the record itself
// and a quarter more for what records point at (a "www." name a domain,
// a DNSKEY now and then) and for the tails of chunks; a builder buffer
// sized for 3.5 records a domain when 2.3 are written costs half as much
// again and fails this, at one shard and at seven.
func TestGeneratedRecordsStayWhereBuilt(t *testing.T) {
	const domains = 50000
	before := heapAlloc()
	sized := dns.NewRegistrySized(domains*9/4 + 4096) // as Generate sizes it
	mapBytes := heapAlloc() - before
	runtime.KeepAlive(sized)
	for _, shards := range []int{1, 7} {
		w := generateAt(t, shards, Config{Seed: 5, Domains: domains})
		var dump bytes.Buffer
		if err := w.Registry.WriteZoneTSV(&dump); err != nil {
			t.Fatal(err)
		}
		records := uint64(bytes.Count(dump.Bytes(), []byte{'\n'}))
		dump = bytes.Buffer{}
		with := heapAlloc()
		w.Registry = nil
		registry := with - heapAlloc()
		runtime.KeepAlive(w)
		bound := records*uint64(unsafe.Sizeof(dns.RR{}))*5/4 + mapBytes
		t.Logf("shards %d: %d records, registry %d bytes live (%d a record beside a %d-byte map), bound %d",
			shards, records, registry, (registry-mapBytes)/records, mapBytes, bound)
		if records < 2*domains {
			t.Fatalf("shards %d: %d records for %d domains", shards, records, domains)
		}
		if registry > bound {
			t.Errorf("shards %d: the registry keeps %d bytes live for %d records, want at most %d", shards, registry, records, bound)
		}
	}
}

// TestGenerateNamesItsPhases: a generated world says where its
// generation's wall clock went — four phases, in order, that add up to
// no more than the call took — and a clone of it says the same.
func TestGenerateNamesItsPhases(t *testing.T) {
	began := time.Now()
	w, err := Generate(Config{Seed: 1, Domains: 2000})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(began)
	var names []string
	var sum time.Duration
	for _, p := range w.Snapshot().Clone().Phases {
		names, sum = append(names, p.Name), sum+p.D
		if p.D <= 0 {
			t.Errorf("phase %s took %v", p.Name, p.D)
		}
	}
	if want := []string{"orgs+roas", "announce", "domains", "registry"}; !reflect.DeepEqual(names, want) {
		t.Errorf("phases %v, want %v", names, want)
	}
	if sum > wall || sum < wall/2 {
		t.Errorf("phases add up to %v of a %v Generate", sum, wall)
	}
}

// TestShardsIsNotPartOfIdentity: a world is its Config, and Config is
// exactly {Seed, Domains} — the key sweep's shared-world cache uses. The
// shard count is GOMAXPROCS, read at generation time, so a field added
// here (a parallelism knob, a calibration override) would split worlds
// the cache treats as one.
func TestShardsIsNotPartOfIdentity(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	var fields []string
	for i := 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	if want := []string{"Seed", "Domains"}; !reflect.DeepEqual(fields, want) {
		t.Fatalf("Config has fields %v, want %v", fields, want)
	}
	cfg := Config{Seed: 1, Domains: 100}
	if a, b := generateAt(t, 1, cfg), generateAt(t, 3, cfg); a.Cfg != b.Cfg || a.Cfg != cfg {
		t.Fatalf("Cfg at 1 and 3 shards: %+v, %+v; want %+v", a.Cfg, b.Cfg, cfg)
	}
}

// BenchmarkWorldgen gates generation throughput: one op generates a
// 50k-domain world and reports domains/sec alongside the allocation
// profile the baseline locks in.
func BenchmarkWorldgen(b *testing.B) {
	const domains = 50000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := Generate(Config{Seed: 1, Domains: domains})
		if err != nil {
			b.Fatal(err)
		}
		if w.List.Len() != domains {
			b.Fatalf("short list: %d", w.List.Len())
		}
	}
	b.ReportMetric(float64(domains)*float64(b.N)/b.Elapsed().Seconds(), "domains/s")
}
