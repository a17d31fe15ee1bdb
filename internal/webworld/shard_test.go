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
// world keeps live is its column store — one name table with its index,
// a record range per name and 9-byte rows — and nothing per name or per
// record beside it: at 50 000 domains it holds at most 48 bytes a record,
// at one shard and at seven. A per-name map, a string or a 72-byte RR
// kept per record, or a table sized far past what it holds, fails this;
// the map of RRs it replaced measured 194–196. The ranked list keeps no
// name of its own: each is the registry's string.
func TestGeneratedRecordsStayWhereBuilt(t *testing.T) {
	const domains = 50000
	const perRecord = 48 // 38.8 measured (seed 5), and about a quarter
	for _, shards := range []int{1, 7} {
		w := generateAt(t, shards, Config{Seed: 5, Domains: domains})
		var dump bytes.Buffer
		if err := w.Registry.WriteZoneTSV(&dump); err != nil {
			t.Fatal(err)
		}
		records := uint64(bytes.Count(dump.Bytes(), []byte{'\n'}))
		dump = bytes.Buffer{}
		// The ranked list's names are the registry's: drop the list
		// first, and the registry with them.
		for _, e := range w.List.Entries() {
			if own, ok := w.Registry.Interned(e.Domain); !ok || unsafe.StringData(own) != unsafe.StringData(e.Domain) {
				t.Fatalf("shards %d: rank %d's name %q is not the registry's own string", shards, e.Rank, e.Domain)
			}
		}
		w.List = nil
		with := heapAlloc()
		w.Registry = nil
		registry := with - heapAlloc()
		runtime.KeepAlive(w)
		t.Logf("shards %d: %d records, registry %d bytes live, %.1f a record", shards, records, registry, float64(registry)/float64(records))
		if records < 2*domains {
			t.Fatalf("shards %d: %d records for %d domains", shards, records, domains)
		}
		if registry > records*perRecord {
			t.Errorf("shards %d: the registry keeps %d bytes live for %d records (%.1f a record), want at most %d a record",
				shards, registry, records, float64(registry)/float64(records), perRecord)
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
