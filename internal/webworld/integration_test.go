package webworld

import (
	"bytes"
	"testing"

	"ripki/internal/netutil"
	"ripki/internal/rib"
)

// TestMRTRoundTripOfWorld snapshots the generated RIB to MRT bytes and
// reloads it — the exact path a real study takes when ingesting RIS
// dumps.
func TestMRTRoundTripOfWorld(t *testing.T) {
	w := smallWorld(t)
	var buf bytes.Buffer
	if err := w.RIB.DumpMRT(&buf, netutil.MustAddr("193.0.4.28"), "rrc00", w.Cfg.Clock); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty MRT dump")
	}
	got, err := rib.LoadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != w.RIB.Len() || got.Routes() != w.RIB.Routes() {
		t.Fatalf("reloaded table: %d/%d prefixes, %d/%d routes",
			got.Len(), w.RIB.Len(), got.Routes(), w.RIB.Routes())
	}
	// Spot-check origin extraction equivalence after the round trip.
	probe := w.Orgs[20].Prefixes[0]
	a := hostAddr(probe, 99)
	want := w.RIB.OriginPairs(a)
	have := got.OriginPairs(a)
	if len(want) != len(have) {
		t.Fatalf("OriginPairs differ after reload: %v vs %v", want, have)
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("OriginPairs[%d]: %v vs %v", i, want[i], have[i])
		}
	}
}
