package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"ripki/internal/netutil"
	"ripki/internal/rpki/vrp"
	"ripki/internal/rtr"
)

// TestLockFreeReadsDuringRTRSwaps is the acceptance test for the
// lock-free read path: readers hammer POST /v1/validate while an RTR
// cache churns through generations and the service's RTR session folds
// each one into a new snapshot. Every generation g publishes a
// mutually-consistent triple:
//
//   - a marker VRP 198.51.100.0/24 → AS(50000+g), whose covering list
//     reveals g to any reader,
//   - a subject VRP for 10.0.0.0/24 whose origin flips with the parity
//     of g, so the subject route validates "valid" exactly when g is
//     even,
//
// A batch request touches both routes; because a handler answers
// entirely from one atomic snapshot, the marker's g and the subject's
// state must always agree — any torn read (subject from one snapshot,
// marker or serial from another) fails the parity check. Run under
// -race this also proves the handlers synchronise with writers through
// the atomic pointer alone.
//
// A snapshot's index is a freeze of the RTR session's live set, sharing
// its radix nodes and per-prefix slices, and the session goes on
// applying deltas to that set. So holders also keep every snapshot they
// see and keep re-reading all of them: generation g's snapshot must list
// exactly generation g's VRPs, and give g's verdict, for as long as
// anyone holds it. Every generation carries a fixed ballast of nested
// prefixes (so writes descend through shared nodes) and a rolling group
// of VRPs at one prefix (so the slice there is rebuilt every time).
func TestLockFreeReadsDuringRTRSwaps(t *testing.T) {
	// On a single-core box the sleeping writer shares the CPU with the
	// looping readers, so each generation costs a scheduler quantum;
	// keep the counts modest so -race runs stay bounded everywhere.
	const (
		generations = 60
		readers     = 4
		holders     = 2
		markerBase  = 50000
	)
	subjectPrefix := netutil.MustPrefix("10.0.0.0/24")
	markerPrefix := netutil.MustPrefix("198.51.100.0/24")
	rollingPrefix := netutil.MustPrefix("10.0.0.0/16")

	genSet := func(g int) *vrp.Set {
		origin := uint32(65001) // valid for the probed route
		if g%2 == 1 {
			origin = 65002 // invalid: covered, origin mismatch
		}
		vs := []vrp.VRP{
			{Prefix: subjectPrefix, MaxLength: 24, ASN: origin},
			{Prefix: markerPrefix, MaxLength: 24, ASN: uint32(markerBase + g)},
		}
		for i := 0; i < 48; i++ {
			bits := 12 + i%3*4 // /12, /16, /20: nested under one another
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i * 5), byte(i * 16), 0}), bits).Masked()
			vs = append(vs, vrp.VRP{Prefix: p, MaxLength: bits + i%4, ASN: 64000})
		}
		for k := 0; k < 3; k++ {
			vs = append(vs, vrp.VRP{Prefix: rollingPrefix, MaxLength: 16 + (g+k)%8, ASN: 64001})
		}
		set, err := vrp.FromVRPs(vs)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	// What generation g's snapshot must hold, by source serial, and how
	// many of those cover the subject route.
	wantAll := make([][]vrp.VRP, generations+1)
	wantCovering := make([]int, generations+1)
	for g := range wantAll {
		set := genSet(g)
		wantAll[g] = set.All()
		_, covering := set.ValidateExplain(subjectPrefix, 65001)
		wantCovering[g] = len(covering)
	}

	// RTR cache over loopback TCP, seeded at generation 0. Each
	// server.Update changes the set, so server serial == generation.
	srv := rtr.NewServer(genSet(0), 7)
	srv.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	s := New(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rtrDone := make(chan error, 1)
	go func() { rtrDone <- s.RunRTR(ctx, ln.Addr().String()) }()

	// Wait for the first snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for s.Current() == nil {
		if time.Now().After(deadline) {
			t.Fatal("no snapshot after 5s")
		}
		time.Sleep(time.Millisecond)
	}

	h := s.Handler()
	body := `{"routes": [
		{"prefix": "10.0.0.0/24", "asn": 65001},
		{"prefix": "198.51.100.0/24", "asn": 1}
	]}`

	var wg sync.WaitGroup
	writerDone := make(chan struct{})
	errs := make(chan string, readers+holders)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSerial uint64
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				req := httptest.NewRequest("POST", "/v1/validate", strings.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- "status " + rec.Result().Status
					return
				}
				var resp struct {
					Serial  uint64 `json:"serial"`
					Results []struct {
						State    string `json:"state"`
						Covering []struct {
							ASN uint32 `json:"asn"`
						} `json:"covering"`
					} `json:"results"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errs <- "bad body: " + err.Error()
					return
				}
				if len(resp.Results) != 2 || len(resp.Results[1].Covering) != 1 {
					errs <- "malformed results"
					return
				}
				g := int(resp.Results[1].Covering[0].ASN) - markerBase
				wantState := "valid"
				if g%2 == 1 {
					wantState = "invalid"
				}
				if got := resp.Results[0].State; got != wantState {
					errs <- "torn read: generation " + resp.Results[1].State + " says g is mixed"
					return
				}
				// Serials never move backwards for a sequential client.
				if resp.Serial < lastSerial {
					errs <- "serial went backwards"
					return
				}
				lastSerial = resp.Serial
			}
		}()
	}

	// Holders keep every snapshot they have seen and re-read all of them
	// while the session writes on.
	checkHeld := func(sn *Snapshot) string {
		g := int(sn.SourceSerial)
		if g >= len(wantAll) {
			return fmt.Sprintf("snapshot %d names generation %d, which was never served", sn.Serial, g)
		}
		if !indexHolds(sn.Index, wantAll[g]) {
			return fmt.Sprintf("held snapshot %d (generation %d) does not hold generation %d's %v", sn.Serial, g, g, wantAll[g])
		}
		wantState := "valid"
		if g%2 == 1 {
			wantState = "invalid"
		}
		if rr := sn.ValidateRoute(subjectPrefix, 65001); rr.State != wantState || len(rr.Covering) != wantCovering[g] {
			return fmt.Sprintf("held snapshot %d (generation %d) answers %+v", sn.Serial, g, rr)
		}
		return ""
	}
	held := make([][]*Snapshot, holders)
	for r := 0; r < holders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				if sn := s.Current(); len(held[r]) == 0 || held[r][len(held[r])-1] != sn {
					held[r] = append(held[r], sn)
				}
				for _, sn := range held[r] {
					if msg := checkHeld(sn); msg != "" {
						errs <- msg
						return
					}
				}
			}
		}(r)
	}

	// The writer churns the cache through every generation while the
	// readers run.
	for g := 1; g <= generations; g++ {
		srv.Update(genSet(g))
		time.Sleep(500 * time.Microsecond)
	}
	// Give the RTR session a moment to drain the last notifies, then
	// stop the readers.
	time.Sleep(50 * time.Millisecond)
	close(writerDone)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	cancel()
	if err := <-rtrDone; err != nil {
		t.Fatalf("RTR source: %v", err)
	}

	// With the session over, everything held still reads as it did, and
	// the holders really did keep superseded snapshots.
	for r := range held {
		if len(held[r]) < 2 {
			t.Errorf("holder %d kept %d snapshots; expected to outlive some", r, len(held[r]))
		}
		for _, sn := range held[r] {
			if msg := checkHeld(sn); msg != "" {
				t.Fatal(msg)
			}
		}
	}

	// The session really did drive snapshot swaps.
	sn := s.Current()
	if sn == nil || sn.Serial < 2 {
		t.Fatalf("expected many published snapshots, got %+v", sn)
	}
	if sn.Source != "rtr" {
		t.Fatalf("source = %q, want rtr", sn.Source)
	}
}
