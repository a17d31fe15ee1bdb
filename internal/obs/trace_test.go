package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sampleTrace() *Trace {
	tr := NewTrace()
	tr.Instant(0, "roa", "announce 10.0.0.0/8")
	tr.Span(2*time.Second, 3*time.Second, "bgp", "hijack h1")
	tr.Counter(5*time.Second, "validity", map[string]float64{"valid": 0.92, "invalid": 0.08})
	tr.Instant(5*time.Second, "roa", "revoke 10.0.0.0/8")
	return tr
}

func TestTraceJSONLByteStable(t *testing.T) {
	var a, b strings.Builder
	if err := sampleTrace().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := sampleTrace().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two identical traces exported different bytes:\n%s\n---\n%s", a.String(), b.String())
	}
	want := `{"t_us":2000000,"ph":"X","cat":"bgp","name":"hijack h1","dur_us":3000000}`
	if !strings.Contains(a.String(), want+"\n") {
		t.Fatalf("span line missing or misshaped; want %s in:\n%s", want, a.String())
	}
	// Counter args serialise with sorted keys — determinism does not
	// depend on map iteration order.
	wantCounter := `"args":{"invalid":0.08,"valid":0.92}`
	if !strings.Contains(a.String(), wantCounter) {
		t.Fatalf("counter args not key-sorted:\n%s", a.String())
	}
	if got := strings.Count(a.String(), "\n"); got != 4 {
		t.Fatalf("want 4 lines, got %d", got)
	}
}

func TestTraceChromeFormat(t *testing.T) {
	var sb strings.Builder
	if err := sampleTrace().WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, sb.String())
	}
	// 4 events + one thread_name metadata record per distinct category
	// (roa, bgp, counter).
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("want 7 records, got %d:\n%s", len(doc.TraceEvents), sb.String())
	}
	lanes := map[string]float64{} // category → tid from metadata
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" {
			args := ev["args"].(map[string]any)
			lanes[args["name"].(string)] = ev["tid"].(float64)
		}
	}
	if len(lanes) != 3 {
		t.Fatalf("want 3 lanes, got %v", lanes)
	}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			continue
		case "X":
			if ev["dur"].(float64) != 3000000 {
				t.Errorf("span dur %v", ev["dur"])
			}
		case "i":
			if ev["s"] != "t" {
				t.Errorf("instant missing thread scope: %v", ev)
			}
		}
		cat := ev["cat"].(string)
		if ev["tid"].(float64) != lanes[cat] {
			t.Errorf("event in cat %s on tid %v, lane says %v", cat, ev["tid"], lanes[cat])
		}
	}
	// Byte-stable too: lanes assign in first-appearance order, not map
	// order.
	var sb2 strings.Builder
	sampleTrace().WriteChrome(&sb2)
	if sb.String() != sb2.String() {
		t.Fatal("chrome export not byte-stable")
	}
}

func TestTraceWriteFormat(t *testing.T) {
	tr := sampleTrace()
	var sb strings.Builder
	if err := tr.WriteFormat(&sb, "jsonl"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "{\"t_us\":") {
		t.Fatalf("jsonl dispatch wrong:\n%s", sb.String())
	}
	sb.Reset()
	if err := tr.WriteFormat(&sb, "chrome"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), `{"traceEvents":[`) {
		t.Fatalf("chrome dispatch wrong:\n%s", sb.String())
	}
	if err := tr.WriteFormat(&sb, "svg"); err == nil {
		t.Fatal("unknown format accepted")
	}
	if tr.Len() != 4 || len(tr.events) != 4 {
		t.Fatalf("Len/events disagree: %d/%d", tr.Len(), len(tr.events))
	}
}

func TestPprofEndpoints(t *testing.T) {
	ln, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The handler set is mounted; a full HTTP round trip is exercised in
	// the daemons' own tests. Here just prove the listener is live.
	if ln.Addr().String() == "" {
		t.Fatal("no address")
	}
}
