package sim

import (
	"bytes"
	"strings"
	"testing"

	"ripki/internal/obs"
)

// traceRun runs one scenario with a trace attached and returns the
// JSONL export.
func traceRun(t *testing.T, cfg Config) []byte {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	s.AttachTrace(tr)
	if _, err := s.Run(); err != nil {
		s.Close()
		t.Fatal(err)
	}
	s.Close() // completes the trace (open hijack spans)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterminism is the tracing contract: same seed + flags ⇒
// byte-identical JSONL export. CI diffs the CLI equivalent.
func TestTraceDeterminism(t *testing.T) {
	a := traceRun(t, testConfig("hijack-window"))
	b := traceRun(t, testConfig("hijack-window"))
	if !bytes.Equal(a, b) {
		t.Fatalf("two same-seed traces differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("trace is empty")
	}
}

// TestTraceContent checks the trace carries every layer of the story:
// topic instants, probe counter tracks, and a hijack span bounded by the
// announce and withdraw instants.
func TestTraceContent(t *testing.T) {
	out := string(traceRun(t, testConfig("hijack-window")))
	for _, want := range []string{
		`"ph":"i","cat":"roa"`,    // ROA issue/revoke instants
		`"ph":"i","cat":"bgp"`,    // route announcements
		`"ph":"i","cat":"rtr"`,    // cache flushes
		`"ph":"i","cat":"rp"`,     // relying-party refreshes
		`"ph":"i","cat":"sample"`, // probe rows
		`"ph":"C","cat":"counter","name":"validity"`,
		`"ph":"C","cat":"counter","name":"hijacks"`,
		`"ph":"X","cat":"hijack"`, // the attack as a span
		`"valid":`,                // counter args carry the sample numbers
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}
	// hijack-window's single attack is withdrawn mid-run, so its span has
	// a positive duration.
	if !strings.Contains(out, `"dur_us":`) {
		t.Error("hijack span has no duration")
	}
}

// TestTraceSpansOpenHijacks: a hijack never withdrawn must still span to
// the end of the run once the simulation closes.
func TestTraceSpansOpenHijacks(t *testing.T) {
	cfg := testConfig("hijack-window")
	// never-ending hijack: schedule the withdrawal past the horizon
	cfg.Params = Params{"end_frac": "2.0"}
	out := string(traceRun(t, cfg))
	if !strings.Contains(out, `"ph":"X","cat":"hijack"`) {
		t.Fatalf("no span for the still-active hijack:\n%s", out)
	}
}

// TestSampleDataPayload: TopicSample events expose the probe numbers as
// a typed payload.
func TestSampleDataPayload(t *testing.T) {
	s, err := New(testConfig("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var samples []SampleData
	s.Bus.SubscribeAll(func(e Event) {
		if e.Topic != TopicSample {
			return
		}
		sd, ok := e.Data.(SampleData)
		if !ok {
			t.Errorf("sample event carries %T, want SampleData", e.Data)
			return
		}
		samples = append(samples, sd)
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	last := samples[len(samples)-1]
	if last.VRPs <= 0 || last.Valid <= 0 {
		t.Errorf("implausible sample payload: %+v", last)
	}
}
