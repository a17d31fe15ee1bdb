package obs

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// --- a minimal exposition parser, used only by tests -------------------
//
// parseExposition understands exactly what the encoder emits: # HELP
// and # TYPE lines, and samples `name[{k="v",...}] value` with the
// format's label-value escaping. The scrape-then-parse round trip below
// proves the two sides agree.

type parsedSample struct {
	name   string
	labels map[string]string
	value  float64
}

type parsedDoc struct {
	types   map[string]string // family → type
	help    map[string]string
	samples []parsedSample
}

func parseExposition(t *testing.T, text string) *parsedDoc {
	t.Helper()
	doc := &parsedDoc{types: make(map[string]string), help: make(map[string]string)}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			doc.help[name] = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := doc.types[name]; dup {
				t.Fatalf("family %s typed twice", name)
			}
			doc.types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		doc.samples = append(doc.samples, parseSampleLine(t, line))
	}
	return doc
}

func parseSampleLine(t *testing.T, line string) parsedSample {
	t.Helper()
	s := parsedSample{labels: make(map[string]string)}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("malformed sample line %q", line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if !ValidMetricName(s.name) {
		t.Fatalf("sample line %q has invalid metric name %q", line, s.name)
	}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			eq := strings.Index(rest, "=\"")
			if eq < 0 {
				t.Fatalf("malformed labels in %q", line)
			}
			name := rest[:eq]
			if !ValidLabelName(name) {
				t.Fatalf("invalid label name %q in %q", name, line)
			}
			rest = rest[eq+2:]
			var val strings.Builder
			for {
				if rest == "" {
					t.Fatalf("unterminated label value in %q", line)
				}
				switch {
				case strings.HasPrefix(rest, `\\`):
					val.WriteByte('\\')
					rest = rest[2:]
				case strings.HasPrefix(rest, `\"`):
					val.WriteByte('"')
					rest = rest[2:]
				case strings.HasPrefix(rest, `\n`):
					val.WriteByte('\n')
					rest = rest[2:]
				case strings.HasPrefix(rest, `"`):
					rest = rest[1:]
					goto closed
				default:
					val.WriteByte(rest[0])
					rest = rest[1:]
				}
			}
		closed:
			s.labels[name] = val.String()
			rest = strings.TrimPrefix(rest, ",")
		}
		rest = strings.TrimPrefix(rest, "}")
	}
	rest = strings.TrimPrefix(rest, " ")
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("bad value in %q: %v", line, err)
	}
	s.value = v
	return s
}

func (d *parsedDoc) find(t *testing.T, name string, labels map[string]string) parsedSample {
	t.Helper()
	for _, s := range d.samples {
		if s.name != name || len(s.labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.labels[k] != v {
				match = false
			}
		}
		if match {
			return s
		}
	}
	t.Fatalf("no sample %s %v", name, labels)
	return parsedSample{}
}

// --- name and label validation ----------------------------------------

func TestNameValidation(t *testing.T) {
	valid := []string{"ripki_serve_requests_total", "up", "_x", "a:b:c", "A9_"}
	for _, n := range valid {
		if !ValidMetricName(n) {
			t.Errorf("metric name %q rejected", n)
		}
	}
	invalid := []string{"", "9abc", "a-b", "a b", "a{b}", "ns/op", "héllo"}
	for _, n := range invalid {
		if ValidMetricName(n) {
			t.Errorf("metric name %q accepted", n)
		}
	}
	if !ValidLabelName("endpoint") || !ValidLabelName("_a1") {
		t.Error("legal label names rejected")
	}
	for _, n := range []string{"", "9x", "a-b", "le le", "a:b", "__reserved"} {
		if ValidLabelName(n) {
			t.Errorf("label name %q accepted", n)
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "fine")
	mustPanic(t, "duplicate name", func() { r.GaugeFunc("ok_total", "again", nil) })
	mustPanic(t, "bad metric name", func() { r.Counter("not/a/name", "") })
	mustPanic(t, "bad label name", func() { r.CounterVec("x_total", "", "bad-label") })
	mustPanic(t, "reserved label name", func() { r.HistogramVec("y", "", nil, "__name__") })
	mustPanic(t, "unsorted bounds", func() { r.Histogram("h", "", []float64{2, 1}) })
	mustPanic(t, "wrong label arity", func() {
		r.CounterVec("arity_total", "", "a", "b").With("only-one")
	})
}

func TestEncoderPanics(t *testing.T) {
	var sb strings.Builder
	e := NewEncoder(&sb)
	mustPanic(t, "sample before family", func() { e.Sample("", nil, 1) })
	e.Family("x", "", TypeGauge)
	mustPanic(t, "duplicate family", func() { e.Family("x", "", TypeGauge) })
	mustPanic(t, "bad type", func() { e.Family("y", "", "summary") })
}

// --- rendering ---------------------------------------------------------

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("weird", "label values with every escape", "path")
	hostile := "back\\slash \"quoted\"\nnewline"
	v.With(hostile).Inc()
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := `weird{path="back\\slash \"quoted\"\nnewline"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("escaped line missing:\n%s", sb.String())
	}
	// And it survives the parse side intact.
	doc := parseExposition(t, sb.String())
	if got := doc.find(t, "weird", map[string]string{"path": hostile}); got.value != 1 {
		t.Fatalf("round-tripped value %v", got.value)
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("g", "line one\nline two with \\ backslash")
	var sb strings.Builder
	r.WriteTo(&sb)
	if !strings.Contains(sb.String(), `# HELP g line one\nline two with \\ backslash`) {
		t.Fatalf("help not escaped:\n%s", sb.String())
	}
}

func TestHistogramRendering(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	var sb strings.Builder
	r.WriteTo(&sb)
	out := sb.String()
	// le is inclusive: the 0.1 observation lands in the 0.1 bucket.
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 55.65`,
		`lat_seconds_count 5`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Cumulative counts never decrease and +Inf equals _count.
	doc := parseExposition(t, out)
	var last float64 = -1
	for _, s := range doc.samples {
		if s.name != "lat_seconds_bucket" {
			continue
		}
		if s.value < last {
			t.Fatalf("bucket counts not cumulative: %v after %v", s.value, last)
		}
		last = s.value
	}
}

func TestFamiliesSortedAndChildrenStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "")
	r.GaugeFunc("aaa", "", func() float64 { return 0 })
	v := r.CounterVec("mid_total", "", "who")
	v.With("b").Inc()
	v.With("a").Inc()
	var sb strings.Builder
	r.WriteTo(&sb)
	out := sb.String()
	if !(strings.Index(out, "aaa") < strings.Index(out, "mid_total") &&
		strings.Index(out, "mid_total") < strings.Index(out, "zzz_total")) {
		t.Fatalf("families not sorted:\n%s", out)
	}
	if !(strings.Index(out, `who="a"`) < strings.Index(out, `who="b"`)) {
		t.Fatalf("children not sorted by label value:\n%s", out)
	}
	// Rendering twice yields identical bytes (no map-order leakage).
	var sb2 strings.Builder
	r.WriteTo(&sb2)
	if sb.String() != sb2.String() {
		t.Fatal("two renders of the same registry differ")
	}
}

// TestScrapeParseRoundTrip is the satellite's end-to-end check: build a
// registry with every instrument kind, scrape it through the Handler,
// parse the text back, and compare every value and type.
func TestScrapeParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	inc := func(c *Counter, n int) {
		for ; n > 0; n-- {
			c.Inc()
		}
	}
	inc(r.Counter("rt_requests_total", "requests"), 42)
	r.GaugeFunc("rt_computed", "scrape-time", func() float64 { return 2.5 })
	cv := r.CounterVec("rt_errors_total", "by endpoint", "endpoint", "code")
	inc(cv.With("validate", "400"), 3)
	inc(cv.With("domain", "404"), 7)
	h := r.Histogram("rt_duration_seconds", "latency", ExpBuckets(0.001, 10, 4))
	for _, v := range []float64{0.0005, 0.002, 0.02, 0.2, 2, 20} {
		h.Observe(v)
	}
	r.Collect(func(e *Encoder) {
		e.Family("rt_collected", "from a collector", TypeGauge)
		e.Sample("", []Label{{Name: "source", Value: "live"}}, 9)
	})

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	doc := parseExposition(t, sb.String())

	wantTypes := map[string]string{
		"rt_requests_total": "counter", "rt_computed": "gauge", "rt_errors_total": "counter",
		"rt_duration_seconds": "histogram", "rt_collected": "gauge",
	}
	for name, typ := range wantTypes {
		if doc.types[name] != typ {
			t.Errorf("family %s type %q, want %q", name, doc.types[name], typ)
		}
	}
	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"rt_requests_total", nil, 42},
		{"rt_computed", nil, 2.5},
		{"rt_errors_total", map[string]string{"endpoint": "validate", "code": "400"}, 3},
		{"rt_errors_total", map[string]string{"endpoint": "domain", "code": "404"}, 7},
		{"rt_duration_seconds_bucket", map[string]string{"le": "0.001"}, 1},
		{"rt_duration_seconds_bucket", map[string]string{"le": "0.01"}, 2},
		{"rt_duration_seconds_bucket", map[string]string{"le": "1"}, 4},
		{"rt_duration_seconds_bucket", map[string]string{"le": "+Inf"}, 6},
		{"rt_duration_seconds_count", nil, 6},
		{"rt_collected", map[string]string{"source": "live"}, 9},
	}
	for _, c := range checks {
		if got := doc.find(t, c.name, c.labels); math.Abs(got.value-c.want) > 1e-9 {
			t.Errorf("%s%v = %v, want %v", c.name, c.labels, got.value, c.want)
		}
	}
	sum := doc.find(t, "rt_duration_seconds_sum", nil)
	if math.Abs(sum.value-22.2225) > 1e-9 {
		t.Errorf("histogram sum %v", sum.value)
	}
}

func TestSpecialValues(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("inf", "", func() float64 { return math.Inf(1) })
	r.GaugeFunc("nan", "", func() float64 { return math.NaN() })
	var sb strings.Builder
	r.WriteTo(&sb)
	if !strings.Contains(sb.String(), "inf +Inf") || !strings.Contains(sb.String(), "nan NaN") {
		t.Fatalf("special values misrendered:\n%s", sb.String())
	}
}

// TestConcurrentObservation hammers one registry from many goroutines
// while scraping — the race detector is the assertion, plus exact
// totals afterwards.
func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "")
	h := r.Histogram("hammer_seconds", "", ExpBuckets(0.001, 10, 5))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.01)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		if _, err := r.WriteTo(&sb); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter %v, want 8000", c.Value())
	}
	var sb strings.Builder
	r.WriteTo(&sb)
	if !strings.Contains(sb.String(), "hammer_seconds_count 8000") {
		t.Fatalf("histogram lost observations:\n%s", sb.String())
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i])/want[i] > 1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	mustPanic(t, "bad ExpBuckets args", func() { ExpBuckets(0, 2, 3) })
}

func ExampleRegistry() {
	r := NewRegistry()
	c := r.CounterVec("requests_total", "served requests", "endpoint").With("validate")
	c.Inc()
	c.Inc()
	var sb strings.Builder
	r.WriteTo(&sb)
	fmt.Print(sb.String())
	// Output:
	// # HELP requests_total served requests
	// # TYPE requests_total counter
	// requests_total{endpoint="validate"} 2
}
