package obs

import (
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated with CAS — instruments stay lock-free
// so observing on a hot path never contends with a scrape.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(d float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

func (a *atomicFloat) Load() float64 { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically increasing count of events.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return float64(c.n.Load()) }

// Histogram is a bounded-bucket distribution: observations land in the
// first bucket whose upper bound is ≥ the value, or in the implicit
// +Inf bucket past the last bound. Buckets, sum and count are atomics;
// a scrape may observe a count briefly ahead of a concurrent
// observation's bucket, which Prometheus tolerates by design.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// snapshot renders the cumulative bucket counts the exposition needs.
func (h *Histogram) snapshot() (cumulative []uint64, sum float64, count uint64) {
	cumulative = make([]uint64, len(h.bounds))
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		cumulative[i] = cum
	}
	return cumulative, h.sum.Load(), h.count.Load()
}

// ExpBuckets returns n upper bounds growing geometrically from start by
// factor — the standard way to cover several orders of magnitude with a
// bounded bucket count.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Collector renders scrape-time samples straight into the exposition —
// the bridge for subsystems that already keep their own lock-free
// accumulators and for gauges computed from live state.
type Collector func(e *Encoder)

// Registry holds a fixed instrument vocabulary and renders it as one
// Prometheus text-format document: static families sorted by name, then
// every Collector in registration order. Instrument registration
// panics on invalid or duplicate names (typos surface in the first test
// that scrapes); observation and rendering are safe from any goroutine.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []Collector
}

// family is one registered metric family and its children by label
// values.
type family struct {
	name, help, typ string
	labelNames      []string
	bounds          []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
	fn       func() float64 // GaugeFunc families
}

type child struct {
	labels    []Label
	counter   *Counter
	histogram *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ string, labelNames []string, bounds []float64) *family {
	if !ValidMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, ln := range labelNames {
		if !ValidLabelName(ln) {
			panic("obs: invalid label name " + strconv.Quote(ln) + " on " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("obs: metric " + name + " registered twice")
	}
	f := &family{
		name: name, help: help, typ: typ,
		labelNames: labelNames, bounds: bounds,
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// childFor returns (creating if needed) the child with the given label
// values. The key joins escaped values, so distinct value tuples can
// never collide.
func (f *family) childFor(values []string) *child {
	if len(values) != len(f.labelNames) {
		panic("obs: metric " + f.name + " wants " + strconv.Itoa(len(f.labelNames)) + " label values")
	}
	var key strings.Builder
	for _, v := range values {
		key.WriteString(labelValueEscaper.Replace(v))
		key.WriteByte(0xff)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key.String()]
	if !ok {
		labels := make([]Label, len(values))
		for i, v := range values {
			labels[i] = Label{Name: f.labelNames[i], Value: v}
		}
		c = &child{labels: labels}
		switch f.typ {
		case TypeCounter:
			c.counter = &Counter{}
		case TypeHistogram:
			c.histogram = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
		}
		f.children[key.String()] = c
	}
	return c
}

// Counter registers a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, TypeCounter, nil, nil).childFor(nil).counter
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, TypeGauge, nil, nil).fn = fn
}

// Histogram registers a label-less histogram with the given upper
// bounds (ascending; the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram " + name + " bounds not ascending")
	}
	return r.register(name, help, TypeHistogram, nil, append([]float64(nil), bounds...)).childFor(nil).histogram
}

// CounterVec registers a counter family with the given label names.
type CounterVec struct{ f *family }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(name, help, TypeCounter, labelNames, nil)}
}

// With returns the counter for one label-value tuple, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.childFor(values).counter }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram " + name + " bounds not ascending")
	}
	return &HistogramVec{r.register(name, help, TypeHistogram, labelNames, append([]float64(nil), bounds...))}
}

// With returns the histogram for one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.childFor(values).histogram }

// Collect appends a scrape-time collector, rendered after the static
// families in registration order. A collector must not emit a family
// name already registered statically (the encoder panics on the
// duplicate).
func (r *Registry) Collect(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// WriteTo renders the exposition document.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	e := NewEncoder(cw)

	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	for _, f := range fams {
		f.write(e)
	}
	for _, c := range collectors {
		c(e)
	}
	return cw.n, e.Err()
}

// write renders one family: header, then children sorted by label
// values so output is byte-stable regardless of observation order.
func (f *family) write(e *Encoder) {
	e.Family(f.name, f.help, f.typ)
	if f.fn != nil {
		e.Sample("", nil, f.fn())
		return
	}
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]*child, len(keys))
	for i, k := range keys {
		kids[i] = f.children[k]
	}
	f.mu.Unlock()
	for _, c := range kids {
		switch f.typ {
		case TypeCounter:
			e.Sample("", c.labels, c.counter.Value())
		case TypeHistogram:
			cum, sum, count := c.histogram.snapshot()
			e.HistogramSample(c.labels, f.bounds, cum, sum, count)
		}
	}
}

// Handler serves the registry as a scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
