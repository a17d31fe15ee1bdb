package stats

import (
	"math"
	"sort"
)

// StreamingSummary is the online counterpart of Summarize: it folds an
// unbounded stream of observations into the same count/min/max/mean/
// p50/p95 shape in O(1) memory per metric. Sweeps in streaming mode
// keep one StreamingSummary per (tick, metric) of each cell in flight
// instead of every completed run's value — the smaller of the two once
// a cell has more replicates than the exact-phase buffers below hold.
//
// Exactness contract (property-tested against Summarize):
//
//   - Count, Min and Max are exact.
//   - Mean is Welford's incremental mean: exact up to floating-point
//     association (differences vs the batch mean are at the last-ulp
//     level, far below any rendered precision).
//   - P50, P95 and P99 are exact while the stream holds ≤ 25 finite
//     values (p2BufferSize; the estimator stores and sorts them) —
//     sweeps with up to 25 replicates per cell stream with *exact*
//     percentiles. Beyond that they are P² estimates (Jain & Chlamtac
//     1985) whose markers were seeded from the 25-sample quantiles;
//     the documented bound, property-tested against Summarize across
//     uniform, Gaussian and exponential streams, is
//     |estimate − exact| ≤ 0.15 × (max − min) for p50,
//     ≤ 0.20 × (max − min) for p95, and ≤ 0.25 × (max − min) for p99
//     (the deeper the tail, the fewer observations inform it).
//   - NaN observations are skipped, mirroring Summarize.
//
// The fold is deterministic: the same observation sequence produces the
// same Summary. Order matters to the P² estimates, so callers that need
// reproducible output across schedulers (the sweep pool) must feed
// values in a canonical order — the sweep feeds replicate order.
type StreamingSummary struct {
	count int
	min   float64
	max   float64
	mean  float64
	p50   p2Quantile
	p95   p2Quantile
	p99   p2Quantile
}

// NewStreamingSummary returns an empty accumulator tracking the p50,
// p95 and p99 Summarize reports.
func NewStreamingSummary() *StreamingSummary {
	return &StreamingSummary{
		p50: p2Quantile{p: 0.50},
		p95: p2Quantile{p: 0.95},
		// The deeper the tail, the more exact-phase samples the P²
		// markers need for a usable seed: a 25-sample buffer cannot
		// place a p99 marker at all (0.99 × 24 rounds to the max), so
		// p99 stays exact to 100 observations before estimating.
		p99: p2Quantile{p: 0.99, size: 4 * p2BufferSize},
	}
}

// Add folds one observation. NaN values are skipped.
func (s *StreamingSummary) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.count++
	if s.count == 1 {
		s.min, s.max = v, v
		s.mean = v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
		// Welford's update: numerically stable incremental mean.
		s.mean += (v - s.mean) / float64(s.count)
	}
	s.p50.add(v)
	s.p95.add(v)
	s.p99.add(v)
}

// Summary renders the accumulator in Summarize's shape. With no finite
// observations every statistic is NaN and Count is zero, exactly like
// Summarize of an all-NaN sample.
func (s *StreamingSummary) Summary() Summary {
	if s.count == 0 {
		return Summary{Min: math.NaN(), Max: math.NaN(), Mean: math.NaN(), P50: math.NaN(), P95: math.NaN(), P99: math.NaN()}
	}
	return Summary{
		Count: s.count,
		Min:   s.min,
		Max:   s.max,
		Mean:  s.mean,
		P50:   s.p50.estimate(),
		P95:   s.p95.estimate(),
		P99:   s.p99.estimate(),
	}
}

// p2BufferSize is the exact-phase capacity of p2Quantile: the first
// p2BufferSize observations are stored and their percentile computed
// exactly; the P² markers take over from the buffered sample beyond
// that. 25 keeps typical sweep cells (replicates ≤ 25) exact while
// bounding the accumulator at a few hundred bytes per metric.
const p2BufferSize = 25

// p2Quantile is a bounded-memory single-quantile estimator: an exact
// buffer for the first cap() observations, then the P²
// (piecewise-parabolic) algorithm of Jain & Chlamtac — five markers
// whose heights track the minimum, the quantile's neighbourhood, and
// the maximum, adjusted towards ideal positions with parabolic
// interpolation after every observation. Initialising the markers from
// the full buffer (at their ideal positions in the sorted sample)
// rather than from the classic first five observations sharpens the
// tail quantiles considerably. O(1) space, ~cap() stored floats.
type p2Quantile struct {
	p float64 // target quantile in (0, 1)
	// size overrides the exact-phase capacity (0 means p2BufferSize);
	// deep tail quantiles need a larger seed sample.
	size int
	n    int       // observations seen
	buf  []float64 // exact phase: first cap() observations
	q    [5]float64
	pos  [5]float64 // actual marker positions (1-based)
	want [5]float64 // desired marker positions
}

// cap returns the exact-phase capacity.
func (e *p2Quantile) cap() int {
	if e.size > 0 {
		return e.size
	}
	return p2BufferSize
}

// add folds one observation into the estimator.
func (e *p2Quantile) add(v float64) {
	if e.n < e.cap() {
		e.buf = append(e.buf, v)
		e.n++
		return
	}
	if e.n == e.cap() {
		e.initMarkers()
	}

	// P² phase: find the cell the observation falls into, updating
	// extremes.
	var k int
	switch {
	case v < e.q[0]:
		e.q[0] = v
		k = 0
	case v >= e.q[4]:
		e.q[4] = v
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if v < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	e.n++
	// Desired positions advance by the quantile's increment per
	// observation.
	e.want[1] += e.p / 2
	e.want[2] += e.p
	e.want[3] += (1 + e.p) / 2
	e.want[4]++

	// Adjust the three interior markers towards their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			h := e.parabolic(i, sign)
			if e.q[i-1] < h && h < e.q[i+1] {
				e.q[i] = h
			} else {
				e.q[i] = e.linear(i, sign)
			}
			e.pos[i] += sign
		}
	}
}

// initMarkers seeds the five P² markers from the full exact-phase
// buffer: heights are the sorted sample's values at (approximately) the
// markers' ideal positions. The buffer is released afterwards.
func (e *p2Quantile) initMarkers() {
	sort.Float64s(e.buf)
	b := float64(len(e.buf))
	e.want[0] = 1
	e.want[1] = (b-1)*e.p/2 + 1
	e.want[2] = (b-1)*e.p + 1
	e.want[3] = (b-1)*(1+e.p)/2 + 1
	e.want[4] = b
	e.pos[0] = 1
	e.pos[4] = b
	for i := 1; i <= 3; i++ {
		e.pos[i] = math.Round(e.want[i])
	}
	// Positions must be strictly increasing integers in [1, b].
	for i := 1; i <= 3; i++ {
		if e.pos[i] <= e.pos[i-1] {
			e.pos[i] = e.pos[i-1] + 1
		}
	}
	for i := 3; i >= 1; i-- {
		if e.pos[i] >= e.pos[i+1] {
			e.pos[i] = e.pos[i+1] - 1
		}
	}
	for i := range e.q {
		e.q[i] = e.buf[int(e.pos[i])-1]
	}
	e.buf = nil
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i by d (±1).
func (e *p2Quantile) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+d)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-d)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback height prediction when the parabola overshoots
// a neighbouring marker.
func (e *p2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// estimate returns the current quantile estimate: the exact percentile
// while the stream fits the buffer, the middle P² marker beyond.
func (e *p2Quantile) estimate() float64 {
	if e.n == 0 {
		return math.NaN()
	}
	if e.n <= e.cap() {
		buf := make([]float64, len(e.buf))
		copy(buf, e.buf)
		sort.Float64s(buf)
		return Percentile(buf, e.p*100)
	}
	return e.q[2]
}
