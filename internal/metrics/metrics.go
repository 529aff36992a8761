// Package metrics provides lightweight measurement primitives used across
// Bandana: streaming counters, latency histograms with percentile queries,
// and simple rate/ratio trackers.
//
// All types are safe for concurrent use unless stated otherwise; the
// experiment harness and the store's hot path both record into them.
package metrics

import (
	"fmt"
	"math"
	randv2 "math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Counter is a monotonically increasing 64-bit counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (which must be >= 0).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.v.Store(0) }

// StripedCounters is a fixed set of counters spread across stripes, each
// stripe one cache-line-padded block holding every counter of the set, so
// that many goroutines adding concurrently do not contend on one cache line
// and one caller's adds to several counters touch one line. Callers supply
// a stripe selector (any well-distributed hash, e.g. the key hash they
// already computed); Value sums one counter over the stripes.
type StripedCounters struct {
	cells  []atomic.Int64 // stripe s holds counter i at s*stride+i
	stride int            // counters per stripe, padded to whole cache lines
	mask   uint64
}

// cacheLineInt64s is how many int64 counters share one 64-byte cache line.
const cacheLineInt64s = 8

// NewStripedCounters creates a set of the given number of counters over the
// given number of stripes, rounded up to a power of two (minimum 1).
func NewStripedCounters(stripes, counters int) *StripedCounters {
	n := 1
	for n < stripes {
		n <<= 1
	}
	stride := (counters + cacheLineInt64s - 1) / cacheLineInt64s * cacheLineInt64s
	return &StripedCounters{cells: make([]atomic.Int64, n*stride), stride: stride, mask: uint64(n - 1)}
}

// Stripe returns the block of counters selected by hash; index it by counter.
func (c *StripedCounters) Stripe(hash uint64) []atomic.Int64 {
	off := int(hash&c.mask) * c.stride
	return c.cells[off : off+c.stride]
}

// Value returns the sum of counter i over all stripes. Concurrent adds may
// or may not be included, as with any relaxed counter read.
func (c *StripedCounters) Value(i int) int64 {
	var sum int64
	for off := i; off < len(c.cells); off += c.stride {
		sum += c.cells[off].Load()
	}
	return sum
}

// Reset zeroes every counter.
func (c *StripedCounters) Reset() {
	for i := range c.cells {
		c.cells[i].Store(0)
	}
}

// SizeBytes is the heap the counters hold.
func (c *StripedCounters) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*c)) + int64(len(c.cells))*int64(unsafe.Sizeof(atomic.Int64{}))
}

// Gauge is a settable 64-bit value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta and returns the new value (e.g. in-flight
// request tracking).
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value returns the stored value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Ratio tracks a numerator/denominator pair (e.g. hits/accesses).
type Ratio struct {
	num Counter
	den Counter
}

// Observe records one event; hit indicates whether it counts toward the
// numerator.
func (r *Ratio) Observe(hit bool) {
	if hit {
		r.num.Inc()
	}
	r.den.Inc()
}

// Add records bulk events.
func (r *Ratio) Add(num, den int64) {
	r.num.Add(num)
	r.den.Add(den)
}

// Value returns the current ratio, or 0 if nothing was recorded.
func (r *Ratio) Value() float64 {
	d := r.den.Value()
	if d == 0 {
		return 0
	}
	return float64(r.num.Value()) / float64(d)
}

// Num returns the numerator.
func (r *Ratio) Num() int64 { return r.num.Value() }

// Den returns the denominator.
func (r *Ratio) Den() int64 { return r.den.Value() }

// Reset clears both counters.
func (r *Ratio) Reset() {
	r.num.Reset()
	r.den.Reset()
}

// Histogram is a lock-free log-linear histogram of non-negative values
// (latencies in microseconds, sizes in bytes, ...). It supports approximate
// percentile queries with bounded relative error determined by the bucket
// layout: buckets grow geometrically by `growth` starting at `first`, with
// the final bound clamped to exactly maxBound.
//
// The bucket layout is fixed at construction; Observe is one binary search
// plus an atomic add into a randomly selected stripe, so the store's ~120 ns
// hit path can record into it without a mutex or an allocation. Reads
// (Count, Quantile, Snapshot, ...) sum the stripes; like any relaxed
// counter they may miss concurrent in-flight observations.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; immutable, shared by every histogram of the layout
	stripes []histStripe
	mask    uint32
	minBits atomic.Uint64 // float64 bits of the smallest observation
	maxBits atomic.Uint64 // float64 bits of the largest observation
}

// histStripe holds one stripe's bucket counts and value sum. Stripes are
// selected per-observation by a cheap per-P random draw, so concurrent
// observers of the same value land on different cache lines.
type histStripe struct {
	counts  []atomic.Int64 // len(bounds)+1; last bucket is the overflow
	sumBits atomic.Uint64  // float64 bits of the stripe's value sum
	_       [40]byte       // keep adjacent stripe headers off one cache line
}

// histStripes is the number of stripes per histogram. Four stripes cut
// same-bucket contention enough for the hit path while keeping the counts of
// the two layouts in use small: the latency layout (NewLatencyHistogram) has
// 333 buckets, 10,656 B of counts per histogram, and the 10 ns stage layout
// (0.01 to 1e6) 380 buckets, 12,160 B. Their bounds, 2,656 B and 3,032 B,
// are shared (see layoutBounds).
const histStripes = 4

// NewHistogram creates a histogram with geometric bucket bounds
// [first, first*growth, ...] clamped so the final bound is exactly maxBound.
// growth must be > 1.
func NewHistogram(first, growth, maxBound float64) *Histogram {
	if first <= 0 || growth <= 1 || maxBound <= first {
		panic("metrics: invalid histogram parameters")
	}
	bounds := layoutBounds(first, growth, maxBound)
	h := &Histogram{
		bounds:  bounds,
		stripes: make([]histStripe, histStripes),
		mask:    histStripes - 1,
	}
	for i := range h.stripes {
		h.stripes[i].counts = make([]atomic.Int64, len(bounds)+1)
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// layoutKey names a bucket layout by NewHistogram's parameters.
type layoutKey struct{ first, growth, maxBound float64 }

// layouts holds one bounds slice per bucket layout ever built, shared by
// every histogram of that layout: the bounds are immutable, and a copy per
// histogram would cost each one a quarter as much again as its counts. A
// process uses a handful of layouts, so the map stays that small.
var layouts sync.Map // layoutKey -> []float64

// layoutBounds returns the shared bounds of a layout, building them on first
// use.
func layoutBounds(first, growth, maxBound float64) []float64 {
	k := layoutKey{first, growth, maxBound}
	if b, ok := layouts.Load(k); ok {
		return b.([]float64)
	}
	var bounds []float64
	for b := first; b < maxBound; b *= growth {
		bounds = append(bounds, b)
	}
	bounds = append(bounds, maxBound)
	b, _ := layouts.LoadOrStore(k, slices.Clone(bounds)) // drop append's spare capacity: the bounds live as long as the process
	return b.([]float64)
}

// NewLatencyHistogram returns a histogram suitable for microsecond latencies
// between ~1us and ~10s with ~5% relative bucket error.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(1, 1.05, 1e7)
}

// Observe records a single value. It is lock-free and allocation-free: a
// binary search over the immutable bounds, one atomic add on a striped
// bucket, a striped CAS-add for the sum, and min/max CASes that settle into
// plain loads once the extremes are established.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	s := &h.stripes[randv2.Uint32()&h.mask]
	s.counts[idx].Add(1)
	for {
		old := s.sumBits.Load()
		if s.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records a duration in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Microsecond))
}

// totals sums the stripes into one per-bucket count slice. The scratch
// slice, when non-nil and large enough, is reused to avoid allocating.
func (h *Histogram) totals(scratch []int64) (counts []int64, count int64) {
	n := len(h.bounds) + 1
	if cap(scratch) >= n {
		counts = scratch[:n]
		for i := range counts {
			counts[i] = 0
		}
	} else {
		counts = make([]int64, n)
	}
	for s := range h.stripes {
		for i := range counts {
			c := h.stripes[s].counts[i].Load()
			counts[i] += c
			count += c
		}
	}
	return counts, count
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var count int64
	for s := range h.stripes {
		for i := range h.stripes[s].counts {
			count += h.stripes[s].counts[i].Load()
		}
	}
	return count
}

// sum returns the total of all observed values.
func (h *Histogram) sum() float64 {
	var sum float64
	for s := range h.stripes {
		sum += math.Float64frombits(h.stripes[s].sumBits.Load())
	}
	return sum
}

// Mean returns the arithmetic mean of all observations (0 if empty).
func (h *Histogram) Mean() float64 {
	count := h.Count()
	if count == 0 {
		return 0
	}
	return h.sum() / float64(count)
}

// Min returns the smallest observation (0 if empty).
func (h *Histogram) Min() float64 {
	m := math.Float64frombits(h.minBits.Load())
	if math.IsInf(m, 1) {
		return 0
	}
	return m
}

// Max returns the largest observation (0 if empty).
func (h *Histogram) Max() float64 {
	m := math.Float64frombits(h.maxBits.Load())
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// Quantile returns an approximation of the q-th quantile (0 <= q <= 1).
// The answer is the upper bound of the bucket containing the quantile, which
// overestimates by at most one bucket's relative width.
func (h *Histogram) Quantile(q float64) float64 {
	counts, count := h.totals(nil)
	return h.quantileFrom(counts, count, q)
}

// quantileFrom answers a quantile query against a pre-summed count slice so
// Snapshot can serve several quantiles from one consistent pass.
func (h *Histogram) quantileFrom(counts []int64, count int64, q float64) float64 {
	if count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	target := int64(math.Ceil(q * float64(count)))
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.Max()
		}
	}
	return h.Max()
}

// P50 is shorthand for Quantile(0.50).
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P99 is shorthand for Quantile(0.99).
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Reset clears all recorded observations. Like StripedCounters.Reset it is
// racy-tolerant: observations concurrent with the reset may be partially
// retained.
func (h *Histogram) Reset() {
	for s := range h.stripes {
		for i := range h.stripes[s].counts {
			h.stripes[s].counts[i].Store(0)
		}
		h.stripes[s].sumBits.Store(0)
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
}

// SizeBytes is the heap the histogram holds: every stripe's bucket counts.
// The bounds are its layout's, shared with every histogram of that layout,
// and not counted.
func (h *Histogram) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*h))
	for i := range h.stripes {
		n += int64(unsafe.Sizeof(h.stripes[i])) + int64(len(h.stripes[i].counts))*8
	}
	return n
}

// Snapshot is an immutable summary of a histogram.
type Snapshot struct {
	Count int64
	Mean  float64
	Min   float64
	Max   float64
	P50   float64
	P90   float64
	P99   float64
	P999  float64
}

// Snapshot captures the current summary statistics. All quantiles are
// derived from a single pass over the bucket counts, so they are mutually
// consistent even while observations continue concurrently.
func (h *Histogram) Snapshot() Snapshot {
	counts, count := h.totals(nil)
	mean := 0.0
	if count > 0 {
		mean = h.sum() / float64(count)
	}
	return Snapshot{
		Count: count,
		Mean:  mean,
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.quantileFrom(counts, count, 0.50),
		P90:   h.quantileFrom(counts, count, 0.90),
		P99:   h.quantileFrom(counts, count, 0.99),
		P999:  h.quantileFrom(counts, count, 0.999),
	}
}

// String renders the snapshot compactly.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p99=%.2f p999=%.2f max=%.2f",
		s.Count, s.Mean, s.P50, s.P99, s.P999, s.Max)
}

// Welford computes a streaming mean/variance (not concurrency-safe; used by
// single-threaded experiment code).
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates a new observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running sample variance (0 if fewer than 2 samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }
