package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("reset counter = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	if g.Value() != 42 {
		t.Fatalf("gauge = %d", g.Value())
	}
	g.Set(-7)
	if g.Value() != -7 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Fatalf("empty ratio should be 0")
	}
	r.Observe(true)
	r.Observe(false)
	r.Observe(true)
	r.Observe(true)
	if got := r.Value(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("ratio = %g, want 0.75", got)
	}
	r.Add(1, 4)
	if r.Num() != 4 || r.Den() != 8 {
		t.Fatalf("num/den = %d/%d", r.Num(), r.Den())
	}
	r.Reset()
	if r.Num() != 0 || r.Den() != 0 {
		t.Fatalf("reset failed")
	}
}

func TestHistogramInvalidParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on invalid params")
		}
	}()
	NewHistogram(0, 2, 100)
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram(1, 2, 1000)
	for _, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		h.Observe(v)
	}
	if h.Count() != 10 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-5.5) > 1e-9 {
		t.Fatalf("mean = %g, want 5.5", got)
	}
	if h.Min() != 1 || h.Max() != 10 {
		t.Fatalf("min/max = %g/%g", h.Min(), h.Max())
	}
}

func TestHistogramIgnoresInvalid(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(-1)
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Fatalf("invalid observations should be dropped, count=%d", h.Count())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewLatencyHistogram()
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := rng.ExpFloat64() * 100
		vals = append(vals, v)
		h.Observe(v)
	}
	// Exact p99 for comparison.
	cp := append([]float64(nil), vals...)
	sortFloats(cp)
	exact := cp[int(0.99*float64(len(cp)))-1]
	got := h.P99()
	if got < exact*0.9 || got > exact*1.15 {
		t.Fatalf("p99 = %g, exact = %g (outside 10%%/15%% band)", got, exact)
	}
	if h.Quantile(0) != h.Min() {
		t.Errorf("quantile(0) should be min")
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("quantile(1) should be max")
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram stats should be zero")
	}
}

func TestHistogramSizeBytes(t *testing.T) {
	// One more bucket costs one count in every stripe; the bounds are the
	// layout's, shared, and cost a histogram nothing.
	small, big := NewHistogram(1, 2, 1024), NewHistogram(1, 2, 2048)
	if got, want := big.SizeBytes()-small.SizeBytes(), int64(8*histStripes); got != want {
		t.Fatalf("one more bucket adds %d bytes, want %d", got, want)
	}
	if min := int64(histStripes * (len(small.bounds) + 1) * 8); small.SizeBytes() <= min {
		t.Fatalf("SizeBytes %d does not cover the %d bytes of counts", small.SizeBytes(), min)
	}
	if again := NewHistogram(1, 2, 1024); &again.bounds[0] != &small.bounds[0] {
		t.Fatal("two histograms of one layout hold two copies of its bounds")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatalf("reset did not clear histogram")
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewLatencyHistogram()
	h.ObserveDuration(250 * time.Microsecond)
	if h.Count() != 1 {
		t.Fatalf("duration not recorded")
	}
	if m := h.Mean(); math.Abs(m-250) > 1e-9 {
		t.Fatalf("mean = %g, want 250", m)
	}
}

func TestSnapshotString(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(10)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("snapshot count = %d", s.Count)
	}
	if s.String() == "" {
		t.Fatalf("snapshot string empty")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < 5000; j++ {
				h.Observe(rng.Float64() * 100)
			}
		}(int64(i))
	}
	wg.Wait()
	if h.Count() != 20000 {
		t.Fatalf("count = %d, want 20000", h.Count())
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range data {
		w.Add(x)
	}
	if w.Count() != int64(len(data)) {
		t.Fatalf("count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5.0) > 1e-12 {
		t.Fatalf("mean = %g, want 5", w.Mean())
	}
	// Sample variance of this data set is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-9 {
		t.Fatalf("variance = %g, want %g", w.Variance(), 32.0/7.0)
	}
	if math.Abs(w.Stddev()-math.Sqrt(32.0/7.0)) > 1e-9 {
		t.Fatalf("stddev = %g", w.Stddev())
	}
}

func TestWelfordFewSamples(t *testing.T) {
	var w Welford
	if w.Variance() != 0 {
		t.Fatalf("variance of empty should be 0")
	}
	w.Add(3)
	if w.Variance() != 0 {
		t.Fatalf("variance of single sample should be 0")
	}
}

func TestStripedCounters(t *testing.T) {
	c := NewStripedCounters(8, 3)
	for i := 0; i < 1000; i++ {
		c.Stripe(uint64(i) * 0x9e3779b97f4a7c15)[0].Add(1)
	}
	c.Stripe(3)[0].Add(500)
	c.Stripe(5)[2].Add(7)
	if got := c.Value(0); got != 1500 {
		t.Fatalf("Value(0) = %d, want 1500", got)
	}
	if got, want := [2]int64{c.Value(1), c.Value(2)}, [2]int64{0, 7}; got != want {
		t.Fatalf("Value(1), Value(2) = %v, want %v: counters of one stripe leak into each other", got, want)
	}
	c.Reset()
	for i := 0; i < 3; i++ {
		if got := c.Value(i); got != 0 {
			t.Fatalf("Value(%d) after Reset = %d", i, got)
		}
	}
	// Stripe count rounds up to a power of two, minimum 1, and a stripe's
	// block is whole cache lines.
	for _, tc := range []struct{ stripes, counters, cells int }{
		{0, 1, 8}, {5, 1, 64}, {64, 9, 64 * 16}, {2, 8, 16},
	} {
		c := NewStripedCounters(tc.stripes, tc.counters)
		if n := len(c.cells); n != tc.cells {
			t.Fatalf("%d stripes of %d counters -> %d cells, want %d", tc.stripes, tc.counters, n, tc.cells)
		}
		if n := len(c.Stripe(^uint64(0))); n != c.stride || n%cacheLineInt64s != 0 {
			t.Fatalf("%d stripes of %d counters: a stripe holds %d cells", tc.stripes, tc.counters, n)
		}
	}
	if got, want := NewStripedCounters(64, 9).SizeBytes(), int64(64*128); got < want || got > want+64 {
		t.Fatalf("64 stripes of 9 counters hold %d bytes, want %d plus the header", got, want)
	}
}

func TestStripedCountersConcurrent(t *testing.T) {
	c := NewStripedCounters(16, 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				st := c.Stripe(uint64(w*10_000 + i))
				st[0].Add(1)
				st[1].Add(2)
			}
		}(w)
	}
	wg.Wait()
	if got0, got1 := c.Value(0), c.Value(1); got0 != 80_000 || got1 != 160_000 {
		t.Fatalf("Value = %d, %d, want 80000, 160000", got0, got1)
	}
}

func TestGaugeAdd(t *testing.T) {
	var g Gauge
	if got := g.Add(5); got != 5 {
		t.Fatalf("Add(5) = %d", got)
	}
	if got := g.Add(-2); got != 3 {
		t.Fatalf("Add(-2) = %d", got)
	}
	if g.Value() != 3 {
		t.Fatalf("Value = %d", g.Value())
	}
}
