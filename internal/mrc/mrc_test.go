package mrc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bandana/internal/vcache"
)

func TestFenwickBasics(t *testing.T) {
	f := newFenwick(10)
	f.add(3, 1)
	f.add(7, 2)
	if got := f.prefix(2); got != 0 {
		t.Fatalf("prefix(2) = %d", got)
	}
	if got := f.prefix(3); got != 1 {
		t.Fatalf("prefix(3) = %d", got)
	}
	if got := f.prefix(10); got != 3 {
		t.Fatalf("prefix(10) = %d", got)
	}
	if got := f.rangeSum(4, 7); got != 2 {
		t.Fatalf("rangeSum(4,7) = %d", got)
	}
	if got := f.rangeSum(8, 3); got != 0 {
		t.Fatalf("empty range should be 0, got %d", got)
	}
	if got := f.prefix(100); got != 3 {
		t.Fatalf("prefix beyond size should clamp, got %d", got)
	}
	f.add(3, -1)
	if got := f.prefix(10); got != 2 {
		t.Fatalf("after removal prefix = %d", got)
	}
}

func TestStackDistancesKnownSequence(t *testing.T) {
	// Access pattern: a b c a b b
	// a: compulsory; b: compulsory; c: compulsory
	// a (again): b and c touched since -> distance 3
	// b (again): a and c? c last touched before a... distinct since last b: c, a -> 3
	// b (again): nothing since -> 1
	acc := []uint32{1, 2, 3, 1, 2, 2}
	d := StackDistances(acc)
	if d.Total != 6 {
		t.Fatalf("total = %d", d.Total)
	}
	if d.Infinite != 3 {
		t.Fatalf("compulsory = %d, want 3", d.Infinite)
	}
	if d.Histogram[3] != 2 {
		t.Fatalf("distance-3 count = %d, want 2 (histogram %v)", d.Histogram[3], d.Histogram)
	}
	if d.Histogram[1] != 1 {
		t.Fatalf("distance-1 count = %d, want 1", d.Histogram[1])
	}
}

func TestStackDistancesEmptyAndSingle(t *testing.T) {
	d := StackDistances(nil)
	if d.Total != 0 || d.Infinite != 0 {
		t.Fatalf("empty stream stats wrong")
	}
	if d.HitRateCurve().HitRate(100) != 0 {
		t.Fatalf("empty HRC should be 0")
	}
	d = StackDistances([]uint32{5})
	if d.Infinite != 1 || d.Total != 1 {
		t.Fatalf("single access should be compulsory")
	}
}

func TestStackDistanceRepeatedSameKey(t *testing.T) {
	d := StackDistances([]uint32{9, 9, 9, 9})
	if d.Infinite != 1 {
		t.Fatalf("compulsory = %d", d.Infinite)
	}
	if d.Histogram[1] != 3 {
		t.Fatalf("all re-accesses should have distance 1: %v", d.Histogram)
	}
}

// simulateLRUHits replays the stream through the store's cache, keys only,
// at the given size and counts hits — the ground truth the HRC must match.
// Every insert and every hit lands at the MRU end, so it is an exact LRU.
func simulateLRUHits(accesses []uint32, size int) int64 {
	c := vcache.New(vcache.Options{Capacity: size})
	var hits int64
	for _, id := range accesses {
		if _, _, ok := c.Get(id); ok {
			hits++
		} else {
			c.Add(id, nil, false)
		}
	}
	return hits
}

func TestHRCMatchesRealLRUSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	accesses := make([]uint32, 20000)
	for i := range accesses {
		// Zipf-ish skew over 2000 keys.
		accesses[i] = uint32(math.Pow(rng.Float64(), 2.5) * 2000)
	}
	d := StackDistances(accesses)
	hrc := d.HitRateCurve()
	for _, size := range []int{10, 50, 200, 1000} {
		want := simulateLRUHits(accesses, size)
		got := hrc.HitsAt(size)
		if math.Abs(got-float64(want)) > 1e-6 {
			t.Errorf("cache size %d: HRC says %.0f hits, simulation says %d", size, got, want)
		}
	}
}

func TestHRCMonotonicAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	accesses := make([]uint32, 5000)
	for i := range accesses {
		accesses[i] = uint32(rng.Intn(500))
	}
	hrc := StackDistances(accesses).HitRateCurve()
	prev := 0.0
	for size := 1; size <= 600; size += 13 {
		hr := hrc.HitRate(size)
		if hr < prev-1e-12 {
			t.Fatalf("hit rate decreased at size %d", size)
		}
		if hr < 0 || hr > 1 {
			t.Fatalf("hit rate out of bounds: %g", hr)
		}
		prev = hr
	}
	if maxHR := hrc.MaxHitRate(); math.Abs(maxHR-hrc.HitRate(1000000)) > 1e-9 {
		t.Fatalf("max hit rate %g != hit rate at huge size %g", maxHR, hrc.HitRate(1000000))
	}
	if hrc.HitRate(0) != 0 || hrc.HitsAt(-1) != 0 {
		t.Fatalf("zero-size cache should have zero hits")
	}
}

func TestMarginalHits(t *testing.T) {
	accesses := []uint32{1, 2, 1, 2, 3, 1, 2, 3}
	hrc := StackDistances(accesses).HitRateCurve()
	if m := hrc.MarginalHits(0, 3); math.Abs(m-hrc.HitsAt(3)) > 1e-9 {
		t.Fatalf("marginal from zero should equal total hits at size")
	}
	if hrc.MarginalHits(5, 3) != 0 {
		t.Fatalf("backwards range should be 0")
	}
	if hrc.MarginalHits(1, 3) < 0 {
		t.Fatalf("marginal hits negative")
	}
}

func TestPointsShape(t *testing.T) {
	accesses := []uint32{1, 2, 1, 3, 1}
	hrc := StackDistances(accesses).HitRateCurve()
	if hrc.HitRate(4) < hrc.HitRate(1) {
		t.Fatalf("curve not monotone: %g at 1, %g at 4", hrc.HitRate(1), hrc.HitRate(4))
	}
	if hrc.Total() != 5 {
		t.Fatalf("total = %g", hrc.Total())
	}
}

func TestSampledStackDistancesApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	accesses := make([]uint32, 60000)
	for i := range accesses {
		accesses[i] = uint32(math.Pow(rng.Float64(), 3) * 20000)
	}
	exact := StackDistances(accesses).HitRateCurve()
	sampled := SampledStackDistances(accesses, 0.05).HitRateCurve()
	for _, size := range []int{500, 2000, 8000} {
		e := exact.HitRate(size)
		s := sampled.HitRate(size)
		if math.Abs(e-s) > 0.08 {
			t.Errorf("size %d: exact %.3f vs sampled %.3f differs by more than 0.08", size, e, s)
		}
	}
}

func TestSampledStackDistancesEdgeRates(t *testing.T) {
	accesses := []uint32{1, 2, 1, 2}
	if d := SampledStackDistances(accesses, 1.5); d.Infinite != 2 {
		t.Fatalf("rate >= 1 should fall back to exact")
	}
	d := SampledStackDistances(accesses, 0)
	if d.Total != 4 || len(d.Histogram) != 0 {
		t.Fatalf("rate 0 should produce empty distances with correct total")
	}
}

func TestHash64Distribution(t *testing.T) {
	// Crude uniformity check: the fraction of hashes under a threshold of
	// 25% should be near 25%.
	threshold := uint64(0.25 * float64(math.MaxUint64))
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if hash64(uint64(i)) <= threshold {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("hash selection fraction %.3f, want ~0.25", frac)
	}
}

func TestPropertyHRCNeverExceedsNonCompulsoryFraction(t *testing.T) {
	prop := func(keys []uint8) bool {
		if len(keys) == 0 {
			return true
		}
		accesses := make([]uint32, len(keys))
		for i, k := range keys {
			accesses[i] = uint32(k % 32)
		}
		d := StackDistances(accesses)
		hrc := d.HitRateCurve()
		maxPossible := float64(d.Total-d.Infinite) / float64(d.Total)
		return hrc.MaxHitRate() <= maxPossible+1e-9 &&
			math.Abs(hrc.MaxHitRate()-maxPossible) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyHRCMatchesLRUOnRandomStreams(t *testing.T) {
	prop := func(seed int64, sizeSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		accesses := make([]uint32, 2000)
		for i := range accesses {
			accesses[i] = uint32(rng.Intn(150))
		}
		size := int(sizeSeed%100) + 1
		hrc := StackDistances(accesses).HitRateCurve()
		return math.Abs(hrc.HitsAt(size)-float64(simulateLRUHits(accesses, size))) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStackDistances(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	accesses := make([]uint32, 100000)
	for i := range accesses {
		accesses[i] = uint32(rng.Intn(20000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StackDistances(accesses)
	}
}

func BenchmarkSampledStackDistances(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	accesses := make([]uint32, 100000)
	for i := range accesses {
		accesses[i] = uint32(rng.Intn(20000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampledStackDistances(accesses, 0.01)
	}
}

func TestSampledHitRateNeverExceedsOne(t *testing.T) {
	// Heavily skewed popularity: a key-sampled subset can capture far more
	// than its share of accesses; the hit rate must still stay in [0, 1].
	rng := rand.New(rand.NewSource(99))
	accesses := make([]uint32, 40000)
	for i := range accesses {
		accesses[i] = uint32(math.Pow(rng.Float64(), 6) * 5000)
	}
	for _, rate := range []float64{0.01, 0.05, 0.2} {
		hrc := SampledStackDistances(accesses, rate).HitRateCurve()
		for _, size := range []int{10, 100, 1000, 10000, 1000000} {
			hr := hrc.HitRate(size)
			if hr < 0 || hr > 1 {
				t.Fatalf("rate %g size %d: hit rate %g out of bounds", rate, size, hr)
			}
		}
		if hrc.MaxHitRate() > 1 {
			t.Fatalf("rate %g: max hit rate %g exceeds 1", rate, hrc.MaxHitRate())
		}
	}
}
