package cache

import (
	"slices"
	"testing"

	"bandana/internal/vcache"
)

func TestNoPrefetchPolicy(t *testing.T) {
	var p NoPrefetch
	p.OnAccess(1)
	if admit, _ := p.AdmitPrefetch(1); admit {
		t.Fatal("NoPrefetch must never admit")
	}
	if p.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestAlwaysAdmitPolicy(t *testing.T) {
	p := AlwaysAdmit{Position: 0.5}
	admit, pos := p.AdmitPrefetch(7)
	if !admit || pos != 0.5 {
		t.Fatalf("admit=%v pos=%v", admit, pos)
	}
	p.OnAccess(7) // no-op, must not panic
	if p.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestShadowAdmitPolicy(t *testing.T) {
	p := NewShadowAdmit(4, 0.3)
	if admit, _ := p.AdmitPrefetch(1); admit {
		t.Fatal("vector never accessed should not be admitted")
	}
	p.OnAccess(1)
	admit, pos := p.AdmitPrefetch(1)
	if !admit || pos != 0.3 {
		t.Fatalf("vector in shadow should be admitted at configured position, got %v %v", admit, pos)
	}
	// Shadow eviction: fill beyond capacity.
	for id := uint32(10); id < 20; id++ {
		p.OnAccess(id)
	}
	if admit, _ := p.AdmitPrefetch(1); admit {
		t.Fatal("vector evicted from shadow should no longer be admitted")
	}
	if p.Name() == "" {
		t.Fatal("empty name")
	}
}

// TestShadowEvictsLRUKey: the shadow is an LRU of the accessed ids, so a
// repeat access promotes and the id not accessed longest is the one evicted.
func TestShadowEvictsLRUKey(t *testing.T) {
	p := NewShadowAdmit(2, 0)
	p.OnAccess(1)
	p.OnAccess(2)
	p.OnAccess(1) // 2 is now LRU
	p.OnAccess(3) // evicts 2
	for id, want := range map[uint32]bool{1: true, 2: false, 3: true} {
		if admit, _ := p.AdmitPrefetch(id); admit != want {
			t.Fatalf("after accesses 1 2 1 3 to a 2-key shadow: admit(%d) = %v", id, admit)
		}
	}
}

func TestShadowPositionPolicy(t *testing.T) {
	p := NewShadowPosition(4, 0.7)
	admit, pos := p.AdmitPrefetch(5)
	if !admit || pos != 0.7 {
		t.Fatalf("shadow miss should admit at alt position, got %v %v", admit, pos)
	}
	p.OnAccess(5)
	admit, pos = p.AdmitPrefetch(5)
	if !admit || pos != 0 {
		t.Fatalf("shadow hit should admit at MRU, got %v %v", admit, pos)
	}
	if p.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestThresholdAdmitPolicy(t *testing.T) {
	counts := []uint32{0, 3, 10, 25}
	p := ThresholdAdmit{Counts: counts, Threshold: 5}
	if admit, _ := p.AdmitPrefetch(1); admit {
		t.Fatal("count 3 <= threshold 5 should not be admitted")
	}
	if admit, _ := p.AdmitPrefetch(2); !admit {
		t.Fatal("count 10 > threshold 5 should be admitted")
	}
	if admit, _ := p.AdmitPrefetch(99); admit {
		t.Fatal("out-of-range id should not be admitted")
	}
	p.OnAccess(2)
	if p.Name() == "" {
		t.Fatal("empty name")
	}
	// Threshold 0 admits anything accessed at least once.
	p0 := ThresholdAdmit{Counts: counts, Threshold: 0}
	if admit, _ := p0.AdmitPrefetch(0); admit {
		t.Fatal("count 0 should not pass threshold 0 (strict inequality)")
	}
	if admit, _ := p0.AdmitPrefetch(1); !admit {
		t.Fatal("count 3 should pass threshold 0")
	}
}

// TestThresholdAdmitDemandPosition: a requested vector seen fewer than
// DemandThreshold times in training enters on probation, any other at the MRU
// end, and the zero threshold gates nothing — not even ids training never
// saw.
func TestThresholdAdmitDemandPosition(t *testing.T) {
	counts := []uint32{0, 3, 10, 25}
	p := ThresholdAdmit{Counts: counts, Threshold: 5, DemandThreshold: 10}
	for id, want := range []float64{ProbationPosition, ProbationPosition, 0, 0} {
		if got := p.DemandPosition(uint32(id)); got != want {
			t.Errorf("count %d under demand threshold 10: position %v, want %v", counts[id], got, want)
		}
	}
	if got := p.DemandPosition(99); got != ProbationPosition {
		t.Errorf("an id beyond the counts was never seen in training: position %v, want probation", got)
	}
	ungated := ThresholdAdmit{Counts: counts, Threshold: 5}
	for _, id := range []uint32{0, 1, 99} {
		if got := ungated.DemandPosition(id); got != 0 {
			t.Errorf("demand threshold 0 put id %d at %v", id, got)
		}
	}
	for _, other := range []AdmissionPolicy{NoPrefetch{}, AlwaysAdmit{Position: 0.5}, NewShadowAdmit(4, 0), NewShadowPosition(4, 0.5)} {
		if got := other.DemandPosition(0); got != 0 {
			t.Errorf("%s fills a requested vector at %v, want the MRU end", other.Name(), got)
		}
	}
}

// keysOnly is the store's cache without payloads, one shard: what sim.Replay
// fills at the positions these policies return.
func keysOnly(capacity int) *vcache.Cache { return vcache.New(vcache.Options{Capacity: capacity}) }

// TestProbationIsTheLastSegment: the probation position is the head of the
// queue's last segment, so a probation fill is the next-but-|last segment|
// eviction, a hit promotes it like any other entry, and it never keeps the
// cache from evicting.
func TestProbationIsTheLastSegment(t *testing.T) {
	c := keysOnly(32) // 16 segments of 2
	for id := uint32(0); id < 32; id++ {
		c.AddAt(id, nil, 0, false)
	}
	c.AddAt(100, nil, ProbationPosition, false) // evicts 0, the LRU id; 1 is now the tail
	if c.Contains(0) || !c.Contains(100) || c.Len() != 32 {
		t.Fatalf("probation fill into a full cache: holds 0 %v, holds 100 %v, len %d", c.Contains(0), c.Contains(100), c.Len())
	}
	c.AddAt(101, nil, ProbationPosition, false) // evicts 1; the last segment is now 101, 100
	c.AddAt(102, nil, 0, false)                 // cascades 3 in front of them and evicts 100
	if c.Contains(100) || !c.Contains(101) {
		t.Fatalf("after two more fills: holds 100 %v, holds 101 %v", c.Contains(100), c.Contains(101))
	}
	if _, _, ok := c.Get(101); !ok {
		t.Fatal("101 should be resident")
	}
	for id := uint32(200); id < 216; id++ { // 16 more fills: a probation entry would be long gone
		c.AddAt(id, nil, 0, false)
	}
	if !c.Contains(101) {
		t.Fatal("a hit should have promoted the probation entry to the MRU end")
	}
}

// TestCacheLimited: at capacity the queue evicts its LRU id, and a hit keeps
// an id from being that one.
func TestCacheLimited(t *testing.T) {
	c := keysOnly(2)
	if c.Cap() != 2 {
		t.Fatalf("capacity = %d", c.Cap())
	}
	c.AddAt(1, nil, 0, false)
	c.AddAt(2, nil, 0, false)
	if _, _, ok := c.Get(1); !ok {
		t.Fatal("1 should be cached")
	}
	c.AddAt(3, nil, 0, false) // evicts 2 (LRU)
	if c.Contains(2) {
		t.Fatal("2 should have been evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if _, _, ok := c.Get(99); ok {
		t.Fatal("99 was never inserted")
	}
}

// TestCacheInsertPositionAffectsEviction: under the same pressure a vector
// inserted near the LRU end is evicted while one inserted at the MRU end
// survives.
func TestCacheInsertPositionAffectsEviction(t *testing.T) {
	c := keysOnly(64)
	for i := uint32(0); i < 64; i++ {
		c.AddAt(i, nil, 0, false)
	}
	c.AddAt(1000, nil, 0.9, false)
	c.AddAt(2000, nil, 0, false)
	for i := uint32(100); i < 130; i++ {
		c.AddAt(i, nil, 0, false)
	}
	if c.Contains(1000) || !c.Contains(2000) {
		t.Fatalf("after 30 MRU fills: position 0.9 resident %v, position 0 resident %v", c.Contains(1000), c.Contains(2000))
	}
}

// TestHottestIDs: the k highest counts among the eligible ids, ties to the
// lower id, returned in id order; fewer only when fewer are eligible.
func TestHottestIDs(t *testing.T) {
	counts := []uint32{5, 9, 0, 9, 3, 7, 1, 7}
	for _, tc := range []struct {
		k        int
		eligible func(uint32) bool
		want     []uint32
	}{
		{3, nil, []uint32{1, 3, 5}},
		{4, nil, []uint32{1, 3, 5, 7}},
		{5, nil, []uint32{0, 1, 3, 5, 7}},
		{0, nil, []uint32{}},
		{20, nil, []uint32{0, 1, 2, 3, 4, 5, 6, 7}},
		{2, func(id uint32) bool { return id%2 == 0 }, []uint32{0, 4}},
		{3, func(id uint32) bool { return id >= 6 }, []uint32{6, 7}},
	} {
		if got := HottestIDs(counts, tc.k, tc.eligible); !slices.Equal(got, tc.want) {
			t.Errorf("k %d: %v, want %v", tc.k, got, tc.want)
		}
	}
}

// TestPinnedAdmitVerdicts: the pin verdict admits what its thresholds admit,
// at their positions, and puts no pinned id on probation.
func TestPinnedAdmitVerdicts(t *testing.T) {
	counts := []uint32{5, 9, 0, 9, 3, 1}
	pair := NewThresholdAdmit(counts, 4, 6)
	if got := HottestIDs(counts, 2, nil); !slices.Equal(got, []uint32{1, 3}) {
		t.Fatalf("hottest %v, want [1 3]", got)
	}
	p2 := NewPinnedAdmit(pair, []uint32{2, 4})
	for id := uint32(0); id < 7; id++ {
		admit, pos := p2.AdmitPrefetch(id)
		wantAdmit, wantPos := pair.AdmitPrefetch(id)
		pinned := id == 2 || id == 4
		if admit != wantAdmit || pos != wantPos || p2.Prefetches(id) != pair.Prefetches(id) || p2.Pins(id) != pinned {
			t.Fatalf("id %d: admit %v at %v, pins %v; the thresholds admit %v at %v", id, admit, pos, p2.Pins(id), wantAdmit, wantPos)
		}
		if probation := pair.OnProbation(id) && !pinned; p2.OnProbation(id) != probation ||
			p2.DemandPosition(id) != map[bool]float64{true: ProbationPosition, false: 0}[probation] {
			t.Fatalf("id %d: probation %v at %v, want %v", id, p2.OnProbation(id), p2.DemandPosition(id), probation)
		}
	}
}
