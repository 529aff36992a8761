package cache

import "testing"

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

// TestProbationIsTheLastSegment: the probation position is the head of the
// queue's last segment, so a probation fill is the next-but-|last segment|
// eviction, a hit promotes it like any other entry, and it never keeps the
// cache from evicting.
func TestProbationIsTheLastSegment(t *testing.T) {
	c := NewCache(32) // 16 segments of 2
	for id := uint32(0); id < 32; id++ {
		c.Insert(id, 0)
	}
	c.Insert(100, ProbationPosition) // evicts 0, the LRU id; 1 is now the tail
	if c.Contains(0) || !c.Contains(100) || c.Len() != 32 {
		t.Fatalf("probation fill into a full cache: holds 0 %v, holds 100 %v, len %d", c.Contains(0), c.Contains(100), c.Len())
	}
	c.Insert(101, ProbationPosition) // evicts 1; the last segment is now 101, 100
	c.Insert(102, 0)                 // cascades 3 in front of them and evicts 100
	if c.Contains(100) || !c.Contains(101) {
		t.Fatalf("after two more fills: holds 100 %v, holds 101 %v", c.Contains(100), c.Contains(101))
	}
	if !c.Touch(101) {
		t.Fatal("101 should be resident")
	}
	for id := uint32(200); id < 216; id++ { // 16 more fills: a probation entry would be long gone
		c.Insert(id, 0)
	}
	if !c.Contains(101) {
		t.Fatal("a hit should have promoted the probation entry to the MRU end")
	}
}

func TestCacheLimited(t *testing.T) {
	c := NewCache(2)
	if c.Unlimited() {
		t.Fatal("capacity 2 should not be unlimited")
	}
	if c.Capacity() != 2 {
		t.Fatalf("capacity = %d", c.Capacity())
	}
	c.Insert(1, 0)
	c.Insert(2, 0)
	if !c.Touch(1) {
		t.Fatal("1 should be cached")
	}
	c.Insert(3, 0) // evicts 2 (LRU)
	if c.Contains(2) {
		t.Fatal("2 should have been evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Touch(99) {
		t.Fatal("99 was never inserted")
	}
}

func TestCacheUnlimited(t *testing.T) {
	c := NewCache(0)
	if !c.Unlimited() {
		t.Fatal("capacity 0 should be unlimited")
	}
	for i := uint32(0); i < 1000; i++ {
		c.Insert(i, 0.9)
	}
	if c.Len() != 1000 {
		t.Fatalf("len = %d", c.Len())
	}
	if !c.Contains(999) || !c.Touch(0) {
		t.Fatal("unlimited cache must retain everything")
	}
	if c.Touch(5000) {
		t.Fatal("never-inserted id reported as cached")
	}
}

func TestCacheInsertPositionAffectsEviction(t *testing.T) {
	c := NewCache(64)
	for i := uint32(0); i < 64; i++ {
		c.Insert(i, 0)
	}
	// Insert one vector near the LRU end and one at the MRU end, then add
	// pressure; the LRU-end insert should be evicted first.
	c.Insert(1000, 0.9)
	c.Insert(2000, 0)
	for i := uint32(100); i < 130; i++ {
		c.Insert(i, 0)
	}
	if c.Contains(1000) && !c.Contains(2000) {
		t.Fatal("position-0.9 insert outlived position-0 insert")
	}
	if !c.Contains(2000) {
		t.Fatal("MRU insert should survive modest pressure")
	}
}
