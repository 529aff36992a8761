package lru_test

import "testing"

func TestCacheResizeShrinkEvictsLRU(t *testing.T) {
	c := keysOnly(8)
	for i := uint32(0); i < 8; i++ {
		c.Add(i, nil, false)
	}
	if got := c.Resize(3); got != 3 {
		t.Fatalf("Resize(3) recorded capacity %d", got)
	}
	if c.Len() != 3 || c.Cap() != 3 {
		t.Fatalf("after shrink Len=%d Cap=%d, want 3/3", c.Len(), c.Cap())
	}
	// The most recently inserted keys survive; the LRU tail went first.
	for i := uint32(0); i < 8; i++ {
		if recent := i >= 5; c.Contains(i) != recent {
			t.Fatalf("after shrinking to 3: key %d resident %v, want %v", i, !recent, recent)
		}
	}
	if err := checkInvariants(c); err != nil {
		t.Fatal(err)
	}
}

func TestCacheResizeGrowKeepsContents(t *testing.T) {
	c := keysOnly(4)
	for i := uint32(0); i < 4; i++ {
		c.Add(i, nil, false)
	}
	c.Resize(16)
	for i := uint32(0); i < 4; i++ {
		if !c.Contains(i) {
			t.Fatalf("key %d lost on grow", i)
		}
	}
	// The grown cache accepts new items up to the new capacity.
	for i := uint32(4); i < 16; i++ {
		if victim, was := c.Add(i, nil, false); was {
			t.Fatalf("filling the grown cache evicted %d", victim)
		}
	}
	if c.Len() != 16 {
		t.Fatalf("Len after fill = %d, want 16", c.Len())
	}
	if err := checkInvariants(c); err != nil {
		t.Fatal(err)
	}
}

func TestCacheResizeClampsToOne(t *testing.T) {
	c := keysOnly(4)
	c.Add(1, nil, false)
	c.Add(2, nil, false)
	c.Resize(-3)
	if c.Cap() != 1 || c.Len() != 1 {
		t.Fatalf("Cap=%d Len=%d, want 1/1", c.Cap(), c.Len())
	}
	if !c.Contains(2) {
		t.Fatal("MRU key should survive a shrink to 1")
	}
}
