package lru

import "testing"

func TestCacheResizeShrinkEvictsLRU(t *testing.T) {
	var evicted []int
	c := NewSegmented[int, int](8, 4, func(k, _ int) { evicted = append(evicted, k) })
	for i := 0; i < 8; i++ {
		c.Add(i, i*10)
	}
	if n := c.Resize(3); n != 5 {
		t.Fatalf("Resize reported %d evictions, want 5", n)
	}
	if c.Len() != 3 || c.Cap() != 3 {
		t.Fatalf("after shrink Len=%d Cap=%d, want 3/3", c.Len(), c.Cap())
	}
	if len(evicted) != 5 {
		t.Fatalf("eviction callback saw %d items, want 5", len(evicted))
	}
	// The most recently inserted keys survive; the LRU tail went first.
	for _, k := range []int{5, 6, 7} {
		if !c.Contains(k) {
			t.Fatalf("recent key %d evicted by shrink", k)
		}
	}
	for _, k := range evicted {
		if k >= 5 {
			t.Fatalf("shrink evicted recent key %d", k)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheResizeGrowKeepsContents(t *testing.T) {
	c := New[int, int](4)
	for i := 0; i < 4; i++ {
		c.Add(i, i)
	}
	if n := c.Resize(16); n != 0 {
		t.Fatalf("grow evicted %d items", n)
	}
	for i := 0; i < 4; i++ {
		if !c.Contains(i) {
			t.Fatalf("key %d lost on grow", i)
		}
	}
	// The grown cache accepts new items up to the new capacity.
	for i := 4; i < 16; i++ {
		c.Add(i, i)
	}
	if c.Len() != 16 {
		t.Fatalf("Len after fill = %d, want 16", c.Len())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheResizeClampsToOne(t *testing.T) {
	c := New[int, int](4)
	c.Add(1, 1)
	c.Add(2, 2)
	c.Resize(-3)
	if c.Cap() != 1 || c.Len() != 1 {
		t.Fatalf("Cap=%d Len=%d, want 1/1", c.Cap(), c.Len())
	}
	if !c.Contains(2) {
		t.Fatal("MRU key should survive a shrink to 1")
	}
}
