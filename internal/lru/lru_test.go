// Package lru_test holds the tests of the retired lru package under their
// old names. Its segmented LRU and its keys-only shadow are gone: the
// one segmented LRU in the product is internal/vcache (keys-only with
// SlotBytes 0), and the shadow policies' queue is one of those, so these
// tests now hold vcache and cache.ShadowAdmit to what lru promised. There is
// no non-test code here.
package lru_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"bandana/internal/cache"
	"bandana/internal/vcache"
)

// keysOnly is a one-shard keys-only cache: what sim.Replay and the shadow
// policies run on.
func keysOnly(capacity int) *vcache.Cache { return vcache.New(vcache.Options{Capacity: capacity}) }

// withValues is a one-shard cache of one-byte values.
func withValues(capacity int) *vcache.Cache {
	return vcache.New(vcache.Options{Capacity: capacity, SlotBytes: 1})
}

// value returns id's one-byte value without holding a view.
func value(c *vcache.Cache, id uint32) (v byte, ok bool) {
	ok = c.GetFunc(id, func(p []byte, _ bool) { v = p[0] })
	return v, ok
}

// checkInvariants is what vcache's exported surface shows of its own
// consistency check: every shard lists each of its keys once, every listed
// key is in the index, and the listed total is Len and within Cap.
func checkInvariants(c *vcache.Cache) error {
	total := 0
	for i := 0; i < c.NumShards(); i++ {
		keys := c.ShardKeys(i)
		seen := make(map[uint32]bool, len(keys))
		for _, k := range keys {
			if seen[k] {
				return fmt.Errorf("shard %d lists %d twice", i, k)
			}
			seen[k] = true
			if !c.Contains(k) {
				return fmt.Errorf("shard %d lists %d but the index lacks it", i, k)
			}
		}
		total += len(keys)
	}
	if n := c.Len(); total != n || n > c.Cap() {
		return fmt.Errorf("shards list %d keys, Len %d, Cap %d", total, n, c.Cap())
	}
	return nil
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for capacity 0")
		}
	}()
	keysOnly(0)
}

func TestAddGetBasic(t *testing.T) {
	c := withValues(3)
	c.Add(1, []byte{'a'}, false)
	c.Add(2, []byte{'b'}, false)
	c.Add(3, []byte{'c'}, false)
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if v, ok := value(c, 1); !ok || v != 'a' {
		t.Fatalf("get(1) = %q,%v", v, ok)
	}
	if _, _, ok := c.Get(99); ok {
		t.Fatalf("get(99) should miss")
	}
	if err := checkInvariants(c); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionOrderIsLRU: fills and hits all land at the MRU end, so the
// queue is an exact LRU whatever its segment count.
func TestEvictionOrderIsLRU(t *testing.T) {
	c := keysOnly(3)
	c.Add(1, nil, false)
	c.Add(2, nil, false)
	c.Add(3, nil, false)
	c.Get(1) // promote 1; LRU order now 2,3,1 from oldest
	evicted, was := c.Add(4, nil, false)
	if !was || evicted != 2 {
		t.Fatalf("evicted %v (%v), want 2", evicted, was)
	}
	if c.Contains(2) {
		t.Fatalf("2 should have been evicted")
	}
	if !c.Contains(1) || !c.Contains(3) || !c.Contains(4) {
		t.Fatalf("unexpected contents %v", c.ShardKeys(0))
	}
}

func TestAddExistingUpdatesValueWithoutEviction(t *testing.T) {
	c := withValues(2)
	c.Add(1, []byte{10}, false)
	c.Add(2, []byte{20}, false)
	if _, was := c.Add(1, []byte{11}, false); was {
		t.Fatalf("re-adding existing key must not evict")
	}
	if v, _ := value(c, 1); v != 11 {
		t.Fatalf("value not updated: %d", v)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

// TestPeekAndContainsDoNotPromote: vcache has no Peek; Contains and
// ShardKeys are its probes that leave recency alone.
func TestPeekAndContainsDoNotPromote(t *testing.T) {
	c := keysOnly(2)
	c.Add(1, nil, false)
	c.Add(2, nil, false)
	c.ShardKeys(0)
	c.Contains(1)
	// 1 is still the LRU item, so it gets evicted.
	evicted, was := c.Add(3, nil, false)
	if !was || evicted != 1 {
		t.Fatalf("evicted %v, want 1", evicted)
	}
}

func TestRemove(t *testing.T) {
	c := keysOnly(2)
	c.Add(1, nil, false)
	if !c.Remove(1) {
		t.Fatalf("remove(1) should succeed")
	}
	if c.Remove(1) {
		t.Fatalf("second remove should fail")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d", c.Len())
	}
	if err := checkInvariants(c); err != nil {
		t.Fatal(err)
	}
}

// TestEvictCallback: lru's eviction callback became AddAt's returned victim.
func TestEvictCallback(t *testing.T) {
	var evictedKeys []uint32
	c := keysOnly(2)
	for id := uint32(1); id <= 3; id++ {
		if victim, was := c.Add(id, nil, false); was {
			evictedKeys = append(evictedKeys, victim)
		}
	}
	if len(evictedKeys) != 1 || evictedKeys[0] != 1 {
		t.Fatalf("evicted = %v, want [1]", evictedKeys)
	}
	// An explicit Remove is not an eviction: it frees room, so the next
	// insert evicts nothing.
	c.Remove(2)
	if victim, was := c.Add(4, nil, false); was {
		t.Fatalf("insert after Remove evicted %d", victim)
	}
}

func TestAddAtPositionalLifetime(t *testing.T) {
	// An item inserted near the LRU end should be evicted before items
	// inserted at the MRU end.
	c := keysOnly(100)
	for i := uint32(0); i < 100; i++ {
		c.Add(i, nil, false)
	}
	c.AddAt(1000, nil, 0.95, false) // near the bottom of the queue
	// Insert a handful of new MRU items; 1000 should fall out quickly.
	for i := uint32(100); i < 112; i++ {
		c.Add(i, nil, false)
	}
	if c.Contains(1000) {
		t.Fatalf("item inserted at position 0.95 should already be evicted")
	}

	c2 := keysOnly(100)
	for i := uint32(0); i < 100; i++ {
		c2.Add(i, nil, false)
	}
	c2.AddAt(1000, nil, 0.0, false)
	for i := uint32(100); i < 112; i++ {
		c2.Add(i, nil, false)
	}
	if !c2.Contains(1000) {
		t.Fatalf("item inserted at position 0 should still be cached")
	}
}

// TestAddAtClampsPosition: a position below 0 inserts at the MRU end, one
// above 1 at the head of the last segment.
func TestAddAtClampsPosition(t *testing.T) {
	c := keysOnly(32) // 16 segments of 2
	for id := uint32(0); id < 32; id++ {
		c.Add(id, nil, false)
	}
	c.AddAt(100, nil, -5, false)
	c.AddAt(101, nil, 7, false)
	if keys := c.ShardKeys(0); keys[0] != 100 || keys[30] != 101 {
		t.Fatalf("MRU→LRU %v: want 100 first and 101 heading the last segment", keys)
	}
	if err := checkInvariants(c); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := keysOnly(50)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		id := uint32(rng.Intn(200))
		switch rng.Intn(4) {
		case 0:
			c.Add(id, nil, false)
		case 1:
			c.AddAt(id, nil, rng.Float64(), false)
		case 2:
			c.Get(id)
		case 3:
			c.Remove(id)
		}
		if c.Len() > c.Cap() {
			t.Fatalf("capacity exceeded: %d > %d", c.Len(), c.Cap())
		}
	}
	if err := checkInvariants(c); err != nil {
		t.Fatal(err)
	}
}

// TestKeysOrderedMRUFirstWithinSingleSegment: with every fill and hit at the
// MRU end the queue reads as one LRU run, MRU first.
func TestKeysOrderedMRUFirstWithinSingleSegment(t *testing.T) {
	c := keysOnly(4)
	c.Add(1, nil, false)
	c.Add(2, nil, false)
	c.Add(3, nil, false)
	c.Get(1)
	keys := c.ShardKeys(0)
	if keys[0] != 1 {
		t.Fatalf("MRU key should be 1, got %v", keys)
	}
	if keys[len(keys)-1] != 2 {
		t.Fatalf("LRU key should be 2, got %v", keys)
	}
}

func TestPropertyInvariantsUnderRandomOps(t *testing.T) {
	prop := func(ops []uint16, capSeed uint8) bool {
		capacity := int(capSeed%64) + 1
		c := keysOnly(capacity)
		for _, op := range ops {
			key := uint32(op % 128)
			switch op % 5 {
			case 0, 1:
				c.Add(key, nil, false)
			case 2:
				c.AddAt(key, nil, float64(op%100)/100, false)
			case 3:
				c.Get(key)
			case 4:
				c.Remove(key)
			}
		}
		return checkInvariants(c) == nil && c.Len() <= capacity
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestShadowBasics: lru's Shadow became the shadow policies' keys-only queue,
// seen here through ShadowAdmit: an id is admitted exactly while the shadow
// holds it.
func TestShadowBasics(t *testing.T) {
	s := cache.NewShadowAdmit(3, 0)
	if admit, _ := s.AdmitPrefetch(1); admit {
		t.Fatalf("first access should be a miss")
	}
	s.OnAccess(1)
	if admit, _ := s.AdmitPrefetch(1); !admit {
		t.Fatalf("second access should be a hit")
	}
	s.OnAccess(1)
	s.OnAccess(2)
	s.OnAccess(3)
	s.OnAccess(4) // the shadow holds 3 keys: 1, the LRU one, goes
	for id, want := range map[uint32]bool{1: false, 2: true, 3: true, 4: true} {
		if admit, _ := s.AdmitPrefetch(id); admit != want {
			t.Fatalf("after accesses 1 1 2 3 4 to a 3-key shadow: admit(%d) = %v", id, admit)
		}
	}
}

func TestShadowEvictsLRUKey(t *testing.T) {
	s := cache.NewShadowAdmit(2, 0)
	s.OnAccess(1)
	s.OnAccess(2)
	s.OnAccess(1) // 2 is now LRU
	s.OnAccess(3) // evicts 2
	if admit, _ := s.AdmitPrefetch(2); admit {
		t.Fatalf("2 should have been evicted")
	}
	for _, id := range []uint32{1, 3} {
		if admit, _ := s.AdmitPrefetch(id); !admit {
			t.Fatalf("unexpected shadow contents: %d not admitted", id)
		}
	}
}
