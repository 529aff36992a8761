package vcache

// CheckInvariants exposes the internal consistency checker to tests.
func (c *Cache) CheckInvariants() error { return c.checkInvariants() }

// LimboLen returns the number of slots waiting out the lease grace period,
// for reclamation tests.
func (c *Cache) LimboLen() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.limbo) - s.limboHead
		s.mu.Unlock()
	}
	return n
}

// LimboCap returns the total capacity of the shards' limbo backing arrays,
// for bounding the limbo's memory in tests.
func (c *Cache) LimboCap() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += cap(s.limbo)
		s.mu.Unlock()
	}
	return n
}

// MintedSlots returns the number of payload slots the cache's arena ever
// minted, for bounding transient overshoot in tests.
func (c *Cache) MintedSlots() int {
	c.arenaMu.Lock()
	defer c.arenaMu.Unlock()
	return int(c.nextSlot)
}

// SlabSlots returns the slots per slab of the cache's arena.
func (c *Cache) SlabSlots() int { return 1 << c.slabShift }

// ShardCapacities returns each shard's capacity, in shard order (a shard's
// index is Hash(id) modulo NumShards).
func (c *Cache) ShardCapacities() []int {
	caps := make([]int, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		caps[i] = s.capacity
		s.mu.Unlock()
	}
	return caps
}

// ShardUnlocked reports whether id's shard lock is free at the moment of
// the call (it takes and drops it when it is), for tests of the lock-free
// paths.
func (c *Cache) ShardUnlocked(id uint32) bool {
	s := c.shardOf(id)
	if !s.mu.TryLock() {
		return false
	}
	s.mu.Unlock()
	return true
}
