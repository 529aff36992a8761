package vcache

import (
	"fmt"
	"sync/atomic"
)

// wholeIndex is the index of a cache in its whole-table form (see PinWhole):
// one slot word per id of the table and a prefetched flag per id, shared by
// every shard. A slot is of the cache's arena, and the id's shard owns it
// while the id holds it, as in the partial form.
type wholeIndex struct {
	// slots[id] is id's slot+1, 0 when id is not resident. Written under
	// the id's shard lock, read with or without it.
	slots []atomic.Uint32
	// prefetched is a bitset over ids: bit id%64 of word id/64 marks an
	// entry inserted by prefetch admission and not yet requested.
	prefetched []atomic.Uint64
}

func newWholeIndex(n int) *wholeIndex {
	return &wholeIndex{slots: make([]atomic.Uint32, n), prefetched: make([]atomic.Uint64, (n+63)/64)}
}

// find returns id's slot, or nilIdx when id is not resident or outside the
// table.
func (w *wholeIndex) find(id uint32) uint32 {
	if int(id) >= len(w.slots) {
		return nilIdx
	}
	return w.slots[id].Load() - 1
}

// request clears id's prefetched flag, reporting whether it was set: of
// several concurrent requests of a prefetched entry exactly one sees it.
func (w *wholeIndex) request(id uint32) bool {
	return w.setPrefetched(id, false)
}

func (w *wholeIndex) isPrefetched(id uint32) bool {
	return w.prefetched[id/64].Load()&(1<<(id%64)) != 0
}

// setPrefetched sets or clears id's prefetched flag, reporting whether it
// was set. It is a compare-and-swap loop rather than atomic.Uint64's Or and
// And: Go 1.24.0's amd64 compiler clobbers a live register in the loop it
// emits for an And whose result is used.
func (w *wholeIndex) setPrefetched(id uint32, prefetched bool) (was bool) {
	word, bit := &w.prefetched[id/64], uint64(1)<<(id%64)
	for {
		old := word.Load()
		next := old &^ bit
		if prefetched {
			next = old | bit
		}
		if old == next || word.CompareAndSwap(old, next) {
			return old&bit != 0
		}
	}
}

// sizeBytes is the index's footprint: 4 B per id and a bit per id.
func (w *wholeIndex) sizeBytes() int64 {
	return int64(len(w.slots))*4 + int64(len(w.prefetched))*8
}

// PinWhole gives the cache its whole-table form in place: it pins every id
// in [0, n), keeping every resident entry of them and dropping any other.
// The shards' probe tables, records, recency lists and any pinned index
// give way to one slot word per id and a prefetched-flag bitset, so a hit
// (Get, GetBatch) is an atomic load under the caller's lease, with no shard
// lock; a miss, a fill and Remove take the shard lock as before, and a
// removed slot waits out the same lease grace. Nothing is ever evicted:
// each shard's capacity is the number of ids of [0, n) that hash to it, and
// Cap is n. An id outside [0, n) is refused. Resize and Pin end the form
// (see reform); PinWhole on a cache already whole over n ids changes
// nothing.
func (c *Cache) PinWhole(n int) {
	c.lockAll()
	defer c.unlockAll()
	old := c.whole.Load()
	if old != nil && len(old.slots) == n {
		return
	}
	caps := make([]int, len(c.shards))
	for id := range uint32(n) {
		caps[Hash(id)&c.shardMask]++
	}
	w := newWholeIndex(n)
	// The retired index's word for an entry is cleared before the entry's
	// slot can be parked, as in reform.
	keep := func(s *shard, id, slot uint32, prefetched bool) {
		if int(id) >= n {
			s.park(c, slot)
			s.used--
			return
		}
		w.slots[id].Store(slot + 1)
		w.setPrefetched(id, prefetched)
	}
	if old != nil {
		for id := range uint32(len(old.slots)) {
			if slot := old.find(id); slot != nilIdx {
				old.slots[id].Store(0)
				keep(c.shardOf(id), id, slot, old.isPrefetched(id))
			}
		}
	}
	if p := c.pin.Load(); p != nil {
		p.each(func(id, slot uint32) {
			p.slots[p.rank(id)].Store(0)
			keep(c.shardOf(id), id, slot, false)
		})
	}
	for i := range c.shards {
		s := &c.shards[i]
		for _, m := range s.meta {
			if m.segflags&holeBit == 0 {
				keep(s, m.id, m.slot, m.segflags&prefetchedBit != 0)
			}
		}
		s.idx, s.meta, s.freeRec, s.holes = nil, nil, nilIdx, 0
		s.pin, s.pinned = nil, 0
		s.sealed.Store(nil)
		for k := range s.segs {
			s.segs[k] = segment{head: nilIdx, tail: nilIdx}
		}
		s.capacity = caps[i]
	}
	c.pin.Store(nil)
	c.whole.Store(w)
	c.capacity.Store(int64(n))
}

// Whole reports whether the cache has its whole-table form (see PinWhole).
func (c *Cache) Whole() bool { return c.whole.Load() != nil }

func (c *Cache) lockAll() {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
}

func (c *Cache) unlockAll() {
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
}

// getWhole is GetBatch on a whole-table cache: a hit is a load of the id's
// slot word, with no lock; a miss takes the id's shard lock and runs step,
// which finds the id again in whatever form the cache has by then.
func (c *Cache) getWhole(w *wholeIndex, ids []uint32, views [][]byte, miss func(int) []byte) (prefetchHits int) {
	for i, id := range ids {
		slot := w.find(id)
		if slot == nilIdx {
			s := c.shardOf(id)
			s.mu.Lock()
			prefetchHits += s.step(c, ids, views, i, miss)
			s.mu.Unlock()
			continue
		}
		if w.request(id) {
			prefetchHits++
		}
		if views != nil {
			views[i] = c.payload(slot)
		}
	}
	return prefetchHits
}

// step is GetBatch's step for ids[i] under s.mu, in the form the cache has:
// a hit sets views[i], a miss runs miss(i) and inserts its non-nil result as
// a requested entry unless the shard refuses the id. It returns 1 for a hit
// on a prefetched entry.
func (s *shard) step(c *Cache, ids []uint32, views [][]byte, i int, miss func(int) []byte) int {
	w := c.whole.Load()
	if w == nil {
		if c.lockFree(s.pin, s, ids, views, i, miss) {
			return 0
		}
		pre, _ := s.probe(c, ids, views, i, s.idxFind(ids[i]), miss)
		return pre
	}
	id := ids[i]
	if slot := w.find(id); slot != nilIdx {
		if views != nil {
			views[i] = c.payload(slot)
		}
		if w.request(id) {
			return 1
		}
		return 0
	}
	if miss != nil {
		if p := miss(i); p != nil {
			s.addWhole(c, w, id, p, false)
		}
	}
	return 0
}

// addWhole is addAt on a whole-table cache, under s.mu: it stores payload
// for id in a fresh slot (or keeps the resident one when the bytes are
// equal) and sets id's prefetched flag, before it publishes the slot word,
// so a lock-free reader that sees the word sees both. It reports false when
// id is outside the table.
func (s *shard) addWhole(c *Cache, w *wholeIndex, id uint32, payload []byte, prefetched bool) bool {
	if int(id) >= len(w.slots) {
		return false
	}
	c.checkPayload(payload)
	old := w.find(id)
	if old != nilIdx && bytesEqual(c.payload(old), payload) {
		w.setPrefetched(id, prefetched)
		return true
	}
	slot := s.alloc(c)
	copy(c.payload(slot), payload)
	w.setPrefetched(id, prefetched)
	w.slots[id].Store(slot + 1)
	if old == nilIdx {
		s.used++
	} else {
		s.park(c, old)
	}
	return true
}

// removeWhole is Remove on a whole-table cache, under s.mu: the slot word
// is cleared before the slot is parked, so the lease rule holds as in the
// partial form.
func (s *shard) removeWhole(c *Cache, w *wholeIndex, id uint32) bool {
	slot := w.find(id)
	if slot == nilIdx {
		return false
	}
	w.slots[id].Store(0)
	w.setPrefetched(id, false)
	s.park(c, slot)
	s.used--
	return true
}

// checkWhole validates a whole-table cache under every shard lock: no shard
// keeps a probe table, records, a pinned index or a listed entry; each
// shard holds as many entries as it counts; a prefetched flag is set only
// on a resident id; and every slot the cache minted is resident, free or in
// limbo in exactly one shard (see checkArena).
func (c *Cache) checkWhole() error {
	w := c.whole.Load()
	if c.Cap() != len(w.slots) {
		return fmt.Errorf("whole cache over %d ids has capacity %d", len(w.slots), c.Cap())
	}
	for si := range c.shards {
		s := &c.shards[si]
		if s.idx != nil || s.meta != nil || s.pin != nil || s.pinned != 0 || s.sealed.Load() != nil || s.listHead() != nilIdx || c.pin.Load() != nil {
			return fmt.Errorf("shard %d of a whole cache keeps partial-form state", si)
		}
	}
	resident := make([][]uint32, len(c.shards))
	for id := range uint32(len(w.slots)) {
		slot := w.find(id)
		if slot == nilIdx {
			if w.isPrefetched(id) {
				return fmt.Errorf("id %d is flagged prefetched and not resident", id)
			}
			continue
		}
		si := Hash(id) & c.shardMask
		resident[si] = append(resident[si], slot)
	}
	slots := make(map[uint32]int)
	for si := range c.shards {
		s := &c.shards[si]
		if len(resident[si]) != s.used || s.used > s.capacity {
			return fmt.Errorf("shard %d: %d ids resident, used records %d of capacity %d", si, len(resident[si]), s.used, s.capacity)
		}
		if err := s.accountSlots(si, resident[si], slots); err != nil {
			return err
		}
	}
	return c.checkArena(slots)
}
