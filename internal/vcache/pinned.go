package vcache

import (
	"math/bits"
	"sync/atomic"
)

// pinIndex is the index of a pinned cache's held entries (see Pin): one
// slot word per id of the pinned set, addressed by the id's rank in the set,
// shared by every shard. A slot is of the cache's arena, and the id's shard
// owns it while the id holds it.
type pinIndex struct {
	// set is the pinned set, a bitset over ids (the caller's, never
	// written); ranks[w] is how many of its ids precede word w.
	set   []uint64
	ranks []uint32
	// slots[rank] is the held id's slot+1, 0 when the id is not held.
	// Written under the id's shard lock, read with or without it.
	slots []atomic.Uint32
}

func newPinIndex(set []uint64) *pinIndex {
	p := &pinIndex{set: set, ranks: make([]uint32, len(set))}
	n := 0
	for w, word := range set {
		p.ranks[w] = uint32(n)
		n += bits.OnesCount64(word)
	}
	p.slots = make([]atomic.Uint32, n)
	return p
}

// rank returns id's rank in the pinned set, or -1 when id is not in it or
// p is nil.
func (p *pinIndex) rank(id uint32) int {
	if p == nil || int(id/64) >= len(p.set) {
		return -1
	}
	word, bit := p.set[id/64], uint64(1)<<(id%64)
	if word&bit == 0 {
		return -1
	}
	return int(p.ranks[id/64]) + bits.OnesCount64(word&(bit-1))
}

// find returns the slot holding id, or nilIdx when id is not held (or p is
// nil).
func (p *pinIndex) find(id uint32) uint32 {
	k := p.rank(id)
	if k < 0 {
		return nilIdx
	}
	return p.slots[k].Load() - 1
}

// sizeBytes is the index's footprint: a slot word per pinned id and a rank
// per word of the set. The set is the caller's.
func (p *pinIndex) sizeBytes() int64 {
	return int64(len(p.slots))*4 + int64(len(p.ranks))*4
}

// each calls fn for every held id of p in ascending order, with its slot.
func (p *pinIndex) each(fn func(id, slot uint32)) {
	for w, word := range p.set {
		for ; word != 0; word &= word - 1 {
			id := uint32(w*64 + bits.TrailingZeros64(word))
			if slot := p.find(id); slot != nilIdx {
				fn(id, slot)
			}
		}
	}
}

// Resize changes the total capacity in place with the same exact split as
// New and incremental per-shard eviction: entries outside the evicted
// overflow survive, so a live cache rebalances without losing its working
// set. It ends a pinned set (see Pin): its held ids join the head of the
// recency list in id order, so the highest is the most recent. It ends the
// whole-table form (see PinWhole) the same way, its prefetched entries
// behind the requested ones. Capacity is clamped to one entry per shard;
// returns the recorded capacity.
func (c *Cache) Resize(capacity int) int {
	n := len(c.shards)
	capacity = max(capacity, n)
	caps := make([]int, n)
	for i := range caps {
		caps[i] = capacity / n
		if i < capacity%n {
			caps[i]++
		}
	}
	c.lockAll()
	defer c.unlockAll()
	c.reform(nil, caps)
	c.capacity.Store(int64(capacity))
	return capacity
}

// Pin gives the cache the pinned set in place: set is a bitset over ids (bit
// id%64 of word id/64), which the cache keeps and never writes, so the
// caller must not write it either. Each shard's capacity becomes the number
// of set ids that hash to it (the total is the set's size; a shard no id
// hashes to holds nothing). A resident id of the set that has been asked
// for is held off the recency list for good, in a slot word addressed by
// its rank in the set — no record, no probe entry, and a hit on it (Get,
// GetBatch) takes no lock. A held id that leaves the set joins the head of
// the list's last segment, in id order, and the list's overflow is evicted
// from its LRU end. From then on a pinned id is never evicted once asked
// for, and the capacity the set has not filled holds other ids, as an LRU
// (see the package comment). A later Pin replaces the set; Resize ends it.
// Pin ends the whole-table form as Resize does.
func (c *Cache) Pin(set []uint64) {
	p := newPinIndex(set)
	caps := make([]int, len(c.shards))
	total := 0
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			caps[Hash(uint32(w*64+bits.TrailingZeros64(word)))&c.shardMask]++
			total++
		}
	}
	c.lockAll()
	defer c.unlockAll()
	c.reform(p, caps)
	c.capacity.Store(int64(total))
}

// reform gives the cache, in whatever form it has, the partial form under
// the pinned index p (nil: no pinned set) with shard capacities caps, in
// place, under every shard lock. Listed entries stay where they are, save a
// requested one p pins, which p holds. An entry held before — by the
// previous pinned index, or by the whole-table index, whose prefetched
// entries join the head of the last segment first — stays held when p pins
// it and is requested, and otherwise joins the head of the last segment
// (the first without a set), in id order. Then each shard evicts its
// list's overflow from the LRU end, rebalances its segments, and sizes its
// records and probe table to its room. The retired pinned or whole-table
// index's words are cleared before that, so a lock-free reader still
// holding it takes the lock and finds the new form, and never reads a slot
// an eviction parks: a slot parked with no lease active goes straight back
// to the free list (see park).
func (c *Cache) reform(p *pinIndex, caps []int) {
	whole, old := c.whole.Load(), c.pin.Load()
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity, s.pin, s.pinned = caps[i], p, 0
		// Every resident entry may be listed before the overflow goes.
		if want := indexLen(max(s.used, s.capacity)); len(s.idx) < want {
			s.rehash(want)
		}
		for r := range s.meta {
			m := s.meta[r]
			if m.segflags&(holeBit|prefetchedBit) != 0 {
				continue
			}
			if k := p.rank(m.id); k >= 0 {
				s.listRemove(uint32(r))
				s.idxDelete(m.id)
				s.freeRecord(uint32(r))
				p.slots[k].Store(m.slot + 1)
				s.pinned++
			}
		}
	}
	// relist files an entry held before that p does not hold at the head of
	// segment seg, or -1 for the head of the last.
	relist := func(id, slot uint32, flags uint32, seg int) {
		s := c.shardOf(id)
		if flags == 0 {
			if k := p.rank(id); k >= 0 {
				p.slots[k].Store(slot + 1)
				s.pinned++
				return
			}
		}
		if seg < 0 {
			seg = len(s.segs) - 1
		}
		r := s.newRecord(id, slot, flags)
		s.idxInsert(id, r)
		s.pushFront(seg, r)
		s.rebalance(seg)
	}
	seg := 0
	if p != nil {
		seg = -1
	}
	if whole != nil {
		// Each flag is read once: a lock-free hit may clear it meanwhile.
		var requested []uint32
		for id := range uint32(len(whole.slots)) {
			if slot := whole.find(id); slot != nilIdx {
				if whole.isPrefetched(id) {
					relist(id, slot, prefetchedBit, -1)
				} else {
					requested = append(requested, id)
				}
			}
		}
		for _, id := range requested {
			relist(id, whole.find(id), 0, seg)
		}
		for id := range whole.slots {
			whole.slots[id].Store(0)
		}
	}
	if old != nil {
		old.each(func(id, slot uint32) { relist(id, slot, 0, seg) })
		for k := range old.slots {
			old.slots[k].Store(0)
		}
	}
	for i := range c.shards {
		s := &c.shards[i]
		for s.used > s.capacity {
			if _, ok := s.evictOne(c); !ok {
				break
			}
		}
		for seg := range s.segs {
			s.rebalance(seg)
		}
		if len(s.idx) != indexLen(s.room()) || cap(s.meta) != s.used-s.pinned {
			s.compact()
		}
		s.reseal()
	}
	c.pin.Store(p)
	c.whole.Store(nil)
}
