package vcache

import (
	"math/bits"
	"sync/atomic"
)

// pinIndex is the index of a pinned cache's held entries (see Pin and
// PinWhole): one slot word per id of the pinned set, addressed by the id's
// rank in the set, shared by every shard. A slot is of the cache's arena,
// and the id's shard owns it while the id holds it.
//
// The set is explicit (Pin) or implied (PinWhole). An implied set is every
// id of [0, len(slots)), ranked by itself, with no bitset and no rank
// directory, and it lends no room: an unrequested id of it is held in its
// slot word with the word's prefetched bit, where an explicit set's joins
// the recency list until it is asked for.
type pinIndex struct {
	// set is an explicit pinned set, a bitset over ids (the caller's, never
	// written), nil for an implied one; ranks[w] is how many of its ids
	// precede word w.
	set   []uint64
	ranks []uint32
	// slots[rank] is the held id's slot+1, 0 when the id is not held, with
	// wordPrefetched set while a held entry of an implied set has not been
	// asked for. Written under the id's shard lock, read with or without
	// it; only a lock-free request clears the bit without the lock.
	slots []atomic.Uint32
}

// wordPrefetched marks a slot word whose entry was inserted by prefetch
// admission and not yet requested. A slot number never needs the bit.
const wordPrefetched = 1 << 31

// heldWord is the slot word that holds slot, flagged when prefetched.
func heldWord(slot uint32, prefetched bool) uint32 {
	if prefetched {
		return (slot + 1) | wordPrefetched
	}
	return slot + 1
}

// slotOf returns the slot a slot word holds, nilIdx for none.
func slotOf(word uint32) uint32 { return word&^wordPrefetched - 1 }

func newPinIndex(set []uint64) *pinIndex {
	if set == nil {
		set = []uint64{} // explicit, and empty
	}
	p := &pinIndex{set: set, ranks: make([]uint32, len(set))}
	n := 0
	for w, word := range set {
		p.ranks[w] = uint32(n)
		n += bits.OnesCount64(word)
	}
	p.slots = make([]atomic.Uint32, n)
	return p
}

// lends reports whether the capacity the set has not filled is lent to the
// recency list: true with no pinned set or an explicit one, false for an
// implied one.
func (p *pinIndex) lends() bool { return p == nil || p.set != nil }

// rank returns id's rank in the pinned set, or -1 when id is not in it or
// p is nil.
func (p *pinIndex) rank(id uint32) int {
	if p == nil {
		return -1
	}
	if p.set == nil {
		if int(id) >= len(p.slots) {
			return -1
		}
		return int(id)
	}
	if int(id/64) >= len(p.set) {
		return -1
	}
	word, bit := p.set[id/64], uint64(1)<<(id%64)
	if word&bit == 0 {
		return -1
	}
	return int(p.ranks[id/64]) + bits.OnesCount64(word&(bit-1))
}

// holds returns the rank of the slot word that holds an entry of id
// inserted as prefetched or requested, or -1 when the entry is listed: an
// id outside the set, or a prefetched one where the set lends room.
func (p *pinIndex) holds(id uint32, prefetched bool) int {
	if prefetched && p.lends() {
		return -1
	}
	return p.rank(id)
}

// find returns the slot holding id, or nilIdx when id is not held (or p is
// nil).
func (p *pinIndex) find(id uint32) uint32 {
	k := p.rank(id)
	if k < 0 {
		return nilIdx
	}
	return slotOf(p.slots[k].Load())
}

// hit is a request of rank k's entry, with or without the shard lock: it
// returns the slot (nilIdx when k holds none) and whether the request found
// the entry prefetched. It loads the word once and clears the prefetched
// bit by compare-and-swap only when it is set, so of several concurrent
// requests of a prefetched entry exactly one reports it.
func (p *pinIndex) hit(k int) (slot uint32, wasPrefetched bool) {
	w := p.slots[k].Load()
	if w&wordPrefetched != 0 {
		wasPrefetched = p.slots[k].CompareAndSwap(w, w&^wordPrefetched)
	}
	return slotOf(w), wasPrefetched
}

// request is hit on id's rank: nilIdx when id is not held (or p is nil).
func (p *pinIndex) request(id uint32) (slot uint32, wasPrefetched bool) {
	k := p.rank(id)
	if k < 0 {
		return nilIdx, false
	}
	return p.hit(k)
}

// sizeBytes is the index's footprint: a slot word per id of the set and a
// rank per word of an explicit set. The set is the caller's.
func (p *pinIndex) sizeBytes() int64 {
	return int64(len(p.slots))*4 + int64(len(p.ranks))*4
}

// each calls fn for every id of p's set in ascending order, with its rank.
func (p *pinIndex) each(fn func(id uint32, k int)) {
	if p.set == nil {
		for k := range p.slots {
			fn(uint32(k), k)
		}
		return
	}
	k := 0
	for w, word := range p.set {
		for ; word != 0; word &= word - 1 {
			fn(uint32(w*64+bits.TrailingZeros64(word)), k)
			k++
		}
	}
}

// Resize changes the total capacity in place with the same exact split as
// New and incremental per-shard eviction: entries outside the evicted
// overflow survive, so a live cache rebalances without losing its working
// set. It ends a pinned set (see Pin and PinWhole): its held ids join the
// head of the recency list in id order, so the highest is the most recent,
// and its held prefetched ones, an implied set's, join behind them.
// Capacity is clamped to one entry per shard; returns the recorded
// capacity.
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
// (see the package comment). A later Pin or PinWhole replaces the set;
// Resize ends it.
func (c *Cache) Pin(set []uint64) { c.pinAll(newPinIndex(set)) }

// PinWhole pins the implied set of every id in [0, n) in place (see Pin):
// rank is id, and the set lends no room, so every resident entry of those
// ids is held in its slot word, prefetched ones too, and any other is
// dropped. The shards keep no probe tables, records or recency lists, only
// the 4-byte slot words, and nothing is ever evicted; a hit (Get, GetBatch)
// is an atomic load under the caller's lease, with no shard lock, and the
// first request of a prefetched entry clears the word's prefetched bit. An
// id outside [0, n) is refused, and Cap is n. PinWhole on a cache already
// pinned whole over n ids changes nothing.
func (c *Cache) PinWhole(n int) {
	if p := c.pin.Load(); p != nil && !p.lends() && len(p.slots) == n {
		return
	}
	c.pinAll(&pinIndex{slots: make([]atomic.Uint32, n)})
}

// Whole reports whether the cache's pinned set is implied (see PinWhole).
func (c *Cache) Whole() bool {
	p := c.pin.Load()
	return p != nil && !p.lends()
}

// pinAll gives the cache the pinned index p, each shard's capacity the ids
// of p's set that hash to it.
func (c *Cache) pinAll(p *pinIndex) {
	caps := make([]int, len(c.shards))
	p.each(func(id uint32, _ int) { caps[Hash(id)&c.shardMask]++ })
	c.lockAll()
	defer c.unlockAll()
	c.reform(p, caps)
	c.capacity.Store(int64(len(p.slots)))
}

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

// reform gives the cache the pinned index p (nil: no pinned set) with shard
// capacities caps, in place, under every shard lock. Listed entries stay
// where they are, save those p holds (see pinIndex.holds), which p holds.
// An entry the previous index held stays held when p holds it, and
// otherwise joins the recency list: a prefetched one at the head of the
// last segment first, then the requested ones at the head of the first
// segment without a set and of the last with one, in id order. Then each
// shard evicts what its list holds past the room p leaves it from the LRU
// end, rebalances its segments, and sizes its records and probe table to
// that room. The retired index's words are cleared before that, so a
// lock-free reader still holding it takes the lock and finds the new form,
// and never reads a slot an eviction parks: a slot parked with no lease
// active goes straight back to the free list (see park).
func (c *Cache) reform(p *pinIndex, caps []int) {
	old := c.pin.Load()
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity, s.pin, s.pinned = caps[i], p, 0
		// Every resident entry may be listed before the overflow goes.
		if want := indexLen(max(s.used, s.room())); len(s.idx) < want {
			s.rehash(want)
		}
		for r := range s.meta {
			m := s.meta[r]
			if m.segflags&holeBit != 0 {
				continue
			}
			prefetched := m.segflags&prefetchedBit != 0
			if k := p.holds(m.id, m.segflags&unrequested != 0); k >= 0 {
				s.listRemove(uint32(r))
				s.idxDelete(m.id)
				s.freeRecord(uint32(r))
				p.slots[k].Store(heldWord(m.slot, prefetched))
				s.pinned++
			}
		}
	}
	// relist files an entry held before at p's slot word when p holds it,
	// and otherwise at the head of segment seg, or of the last for -1.
	relist := func(id, slot uint32, prefetched bool, seg int) {
		s := c.shardOf(id)
		if k := p.holds(id, prefetched); k >= 0 {
			p.slots[k].Store(heldWord(slot, prefetched))
			s.pinned++
			return
		}
		// A lock-free hit may have handed the held slot out.
		flags := uint32(seenBit)
		if prefetched {
			flags |= prefetchedBit
		}
		if seg < 0 {
			seg = len(s.segs) - 1
		}
		r := s.newRecord(id, slot, flags)
		s.idxInsert(id, r)
		s.pushFront(seg, r)
		s.rebalance(seg)
	}
	if old != nil {
		seg := 0
		if p != nil {
			seg = -1
		}
		// Prefetched entries first, then the requested ones. Each word is
		// read and cleared at once, so a lock-free request either cleared its
		// prefetched bit before, and it is relisted as requested, or finds
		// the word gone.
		old.each(func(id uint32, k int) {
			if w := old.slots[k].Load(); w&wordPrefetched != 0 && old.slots[k].CompareAndSwap(w, 0) {
				relist(id, slotOf(w), true, -1)
			}
		})
		old.each(func(id uint32, k int) {
			if w := old.slots[k].Swap(0); w != 0 {
				relist(id, slotOf(w), false, seg)
			}
		})
	}
	for i := range c.shards {
		s := &c.shards[i]
		for s.used-s.pinned > s.room() {
			if _, ok := s.evictOne(c); !ok {
				break
			}
		}
		for seg := range s.segs {
			s.rebalance(seg)
		}
		if len(s.idx) != s.indexWords() || cap(s.meta) != s.used-s.pinned {
			s.compact()
		}
		s.reseal()
	}
	c.pin.Store(p)
}
