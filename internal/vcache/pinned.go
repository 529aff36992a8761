package vcache

import (
	"math/bits"
	"sync/atomic"
)

// pinIndex is the index of a pinned cache's held entries (see
// Options.Pinned and Options.Whole): one slot word per id of the pinned set,
// addressed by the id's rank in the set, shared by every shard. A slot is of
// the cache's arena, and the id's shard owns it while the id holds it.
//
// The set is explicit (Pinned) or implied (Whole). An implied set is every
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

// newPinIndex is the index of the explicit set set; nil is the empty set
// of a cache with no pinned ids.
func newPinIndex(set []uint64) *pinIndex {
	if set == nil {
		set = []uint64{}
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
// recency list: true for an explicit set, false for an implied one.
func (p *pinIndex) lends() bool { return p.set != nil }

// rank returns id's rank in the pinned set, or -1 when id is not in it.
func (p *pinIndex) rank(id uint32) int {
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

// find returns the slot holding id, or nilIdx when id is not held.
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

// request is hit on id's rank: nilIdx when id is not held.
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

// Whole reports whether the cache's pinned set is implied (see
// Options.Whole).
func (c *Cache) Whole() bool { return !c.pin.lends() }
