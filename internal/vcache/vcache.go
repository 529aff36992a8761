// Package vcache implements a pointer-free, arena-backed vector cache: the
// DRAM tier of the store with zero heap objects per cached entry.
//
// A cache of heap entries (a map entry, a list node, a value struct and its
// slice headers per vector) costs ~100+ bytes of pointer-bearing overhead per
// 128-byte fp16 vector, and every GC cycle scans all of it. At tens of
// millions of cached vectors that scan time dominates GC pauses and steals
// CPU from the ~120 ns hit path.
//
// vcache stores the fp16 payloads themselves in one slab arena per cache
// (one slot class per table, slot size = the table's vector size), indexes
// them with an open-addressing hash table of packed (id, record) words, and
// tracks recency with an intrusive prev/next uint32 list packed into 20-byte
// slot records. The shards share the arena: slots are minted in order from
// one frontier, so the arena holds the slots the cache has minted to within
// one slab, and a slab owns its allocator span (see slabSlots). The only
// heap objects are the slabs and a handful of flat slices per shard; a
// listed entry costs ~20 B of record plus ~11 B of index, a held pinned
// entry (see Pin) a 4-byte slot word, and the GC sees no per-entry pointers
// at all.
//
// The cache is sharded (hash-routed, power-of-two shard count, exact
// capacity split — or, after Pin, each shard sized to the ids of a pinned
// set that hash to it) and each shard is a segmented LRU. Its eviction queue is
// cut into Segments runs (fewer if the shard holds fewer entries), and every
// run but the last holds at most ceil(capacity/segments) entries. Inserting
// at queue position pos in [0,1] puts an entry at the head of segment
// floor(pos*segments) and a hit moves it to the head of segment 0; a run
// over its bound passes its tail to the head of the next run, and a full
// shard evicts the tail of its last non-empty run. An entry inserted at pos
// therefore outlives about (1-pos)*capacity insertions (§4.3.1's insertion
// position), and a cache whose every insert and hit lands at 0 is an exact
// LRU whatever its segment count.
//
// # Pinned set
//
// Pin gives the cache a set of ids it never evicts once asked for. A pinned
// id inserted or hit as a requested entry is held off the recency list: it
// keeps no record and no probe entry, only a slot word (slot+1, 0 when
// absent) addressed by its rank in the set — a bit test, a popcount over
// one word and a rank directory of one cumulative count per 64 ids —, so a
// hit on it (Get, GetBatch) is one atomic load under the caller's lease,
// with no shard lock, and moves nothing. Every other entry — a pinned id a
// neighbour's read brought in included, until its first hit — is listed
// and evicted as above; the lists' records and probe tables are sized to the
// room the pinned entries leave them, so they shrink as the set fills in.
// Each shard's capacity becomes the number of pinned ids that hash to it,
// so the pinned ids fit at once, and the capacity they have not yet filled
// is lent to the list: inserting a pinned id into a full shard evicts the
// list's tail, and a full shard whose every entry is pinned is sealed: it
// refuses anything else without taking its lock, and GetBatch answers such
// an id as a miss without the lock too, running the miss callback
// lock-free and never filling (Sealed reports a cache whose every shard is
// sealed). Which ids are pinned is the cache's own state, read under the
// shard lock, so a caller acting on an older verdict cannot displace a
// pinned id.
//
// A cache that holds its whole table can never evict, so it needs neither
// recency nor a hash index: PinWhole(n) pins the implied set of every id
// of [0, n), which the store takes whenever a cache covers its table and no
// pin verdict gives it a set. Its rank is the id itself, so it keeps no
// bitset and no rank directory, and it lends no room: an entry of it that
// prefetch admission inserted is held in its slot word too, marked by the
// word's top bit until the first request clears it with an atomic
// compare-and-swap. The shards keep no probe tables, records or recency
// lists: 4 B per vector of the table in place of ~31 B per listed vector.
//
// Warm fills a pinned cache ahead of its requests: each id it is given that
// the cache does not hold is copied into room the shard has free, never
// evicting, and listed unrequested at the position given, where the store
// puts it at the cold end. Like a prefetched entry it stays listed until
// its first request, which holds it in its slot word; unlike one, that
// request counts as a plain hit. A warm entry nothing asked for is evicted
// before whatever was listed after it, and its slot skips limbo.
//
// A hit on a held entry moves nothing; a miss, a fill, GetBatch's miss
// callback (but a sealed shard's) and Remove take the shard lock, and the
// lease rule below holds for slot words as for records: a fill publishes
// the slot word after the payload, and Remove clears it before parking the
// slot. Resize, Pin and PinWhole convert the cache in place under every
// shard lock, keeping every entry they have room for and clearing the words
// of the index they retire before they park any slot.
//
// It is the one segmented LRU in the product: the store serves from it, and
// with SlotBytes 0 (keys only) sim.Replay, the shadow-cache admission
// policies and mrc's ground truth run on it too, so what the miniature
// caches predict is what this code does. The randomized order tests hold it
// to a plain slice-per-segment model, operation by operation.
//
// # Recency list
//
// Each shard has a single MRU→LRU list and a segment is a consecutive run of
// it, described by head/tail cursors and a size. The tail of segment i
// already sits directly in front of segment i+1's head, so "move it to the
// head of segment i+1" moves the boundary instead of the entry: two cursor
// updates and the entry's segment tag, no relinking. Inserting into an empty
// segment finds its neighbours through the adjacent non-empty segments'
// cursors; unlinking an entry fixes the cursors of the segment that owns it.
//
// # View lifetime and leases
//
// Get returns read-only views directly into the arenas (the store's zero-copy
// serving path). A slot freed by eviction or removal is eventually reused, so a
// view must not outlive its request. Readers bracket a request with
// release := c.Lease(); ... release(), and reclamation is epoch-based: an
// evicted slot is parked in a limbo list stamped with the current lease
// epoch, and reused only once the epoch has advanced twice — which requires
// every lease that could have observed the slot to have been released. Slots
// parked while no lease is active anywhere skip limbo entirely, and so does
// the slot of a listed entry that no hit has handed out: a lease can hold a
// view only of a slot a hit gave it, so a listed record is marked when a hit
// hands out its view (a held slot word, which a lock-free hit reads, counts
// as handed out, and so does a held entry relisted), and dropping or
// replacing an unmarked record frees its slot at once. Payloads are
// never overwritten in place: replacing a live entry's value relocates it to
// a fresh slot and parks the old one, so a leased view is immutable for the
// lease's lifetime.
//
// The limbo is a FIFO consumed from the front. Under steady miss traffic
// leases overlap and it never drains, so its consumed prefix is compacted
// away whenever it outgrows the live part: the limbo's memory is
// proportional to the evictions inside one lease grace window, not to the
// evictions since start-up.
//
// Callers that want a copy instead of a view use GetFunc, which runs their
// closure under the shard lock; the closure copies or decodes and the result
// needs no lease.
package vcache

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// nilIdx is the nil slot index (list terminator, empty index entry marker).
const nilIdx = ^uint32(0)

// Segments is the positional-insertion segment count per shard (clamped to
// the shard's capacity).
const Segments = 16

// minSlabBytes is the smallest slab of a cache that holds at least that
// much: 8 KiB is the smallest Go size class whose span holds a single
// object, so such a slab owns its span and no transient allocation shares
// it (see slabSlots). Slabs are minted lazily from the cache's one
// frontier, so the arena exceeds the slots minted by less than one slab.
const minSlabBytes = 8 << 10

// prefetchedBit marks an entry inserted by prefetch admission and not yet
// requested, packed above the segment number in slotMeta.segflags, and
// warmBit one a warm fill listed (see Warm) and no request has asked for
// yet; unrequested is either. holeBit marks a record on the shard's chain
// of free records. seenBit marks a record whose slot a hit has handed out
// as a view: only such a slot can be under a lease, so only it waits out
// the lease grace when the entry leaves (see park).
const (
	segMask       = 0xFFFF
	prefetchedBit = 1 << 16
	holeBit       = 1 << 17
	warmBit       = 1 << 18
	seenBit       = 1 << 19
	unrequested   = prefetchedBit | warmBit
)

// slotMeta is a listed entry's record: its key, its payload slot, its
// intrusive recency-list links (record numbers, not pointers) and its
// segment/flag word. 20 bytes, no pointers — the GC never visits it. An
// entry held off the list in a pinned slot word has none.
type slotMeta struct {
	id       uint32
	slot     uint32
	prev     uint32
	next     uint32
	segflags uint32
}

// recordBytes is the size of one slot record.
const recordBytes = int64(unsafe.Sizeof(slotMeta{}))

// limboSlot is an evicted slot awaiting lease-grace reclamation.
type limboSlot struct {
	slot  uint32
	epoch uint64
}

// segment is one region of a shard's eviction queue, ordered MRU→LRU.
// head/tail are record numbers into the shard's meta array.
type segment struct {
	head uint32
	tail uint32
	size int
}

// shard is one independently locked slice of the cache. All fields but
// sealed are guarded by mu. The struct is comfortably larger than
// a cache line, so neighbouring shard locks do not false-share.
type shard struct {
	mu       sync.Mutex
	capacity int
	used     int

	// pin is the cache's pinned index (see Pin; nil: no pinned set) and
	// pinned the number of resident entries its slot words hold, which used
	// counts too. Every other entry is listed: on the recency list, with a
	// record and a probe-table entry.
	pin    *pinIndex
	pinned int
	// sealed is pin while the shard holds only requested pinned ids and is
	// full, so it refuses every id outside the set; nil otherwise. It is
	// read without the lock (see refuses).
	sealed atomic.Pointer[pinIndex]

	// Open-addressing index of the listed entries, with linear probing and
	// backward-shift deletion. Each word packs record<<32 | id; a word with
	// record == nilIdx is empty. idxMask wraps a probe position, idxShift
	// maps an id to its home (see home); both follow len(idx), a power of
	// two. A shard of an implied pinned set (see PinWhole) keeps none.
	idx      []uint64
	idxMask  uint32
	idxShift uint

	// meta holds one record per listed entry, by record number. A record
	// freed by an entry leaving the list joins the chain that starts at
	// freeRec (linked through next; holes counts it) and is reused first.
	// fit keeps meta and idx sized to the room the list has (see room).
	meta    []slotMeta
	freeRec uint32
	holes   int

	// free holds immediately reusable slots of the cache's arena that this
	// shard retired; limbo[limboHead:] holds the slots it evicted that are
	// waiting out the lease grace period, oldest first (park compacts the
	// consumed prefix away).
	free      []uint32
	limbo     []limboSlot
	limboHead int

	segs []segment

	// touched is where GetBatch's locate pass leaves what it read of the
	// records, so that the reads are not optimised away.
	touched uint32
}

// Options configures New.
type Options struct {
	// Capacity is the total entry budget across all shards. Must be > 0.
	Capacity int
	// SlotBytes is the fixed payload size of every entry (the table's
	// fp16 vector size). 0 makes a keys-only cache: no slab is ever
	// allocated and every view is empty. Must not be negative.
	SlotBytes int
	// Shards is the requested shard count, rounded up to a power of two and
	// halved until it does not exceed Capacity (every shard holds at least
	// one entry); <= 0 selects one shard.
	Shards int
}

// Cache is the sharded arena cache. Construct with New.
type Cache struct {
	slotBytes int
	slabShift uint
	shardMask uint64
	capacity  atomic.Int64

	// pin is the pinned index (see Pin and PinWhole), nil without a pinned
	// set. It changes only under every shard lock, so a holder of any shard
	// lock sees it fixed.
	pin atomic.Pointer[pinIndex]

	// The payload arena, shared by every shard: slabs of 1<<slabShift slots
	// each, minted in slot order from nextSlot under arenaMu. A shard mints
	// (see alloc) only when its free list and limbo have nothing to give,
	// and arenaMu is a leaf taken under the minting shard's lock. A slot,
	// once minted, is the cache's: the shard whose id holds it, frees it or
	// parks it in limbo owns it until it hands it out again. slabs is the
	// slab directory, read without a lock by every hit (see payload).
	arenaMu  sync.Mutex
	nextSlot uint32
	slabs    atomic.Pointer[[][]byte]

	// Lease epoch machinery. cnt[e&1] counts live leases acquired during
	// epoch e; the epoch may advance from e to e+1 only while cnt[(e+1)&1]
	// is zero, so a parked slot stamped at epoch p is provably unobservable
	// once the epoch reaches p+2. Each counter gets its own cache line.
	epoch    atomic.Uint64
	cnt      [2]paddedCount
	releases [2]func()

	shards []shard
}

type paddedCount struct {
	n atomic.Int64
	_ [56]byte
}

// Hash is the splitmix64-style finalizer whose low bits route an id to its
// shard. The store stripes its per-table serving counters by it too.
func Hash(id uint32) uint64 {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New builds a Cache. Capacity must be positive and SlotBytes not negative.
func New(opts Options) *Cache {
	if opts.Capacity <= 0 {
		panic(fmt.Sprintf("vcache: capacity must be positive, got %d", opts.Capacity))
	}
	if opts.SlotBytes < 0 {
		panic(fmt.Sprintf("vcache: slot size must not be negative, got %d", opts.SlotBytes))
	}
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	for n > opts.Capacity {
		n >>= 1
	}

	c := &Cache{
		slotBytes: opts.SlotBytes,
		shardMask: uint64(n - 1),
		shards:    make([]shard, n),
	}
	c.capacity.Store(int64(opts.Capacity))
	c.releases[0] = func() { c.cnt[0].n.Add(-1) }
	c.releases[1] = func() { c.cnt[1].n.Add(-1) }

	c.slabShift = uint(bits.TrailingZeros(uint(slabSlots(opts.Capacity, opts.SlotBytes))))

	base, rem := opts.Capacity/n, opts.Capacity%n
	for i := range c.shards {
		sc := base
		if i < rem {
			sc++
		}
		c.shards[i].init(sc)
	}
	return c
}

// slabSlots is how many slots a slab of a cache of capacity slots of
// slotBytes each holds, a power of two: the fewest whose slab is at least
// minSlabBytes, or, in a cache whose whole capacity is smaller than that,
// its capacity rounded up to a power of two. With a power-of-two slot size
// a slab of the first kind is a power of two of at least 8 KiB, a Go size
// class of one object per span, so it owns its span. A smaller power of two
// does not: a 4 KiB slab shares its 8 KiB span with whatever else is
// allocated at that size, and the span stays in use while either lives. A
// keys-only cache (slotBytes 0) allocates no slab.
func slabSlots(capacity, slotBytes int) int {
	per := 1
	for slotBytes > 0 && per*slotBytes < minSlabBytes && per < capacity {
		per <<= 1
	}
	return per
}

func (s *shard) init(capacity int) {
	s.capacity = capacity
	s.freeRec = nilIdx
	s.segs = make([]segment, min(Segments, capacity))
	for i := range s.segs {
		s.segs[i] = segment{head: nilIdx, tail: nilIdx}
	}
	s.idx = newIndex(indexLen(capacity))
	s.idxMask, s.idxShift = uint32(len(s.idx)-1), indexShift(s.idx)
}

// indexLen is the probe-table length for n entries: a power of two, at
// least 8, that holds n+1 entries at <= 0.75 load.
func indexLen(n int) int {
	want := max(8, (4*(n+1)+2)/3)
	return 1 << bits.Len(uint(want-1))
}

// newIndex allocates an empty probe table of n words.
func newIndex(n int) []uint64 {
	idx := make([]uint64, n)
	for i := range idx {
		idx[i] = uint64(nilIdx) << 32
	}
	return idx
}

// indexShift is the home() shift for a probe table of len(idx) entries.
func indexShift(idx []uint64) uint { return uint(33 - bits.Len32(uint32(len(idx)))) }

// NumShards returns the shard count.
func (c *Cache) NumShards() int { return len(c.shards) }

// Cap returns the total configured capacity.
func (c *Cache) Cap() int { return int(c.capacity.Load()) }

// SlotBytes returns the fixed per-entry payload size.
func (c *Cache) SlotBytes() int { return c.slotBytes }

// Len returns the number of cached entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.used
		s.mu.Unlock()
	}
	return n
}

func (c *Cache) shardOf(id uint32) *shard {
	return &c.shards[Hash(id)&c.shardMask]
}

// Contains reports whether id is cached, without affecting recency.
func (c *Cache) Contains(id uint32) bool {
	s := c.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pin.find(id) != nilIdx || s.idxFind(id) != nilIdx
}

// Lease marks the start of a request that will hold arena views (Get
// results). The returned release function must be called when the request is
// done with every view it obtained; it is safe to call from another
// goroutine. Lease/release are two atomic adds — no allocation, no lock.
func (c *Cache) Lease() func() {
	for {
		e := c.epoch.Load()
		b := e & 1
		c.cnt[b].n.Add(1)
		if c.epoch.Load() == e {
			return c.releases[b]
		}
		// The epoch moved mid-acquisition: this increment may be in a bucket
		// already treated as drained. Back out and retry on the new epoch.
		c.cnt[b].n.Add(-1)
	}
}

// tryAdvance moves the lease epoch forward when the bucket about to be
// entered has no live leases (i.e. all leases from epoch-1 released).
func (c *Cache) tryAdvance() {
	e := c.epoch.Load()
	if c.cnt[(e+1)&1].n.Load() == 0 {
		c.epoch.CompareAndSwap(e, e+1)
	}
}

// payload returns slot's arena bytes (read-write; callers hand out read-only
// subslices), nil in a keys-only cache.
func (c *Cache) payload(slot uint32) []byte {
	if c.slotBytes == 0 {
		return nil
	}
	slab := (*c.slabs.Load())[slot>>c.slabShift]
	off := int(slot&(1<<c.slabShift-1)) * c.slotBytes
	return slab[off : off+c.slotBytes : off+c.slotBytes]
}

// ---- open-addressing index ----

// home is id's first probe position in a table of 1<<(32-shift) entries. It
// mixes the id itself (Fibonacci hashing: the top bits of id times 2^32/phi)
// instead of reusing Hash, which only routes ids to shards:
// backward-shift deletion and index growth recompute the home of every entry
// they move, and an inlined multiply there is what keeps an eviction from
// costing a chain of indirect hash calls.
func home(id uint32, shift uint) uint32 { return (id * 0x9E3779B1) >> shift }

// idxFind returns the slot stored for id, or nilIdx.
func (s *shard) idxFind(id uint32) uint32 {
	if len(s.idx) == 0 {
		return nilIdx
	}
	i := home(id, s.idxShift)
	for {
		e := s.idx[i]
		if uint32(e>>32) == nilIdx {
			return nilIdx
		}
		if uint32(e) == id {
			return uint32(e >> 32)
		}
		i = (i + 1) & s.idxMask
	}
}

// idxInsert adds (id -> slot); id must not be present.
func (s *shard) idxInsert(id, slot uint32) {
	i := home(id, s.idxShift)
	for uint32(s.idx[i]>>32) != nilIdx {
		i = (i + 1) & s.idxMask
	}
	s.idx[i] = uint64(slot)<<32 | uint64(id)
}

// idxUpdate rewrites id's slot in place (relocation on value replace).
func (s *shard) idxUpdate(id, slot uint32) {
	i := home(id, s.idxShift)
	for uint32(s.idx[i]) != id || uint32(s.idx[i]>>32) == nilIdx {
		i = (i + 1) & s.idxMask
	}
	s.idx[i] = uint64(slot)<<32 | uint64(id)
}

// idxDelete removes id using backward-shift deletion, which keeps probe
// chains dense (no tombstones, no periodic rebuilds).
func (s *shard) idxDelete(id uint32) {
	i := home(id, s.idxShift)
	for {
		e := s.idx[i]
		if uint32(e>>32) == nilIdx {
			return // not present
		}
		if uint32(e) == id {
			break
		}
		i = (i + 1) & s.idxMask
	}
	// Shift later chain members back over the hole. Entry e at position j may
	// move into the hole at i iff its home k lies cyclically at or before i,
	// i.e. (j - k) mod size >= (j - i) mod size.
	j := i
	for {
		j = (j + 1) & s.idxMask
		e := s.idx[j]
		if uint32(e>>32) == nilIdx {
			break
		}
		k := home(uint32(e), s.idxShift)
		if (j-k)&s.idxMask >= (j-i)&s.idxMask {
			s.idx[i] = e
			i = j
		}
	}
	s.idx[i] = uint64(nilIdx) << 32
}

// rehash rebuilds the probe table at n words (0: none) over the listed
// records.
func (s *shard) rehash(n int) {
	idx := newIndex(n)
	mask, shift := uint32(n-1), indexShift(idx)
	for r, m := range s.meta {
		if m.segflags&holeBit != 0 {
			continue
		}
		i := home(m.id, shift)
		for uint32(idx[i]>>32) != nilIdx {
			i = (i + 1) & mask
		}
		idx[i] = uint64(r)<<32 | uint64(m.id)
	}
	s.idx, s.idxMask, s.idxShift = idx, mask, shift
}

// ---- records ----

// room is how many entries the recency list may hold: the capacity the
// pinned entries have not filled, or none where the pinned set lends none.
func (s *shard) room() int {
	if !s.pin.lends() {
		return 0
	}
	return s.capacity - s.pinned
}

// indexWords is the probe-table length the list's room needs: none when
// the pinned set lends no room.
func (s *shard) indexWords() int {
	if !s.pin.lends() {
		return 0
	}
	return indexLen(s.room())
}

// newRecord files a record for id in slot, reusing a freed one first. A
// full meta grows by doubling, but not past room+1 records (an insert
// into a full shard lists its entry before it evicts) while that leaves
// room to grow.
func (s *shard) newRecord(id, slot, flags uint32) uint32 {
	m := slotMeta{id: id, slot: slot, prev: nilIdx, next: nilIdx, segflags: flags}
	if r := s.freeRec; r != nilIdx {
		s.freeRec = s.meta[r].next
		s.holes--
		s.meta[r] = m
		return r
	}
	if len(s.meta) == cap(s.meta) {
		n := max(8, 2*cap(s.meta))
		if most := s.room() + 1; most > len(s.meta) {
			n = min(n, most)
		}
		grown := make([]slotMeta, len(s.meta), n)
		copy(grown, s.meta)
		s.meta = grown
	}
	s.meta = append(s.meta, m)
	return uint32(len(s.meta) - 1)
}

// freeRecord chains record r, whose entry has left the list and the index,
// onto the free records.
func (s *shard) freeRecord(r uint32) {
	s.meta[r] = slotMeta{prev: nilIdx, next: s.freeRec, segflags: holeBit}
	s.freeRec = r
	s.holes++
}

// fit keeps the probe table and the records sized to the list's room after
// it changed: the table grows as soon as the room needs it, and the table
// and the records are rebuilt to fit (see compact) once either holds more
// than twice what the room needs, so a pinned shard's list shrinks as its
// pinned ids fill in, without a rebuild per step.
func (s *shard) fit() {
	want := s.indexWords()
	switch {
	case len(s.idx) < want:
		s.rehash(want)
	case len(s.idx) > 2*want || cap(s.meta) > 2*(s.room()+1):
		s.compact()
	}
}

// compact renumbers the listed records in list order into a meta of
// exactly their number, with no free ones, and rebuilds the probe table at
// the room's size.
func (s *shard) compact() {
	meta := make([]slotMeta, 0, s.used-s.pinned)
	prev := nilIdx
	for i := range s.segs {
		sg := &s.segs[i]
		r := sg.head
		for k := range sg.size {
			m := s.meta[r]
			r = m.next
			nr := uint32(len(meta))
			if k == 0 {
				sg.head = nr
			}
			if k == sg.size-1 {
				sg.tail = nr
			}
			if prev != nilIdx {
				meta[prev].next = nr
			}
			m.prev, m.next = prev, nilIdx
			meta = append(meta, m)
			prev = nr
		}
	}
	s.meta, s.freeRec, s.holes = meta, nilIdx, 0
	s.rehash(s.indexWords())
}

// ---- intrusive segmented recency list ----
//
// One list per shard with the segments as consecutive runs of it (see the
// package comment), so prev/next links cross segment boundaries: the prev of
// a segment's head is the tail of the nearest non-empty segment before it.

// pushFront links record r in as the new head of segment seg.
func (s *shard) pushFront(seg int, r uint32) {
	sg := &s.segs[seg]
	prev, next := nilIdx, sg.head
	if next != nilIdx {
		prev = s.meta[next].prev
	} else {
		// Empty segment: its place in the list is between the adjacent
		// non-empty segments.
		for i := seg - 1; i >= 0 && prev == nilIdx; i-- {
			prev = s.segs[i].tail
		}
		for i := seg + 1; i < len(s.segs) && next == nilIdx; i++ {
			next = s.segs[i].head
		}
		sg.tail = r
	}
	m := &s.meta[r]
	m.segflags = m.segflags&^segMask | uint32(seg)
	m.prev, m.next = prev, next
	if prev != nilIdx {
		s.meta[prev].next = r
	}
	if next != nilIdx {
		s.meta[next].prev = r
	}
	sg.head = r
	sg.size++
}

// listRemove unlinks record r and fixes its segment's cursors.
func (s *shard) listRemove(r uint32) {
	m := &s.meta[r]
	sg := &s.segs[m.segflags&segMask]
	sg.size--
	if sg.size == 0 {
		sg.head, sg.tail = nilIdx, nilIdx
	} else if sg.head == r {
		sg.head = m.next
	} else if sg.tail == r {
		sg.tail = m.prev
	}
	if m.prev != nilIdx {
		s.meta[m.prev].next = m.next
	}
	if m.next != nilIdx {
		s.meta[m.next].prev = m.prev
	}
	m.prev, m.next = nilIdx, nilIdx
}

// rebalance cascades overflow from segment from into later ones so each
// segment holds at most ceil(capacity/segments) entries — the positional
// interpretation of segments stays stable. The tail of segment i already
// sits directly in front of segment i+1's run (or where that run would be),
// so moving it there changes the two segment records and the entry's
// segment tag, and no link.
//
// Every segment but the last is within bound between operations, and an
// insert or a promotion grows only the segment it lands in, so the cascade
// starts there and stops at the first segment it leaves within bound: the
// segments before and after are exactly what a walk over all of them would
// leave. Resize, which moves the bound itself, walks them all.
func (s *shard) rebalance(from int) {
	target := (s.capacity + len(s.segs) - 1) / len(s.segs)
	for i := from; i < len(s.segs)-1; i++ {
		sg, nx := &s.segs[i], &s.segs[i+1]
		if sg.size <= target {
			return
		}
		// size > target >= 1, so the victim's prev is in segment i too.
		for sg.size > target {
			victim := sg.tail
			m := &s.meta[victim]
			sg.tail = m.prev
			sg.size--
			m.segflags = m.segflags&^segMask | uint32(i+1)
			nx.head = victim
			if nx.tail == nilIdx {
				nx.tail = victim
			}
			nx.size++
		}
	}
}

// ---- slot allocation / reclamation ----

// alloc returns a payload slot: from the shard's free list, from its limbo
// once the lease grace has passed, or freshly minted from the cache's arena
// (see mint). Minting while evicted slots sit in limbo transiently
// overshoots the arena's slot budget by at most the number of evictions
// inside concurrent lease windows.
func (s *shard) alloc(c *Cache) uint32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot
	}
	if s.limboHead < len(s.limbo) {
		ls := s.limbo[s.limboHead]
		e := c.epoch.Load()
		if e < ls.epoch+2 {
			c.tryAdvance()
			e = c.epoch.Load()
		}
		if e >= ls.epoch+2 {
			s.limboHead++
			return ls.slot
		}
	}
	return c.mint()
}

// mint returns the cache's next unminted slot, adding a slab when the slot
// starts one. The caller holds a shard lock; arenaMu is taken under it.
func (c *Cache) mint() uint32 {
	c.arenaMu.Lock()
	defer c.arenaMu.Unlock()
	slot := c.nextSlot
	c.nextSlot++
	if c.slotBytes > 0 && int(slot)>>c.slabShift == len(c.slabDir()) {
		// A published directory's entries are never rewritten: the new slab
		// goes past every published length (append grows the backing array
		// geometrically, so minting stays amortized O(1) per slab), and the
		// header naming it is published after it is written.
		dir := append(c.slabDir(), make([]byte, c.slabBytes()))
		c.slabs.Store(&dir)
	}
	return slot
}

// slabBytes is the size of one slab.
func (c *Cache) slabBytes() int { return c.slotBytes << c.slabShift }

// slabDir returns the cache's slabs.
func (c *Cache) slabDir() [][]byte {
	if p := c.slabs.Load(); p != nil {
		return *p
	}
	return nil
}

// park retires a slot that is no longer reachable through the index. If no
// hit has handed it out as a view (seen false) or no lease is active
// anywhere it goes straight back to the free list; otherwise it waits out
// the epoch grace period in limbo. The caller must have removed the slot
// from the index before calling (under this shard's lock), which is what
// makes both fast paths sound: no lease holds a view of an unseen slot, and
// any lease acquired after the check starts cannot find the slot anymore.
func (s *shard) park(c *Cache, slot uint32, seen bool) {
	if !seen || c.cnt[0].n.Load() == 0 && c.cnt[1].n.Load() == 0 {
		s.free = append(s.free, slot)
		return
	}
	// alloc consumes limbo from limboHead and a steady flow of evictions never
	// lets it drain, so drop the consumed prefix once it is at least as long
	// as the live part: amortized one element copied per park, and the
	// backing array stays within a small multiple of the most slots ever
	// waiting at once.
	if dead := s.limboHead; dead > 0 && dead >= len(s.limbo)-dead {
		n := copy(s.limbo, s.limbo[dead:])
		s.limbo = s.limbo[:n]
		s.limboHead = 0
	}
	s.limbo = append(s.limbo, limboSlot{slot: slot, epoch: c.epoch.Load()})
	c.tryAdvance()
}

// evictOne removes the LRU entry of the last non-empty segment and returns
// its id.
func (s *shard) evictOne(c *Cache) (uint32, bool) {
	for i := len(s.segs) - 1; i >= 0; i-- {
		if r := s.segs[i].tail; r != nilIdx {
			id := s.meta[r].id
			s.drop(c, r)
			return id, true
		}
	}
	return 0, false
}

// drop removes the listed entry of record r from the list and the index,
// and retires its record and slot.
func (s *shard) drop(c *Cache, r uint32) {
	m := s.meta[r]
	s.listRemove(r)
	s.idxDelete(m.id)
	s.freeRecord(r)
	s.park(c, m.slot, m.segflags&seenBit != 0)
	s.used--
}

// list files record r, just unlinked or new, at the head of segment seg,
// or holds it in its pinned slot word when its id is pinned and has been
// asked for (neither unrequested flag is set).
func (s *shard) list(r uint32, seg int) {
	if m := &s.meta[r]; m.segflags&unrequested == 0 {
		if k := s.pin.rank(m.id); k >= 0 {
			s.hold(r, k)
			return
		}
	}
	s.pushFront(seg, r)
	s.rebalance(seg)
}

// hold moves the entry of record r, unlinked from the list, to the slot
// word of pin rank k: its probe entry and record go, and the word is
// published last.
func (s *shard) hold(r uint32, k int) {
	m := s.meta[r]
	s.idxDelete(m.id)
	s.freeRecord(r)
	s.pin.slots[k].Store(m.slot + 1)
	s.pinned++
	s.fit()
	s.reseal()
}

// reseal records whether the shard is sealed: pinned, full, and holding
// only requested pinned ids, so that it refuses any other id.
func (s *shard) reseal() {
	var p *pinIndex
	if s.used >= s.capacity && s.used == s.pinned {
		p = s.pin
	}
	if s.sealed.Load() != p {
		s.sealed.Store(p)
	}
}

// ---- public operations ----

// segOf maps a queue position, clamped to [0,1], to segment
// floor(pos*segments), the last one for pos 1.
func segOf(pos float64, segments int) int {
	if pos < 0 {
		pos = 0
	}
	if pos > 1 {
		pos = 1
	}
	seg := int(pos * float64(segments))
	if seg >= segments {
		seg = segments - 1
	}
	return seg
}

// Add inserts id at the MRU position (or updates and promotes it).
func (c *Cache) Add(id uint32, payload []byte, prefetched bool) (uint32, bool) {
	return c.AddAt(id, payload, 0, prefetched)
}

// AddAt inserts id's payload at queue position pos in [0,1] within its
// shard (0 = MRU). The payload is copied into the arena; it must be exactly
// SlotBytes long. If id is already cached its value is replaced (relocating
// the slot if the bytes differ, so leased views of the old value stay
// intact) and it moves to the requested position. Returns the evicted id
// and true if the insertion evicted an entry. A pinned id is held off the
// recency list whatever pos says, and a full shard holding only pinned ids
// refuses an id outside the set (see Pin), without taking its lock.
func (c *Cache) AddAt(id uint32, payload []byte, pos float64, prefetched bool) (uint32, bool) {
	s := c.shardOf(id)
	if s.refuses(id) {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	victim, evicted, _ := s.addAt(c, id, payload, pos, prefetched)
	return victim, evicted
}

// AddAtGuard is AddAt fused with the serving path's insert guards, all under
// the shard lock: it aborts (returning false) when guard's value no longer
// equals want — the table was mutated since the caller decoded — or when
// prefetched is set and id is already cached (a concurrent lookup cached it
// as a requested entry; do not demote it), and reports false too when the
// shard refuses id (see AddAt).
func (c *Cache) AddAtGuard(id uint32, payload []byte, pos float64, prefetched bool, guard *atomic.Uint64, want uint64) bool {
	s := c.shardOf(id)
	if s.refuses(id) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if guard != nil && guard.Load() != want {
		return false
	}
	if !prefetched {
		_, _, ok := s.addAt(c, id, payload, pos, false)
		return ok
	}
	if s.pin.find(id) != nilIdx || s.idxFind(id) != nilIdx {
		return false
	}
	_, _, ok := s.insert(c, id, payload, pos, prefetchedBit)
	return ok
}

// Warm fills the cache ahead of its requests: each id of ids, in order,
// that the cache neither holds nor lists is copied from payload(id) into a
// fresh slot and listed at queue position pos as an unrequested entry (see
// the package comment), while its shard has room free. It never evicts,
// so an id whose shard is full is skipped, and it stops at the first id
// whose shard finds guard's value no longer equal to want, as AddAtGuard
// does. It returns how many ids it filled.
func (c *Cache) Warm(ids []uint32, payload func(id uint32) []byte, pos float64, guard *atomic.Uint64, want uint64) (filled int) {
	for _, id := range ids {
		s := c.shardOf(id)
		s.mu.Lock()
		if guard != nil && guard.Load() != want {
			s.mu.Unlock()
			break
		}
		if s.used < s.capacity && s.room() > 0 && s.pin.find(id) == nilIdx && s.idxFind(id) == nilIdx {
			s.insert(c, id, payload(id), pos, warmBit)
			filled++
		}
		s.mu.Unlock()
	}
	return filled
}

// Sealed reports whether every shard is sealed under the cache's pinned
// index (see reseal): the cache holds only requested pinned ids, all of
// them, and refuses every other id, so no fill or prefetch offer can change
// it. It takes no lock, so its answer is a snapshot: a Remove or a
// conversion may unseal a shard the moment after.
func (c *Cache) Sealed() bool {
	p := c.pin.Load()
	if p == nil {
		return false
	}
	for i := range c.shards {
		if c.shards[i].sealed.Load() != p {
			return false
		}
	}
	return true
}

// refuses reports, without the lock, that s is sealed (see reseal) and id
// is outside its pinned set: the locked path would refuse id from the same
// state. The seal names the index it was taken under, so a conversion
// since cannot pair one form's seal with another's set.
func (s *shard) refuses(id uint32) bool {
	p := s.sealed.Load()
	return p != nil && p.rank(id) < 0
}

// checkPayload panics unless payload is exactly one slot long.
func (c *Cache) checkPayload(payload []byte) {
	if len(payload) != c.slotBytes {
		panic(fmt.Sprintf("vcache: payload is %d bytes, slot size is %d", len(payload), c.slotBytes))
	}
}

// addAt is AddAt under s.mu. It returns the evicted id and true when the
// insert evicted one, and ok false when the shard refused id.
func (s *shard) addAt(c *Cache, id uint32, payload []byte, pos float64, prefetched bool) (victim uint32, evicted, ok bool) {
	seg := segOf(pos, len(s.segs))
	if k := s.pin.rank(id); k >= 0 {
		if slot := slotOf(s.pin.slots[k].Load()); slot != nilIdx {
			s.replaceHeld(c, id, k, slot, payload, seg, prefetched)
			return 0, false, true
		}
	}
	r := s.idxFind(id)
	if r == nilIdx {
		var flags uint32
		if prefetched {
			flags = prefetchedBit
		}
		return s.insert(c, id, payload, pos, flags)
	}
	c.checkPayload(payload)
	s.listRemove(r)
	m := &s.meta[r]
	seen := m.segflags & seenBit
	if !bytesEqual(c.payload(m.slot), payload) {
		// Never overwrite a slot a lease may be reading: relocate.
		next := s.alloc(c)
		copy(c.payload(next), payload)
		s.park(c, m.slot, seen != 0)
		m.slot, seen = next, 0
	}
	m.segflags = seen
	if prefetched {
		m.segflags |= prefetchedBit
	}
	s.list(r, seg)
	return 0, false, true
}

// replaceHeld is addAt for id, held in slot by pin rank k. An entry the
// index holds as inserted stays held, its word moved to a fresh slot when
// the bytes differ and its prefetched bit set as inserted; a prefetched one
// of a set that lends room leaves the word for the head of segment seg,
// evictable until it is asked for again.
func (s *shard) replaceHeld(c *Cache, id uint32, k int, slot uint32, payload []byte, seg int, prefetched bool) {
	c.checkPayload(payload)
	held, old := s.pin.holds(id, prefetched) >= 0, slot
	if !bytesEqual(c.payload(slot), payload) {
		slot = s.alloc(c)
		copy(c.payload(slot), payload)
	}
	if held {
		s.pin.slots[k].Store(heldWord(slot, prefetched))
	} else {
		s.pin.slots[k].Store(0)
		s.pinned--
	}
	if slot != old {
		s.park(c, old, true)
	}
	if !held {
		// The slot word may have handed the slot out.
		flags := uint32(prefetchedBit)
		if slot == old {
			flags |= seenBit
		}
		r := s.newRecord(id, slot, flags)
		s.idxInsert(id, r)
		s.pushFront(seg, r)
		s.rebalance(seg)
		s.fit()
		s.reseal()
	}
}

// insert is addAt for an id the caller has just found absent, under s.mu:
// it skips addAt's probe. flags is the entry's unrequested flag, if any
// (prefetchedBit or warmBit). An entry the pinned index holds (see
// pinIndex.holds) goes to its slot word; any other is listed, and a full
// shard makes room by evicting the tail of its list, but a shard whose list
// has no room refuses it.
func (s *shard) insert(c *Cache, id uint32, payload []byte, pos float64, flags uint32) (victim uint32, evicted, ok bool) {
	k := s.pin.holds(id, flags&unrequested != 0)
	if k < 0 && s.room() == 0 {
		return 0, false, false
	}
	c.checkPayload(payload)
	slot := s.alloc(c)
	copy(c.payload(slot), payload)
	s.used++
	if k >= 0 {
		s.pin.slots[k].Store(heldWord(slot, flags&prefetchedBit != 0))
		s.pinned++
	} else {
		r := s.newRecord(id, slot, flags)
		s.idxInsert(id, r)
		seg := segOf(pos, len(s.segs))
		s.pushFront(seg, r)
		s.rebalance(seg)
	}
	if s.used > s.capacity {
		victim, _ = s.evictOne(c)
		evicted = true
	}
	if k >= 0 {
		s.fit()
	}
	s.reseal()
	return victim, evicted, true
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// promote is a hit on the listed entry of record r: it moves the entry to
// the head of segment 0, or to its slot word when its id is pinned, and
// clears its prefetched flag. It returns the entry's slot, whether the flag
// was set, and whether the entry left the list (which may renumber the
// shard's records).
func (s *shard) promote(r uint32) (slot uint32, wasPrefetched, held bool) {
	m := &s.meta[r]
	slot = m.slot
	wasPrefetched = m.segflags&prefetchedBit != 0
	m.segflags = m.segflags&^unrequested | seenBit
	s.listRemove(r)
	if k := s.pin.rank(m.id); k >= 0 {
		// A pinned id brought in by a neighbour's read, asked for at last.
		s.hold(r, k)
		return slot, wasPrefetched, true
	}
	s.pushFront(0, r)
	s.rebalance(0)
	return slot, wasPrefetched, false
}

// get is a hit or a miss on id under s.mu: a held pinned entry is served
// as it is, a listed one is promoted.
func (s *shard) get(id uint32) (slot uint32, wasPrefetched, ok bool) {
	if slot, pre := s.pin.request(id); slot != nilIdx {
		return slot, pre, true
	}
	r := s.idxFind(id)
	if r == nilIdx {
		return nilIdx, false, false
	}
	slot, wasPrefetched, _ = s.promote(r)
	return slot, wasPrefetched, true
}

// Get returns a read-only arena view of id's payload, promotes the entry to
// its shard's MRU position and clears the prefetched flag, reporting whether
// the flag was set. The caller must hold a lease (see Lease) for as long as
// it reads the view. Allocation-free. A hit on a held pinned id takes no
// lock.
func (c *Cache) Get(id uint32) (payload []byte, wasPrefetched, ok bool) {
	if slot, pre := c.pin.Load().request(id); slot != nilIdx {
		return c.payload(slot), pre, true
	}
	s := c.shardOf(id)
	s.mu.Lock()
	slot, wasPrefetched, ok := s.get(id)
	if ok {
		payload = c.payload(slot)
	}
	s.mu.Unlock()
	return payload, wasPrefetched, ok
}

// GetBatch is Get for every id of ids, which must be distinct, taking each
// shard's lock once: a shard's ids are handled in their batch order, so
// every shard sees the operations a Get per id, in batch order, would have
// made on it. On a hit views[i] is set to ids[i]'s view (views may be nil
// for a caller that wants none, e.g. of a keys-only cache); on a miss
// views[i] is left alone and, when miss is non-nil, miss(i) runs under the
// shard's lock. A non-nil result of miss is inserted for ids[i] at the MRU
// position as a requested entry, as AddAt(ids[i], result, 0, false) would,
// before the shard's next id is probed. miss must not call into the cache,
// and must not depend on the order the ids' calls run in. Returns how many
// hits were on prefetched entries. The caller must hold a lease for as long
// as it reads the views.
//
// A hit on a held pinned id is served first, without the lock (it moves
// nothing, so no order sees it), and so is a miss on an id outside the
// pinned set whose shard is sealed under the pinned index GetBatch loaded:
// the shard refuses the id (see AddAt), so miss(i) runs without the lock
// and its result is not inserted. Only the other ids are chained to their
// shards. Under each shard lock the shard's ids are first located, up
// to locateWindow at a time — every index probe and record read before any
// entry moves, so their cache misses overlap instead of running one after
// another — and then probed, promoted or filled in batch order.
func (c *Cache) GetBatch(ids []uint32, views [][]byte, miss func(i int) []byte) (prefetchHits int) {
	if len(ids) == 0 {
		return 0
	}
	p := c.pin.Load()
	var run [locateWindow]int32
	if len(c.shards) == 1 || len(ids) == 1 {
		s := c.shardOf(ids[0])
		locked := false
		for lo := 0; lo < len(ids); {
			n := 0
			for ; lo < len(ids) && n < locateWindow; lo++ {
				if ok, pre := c.lockFree(p, s, ids, views, lo, miss); !ok {
					run[n] = int32(lo)
					n++
				} else if pre {
					prefetchHits++
				}
			}
			if n == 0 {
				continue
			}
			if !locked {
				s.mu.Lock()
				locked = true
			}
			prefetchHits += s.getRun(c, ids, run[:n], views, miss)
		}
		if locked {
			s.mu.Unlock()
		}
		return prefetchHits
	}
	// Chain each shard's ids in batch order: heads[s] is its first,
	// next[i] the one after i (-1 ends a chain). The scratch is taken at the
	// first id that needs a lock. The lock-free tests are lockFree written
	// out, over the index's slices loaded once per batch (none without p).
	var set []uint64
	var ranks []uint32
	var words []atomic.Uint32
	if p != nil {
		set, ranks, words = p.set, p.ranks, p.slots
	}
	var sc *batchScratch
	var heads, next []int32
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		k := -1
		if set == nil {
			if int(id) < len(words) {
				k = int(id)
			}
		} else if w, bit := id/64, uint64(1)<<(id%64); int(w) < len(set) && set[w]&bit != 0 {
			k = int(ranks[w]) + bits.OnesCount64(set[w]&(bit-1))
		}
		if k >= 0 {
			if word := words[k].Load(); word != 0 {
				if word&wordPrefetched != 0 && words[k].CompareAndSwap(word, word&^wordPrefetched) {
					prefetchHits++
				}
				if views != nil {
					views[i] = c.payload(slotOf(word))
				}
				continue
			}
		} else if p != nil && c.shards[Hash(id)&c.shardMask].sealed.Load() == p {
			if miss != nil {
				miss(i)
			}
			continue
		}
		if sc == nil {
			sc = batchScratchPool.Get().(*batchScratch)
			heads, next = grow(sc.heads, len(c.shards)), grow(sc.next, len(ids))
			for k := range heads {
				heads[k] = -1
			}
		}
		si := Hash(id) & c.shardMask
		next[i] = heads[si]
		heads[si] = int32(i)
	}
	if sc == nil {
		return prefetchHits
	}
	for si, i := range heads {
		if i < 0 {
			continue
		}
		s := &c.shards[si]
		s.mu.Lock()
		for i >= 0 {
			n := 0
			for ; i >= 0 && n < locateWindow; i = next[i] {
				run[n] = i
				n++
			}
			prefetchHits += s.getRun(c, ids, run[:n], views, miss)
		}
		s.mu.Unlock()
	}
	sc.heads, sc.next = heads, next
	batchScratchPool.Put(sc)
	return prefetchHits
}

// lockFree serves ids[i], whose shard is s, when p (the pinned index
// GetBatch loaded, nil for none) settles it without the shard's lock, and
// reports whether it did, and whether it served a hit on a prefetched
// entry: a hit when p holds the id, and a miss when the id is outside p's
// set and s is sealed under p. A sealed shard refuses such an id (see
// refuses), so it holds none and a fill could not add one: miss(i) runs,
// and its result is dropped.
func (c *Cache) lockFree(p *pinIndex, s *shard, ids []uint32, views [][]byte, i int, miss func(int) []byte) (ok, wasPrefetched bool) {
	k := p.rank(ids[i])
	if k >= 0 {
		slot, pre := p.hit(k)
		if slot == nilIdx {
			return false, false
		}
		if views != nil {
			views[i] = c.payload(slot)
		}
		return true, pre
	}
	if p == nil || s.sealed.Load() != p {
		return false, false
	}
	if miss != nil {
		miss(i)
	}
	return true, false
}

// locateWindow is how many of a shard's ids GetBatch locates at a time: the
// run and its records are arrays on the stack, so the pass needs no scratch.
const locateWindow = 32

// served marks an id getRun's locate pass has already served.
const served = nilIdx - 1

// getRun is GetBatch for ids[run[0]], ids[run[1]], ... — ids of s, in batch
// order — under s.mu: it serves the held pinned ids and locates every other
// one before any entry moves, then probes, promotes or fills them in order.
// It returns how many hits were on prefetched entries.
func (s *shard) getRun(c *Cache, ids []uint32, run []int32, views [][]byte, miss func(int) []byte) (prefetchHits int) {
	var recs [locateWindow]uint32
	var touched uint32
	for k, i := range run {
		if slot, pre := s.pin.request(ids[i]); slot != nilIdx {
			// Held since GetBatch looked: a hit that moves nothing.
			if pre {
				prefetchHits++
			}
			if views != nil {
				views[i] = c.payload(slot)
			}
			recs[k] = served
			continue
		}
		r := s.idxFind(ids[i])
		recs[k] = r
		if r != nilIdx {
			touched |= s.meta[r].segflags
		}
	}
	s.touched = touched
	// A located record holds until the run's first fill or pinned
	// promotion: an insert can evict, and so free, the record of a later id
	// of the same shard, and either can renumber the records.
	located := true
	for k, i := range run {
		r := recs[k]
		if r == served {
			continue
		}
		if !located {
			r = s.idxFind(ids[i])
		}
		pre, moved := s.probe(c, ids, views, int(i), r, miss)
		prefetchHits += pre
		located = located && !moved
	}
	return prefetchHits
}

// probe is GetBatch's step for ids[i], not held, whose record (nilIdx when
// absent) the caller has just located, under s.mu. It returns 1 for a hit
// on a prefetched entry, and whether the records may have moved.
func (s *shard) probe(c *Cache, ids []uint32, views [][]byte, i int, r uint32, miss func(int) []byte) (prefetchHit int, moved bool) {
	if r != nilIdx {
		slot, pre, held := s.promote(r)
		if pre {
			prefetchHit = 1
		}
		if views != nil {
			views[i] = c.payload(slot)
		}
		return prefetchHit, held
	}
	if miss != nil {
		if p := miss(i); p != nil {
			_, _, filled := s.insert(c, ids[i], p, 0, 0)
			return 0, filled
		}
	}
	return 0, false
}

// batchScratch is GetBatch's per-call chain scratch, pooled so a batch
// allocates nothing.
type batchScratch struct{ heads, next []int32 }

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// grow returns b resized to n, reallocating only when its capacity is short.
func grow(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// GetFunc is Get with the payload handed to fn under the shard lock instead
// of returned: fn must copy or decode what it needs and not retain the view.
// The result needs no lease. Promotes and clears the prefetched flag exactly
// like Get.
func (c *Cache) GetFunc(id uint32, fn func(payload []byte, wasPrefetched bool)) bool {
	s := c.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, wasPrefetched, ok := s.get(id)
	if ok {
		fn(c.payload(slot), wasPrefetched)
	}
	return ok
}

// Remove deletes id and reports whether it was present. A held pinned id's
// slot word is cleared before its slot is parked.
func (c *Cache) Remove(id uint32) bool {
	s := c.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if k := s.pin.rank(id); k >= 0 {
		if slot := slotOf(s.pin.slots[k].Load()); slot != nilIdx {
			s.pin.slots[k].Store(0)
			s.park(c, slot, true)
			s.used--
			s.pinned--
			s.fit()
			s.reseal()
			return true
		}
	}
	r := s.idxFind(id)
	if r == nilIdx {
		return false
	}
	s.drop(c, r)
	s.reseal()
	return true
}

// Refresh gives id new bytes where the cache holds it in a slot word, as
// AddAt of a requested entry does: the word moves to a fresh slot holding
// payload, published after the payload, and the old slot is parked, so the
// entry stays held and a sealed shard stays sealed (a prefetched entry of
// an implied set is one no longer: its bytes are the caller's). Any other
// entry of id is removed, as Remove does. It reports whether id stayed
// cached.
func (c *Cache) Refresh(id uint32, payload []byte) bool {
	s := c.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if k := s.pin.rank(id); k >= 0 {
		if slot := slotOf(s.pin.slots[k].Load()); slot != nilIdx {
			s.replaceHeld(c, id, k, slot, payload, 0, false)
			return true
		}
	}
	if r := s.idxFind(id); r != nilIdx {
		s.drop(c, r)
		s.reseal()
	}
	return false
}

// Stats is a point-in-time byte-accounting snapshot.
type Stats struct {
	Entries  int
	Capacity int
	Shards   int
	// BytesResident is the payload bytes of resident entries
	// (Entries * SlotBytes) — what the cache is actually holding for
	// serving.
	BytesResident int64
	// ArenaBytes is the cache's allocated slab bytes: resident payloads,
	// free and limbo slots, and the tail of the last slab not yet minted,
	// which is less than one slab.
	ArenaBytes int64
	// MetaBytes is the recency lists' slot records, as allocated (the
	// capacity of each shard's records, not only the ones in use);
	// IndexBytes their probe tables plus a pinned cache's slot words and,
	// for an explicit set, its rank directory.
	MetaBytes  int64
	IndexBytes int64
	// ListEntries is how many entries are on the recency lists (the rest
	// are held off them in pinned slot words), and ListBytes the lists'
	// records and probe tables, the part of MetaBytes + IndexBytes that
	// follows them.
	ListEntries int
	ListBytes   int64
	// Utilization is BytesResident / ArenaBytes (0 with no slabs).
	Utilization float64
	Slabs       int
	FreeSlots   int
	LimboSlots  int
	Epoch       uint64
}

// Stats gathers byte accounting across all shards.
func (c *Cache) Stats() Stats {
	st := Stats{
		Capacity: c.Cap(),
		Shards:   len(c.shards),
		Epoch:    c.epoch.Load(),
	}
	c.lockAll()
	defer c.unlockAll()
	if p := c.pin.Load(); p != nil {
		st.IndexBytes += p.sizeBytes()
	}
	st.Slabs = len(c.slabDir())
	st.ArenaBytes = int64(st.Slabs) * int64(c.slabBytes())
	for i := range c.shards {
		s := &c.shards[i]
		st.Entries += s.used
		records, probes := int64(cap(s.meta))*recordBytes, int64(len(s.idx))*8
		st.MetaBytes += records
		st.IndexBytes += probes
		st.ListBytes += records + probes
		st.ListEntries += s.used - s.pinned
		st.FreeSlots += len(s.free)
		st.LimboSlots += len(s.limbo) - s.limboHead
	}
	st.BytesResident = int64(st.Entries) * int64(c.slotBytes)
	if st.ArenaBytes > 0 {
		st.Utilization = float64(st.BytesResident) / float64(st.ArenaBytes)
	}
	return st
}

// ShardKeys returns the keys on shard i's recency list ordered MRU→LRU,
// segment by segment, and each key's prefetched flag, without promoting any;
// pinned entries are not on the list. Intended for tests and diagnostics;
// O(n).
func (c *Cache) ShardKeys(i int) (keys []uint32, prefetched []bool) {
	s := &c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	keys = make([]uint32, 0, s.used)
	prefetched = make([]bool, 0, s.used)
	for r := s.listHead(); r != nilIdx; r = s.meta[r].next {
		keys = append(keys, s.meta[r].id)
		prefetched = append(prefetched, s.meta[r].segflags&prefetchedBit != 0)
	}
	return keys, prefetched
}

// listHead returns the shard's MRU record: the head of the first non-empty
// segment.
func (s *shard) listHead() uint32 {
	for i := range s.segs {
		if h := s.segs[i].head; h != nilIdx {
			return h
		}
	}
	return nilIdx
}

// checkInvariants validates internal consistency; exposed to tests via
// export_test.go.
func (c *Cache) checkInvariants() error {
	c.lockAll()
	defer c.unlockAll()
	p := c.pin.Load()
	// held[si] is the ids shard si holds in slot words.
	held := make([]map[uint32]uint32, len(c.shards))
	capacity := 0
	for si := range c.shards {
		held[si] = make(map[uint32]uint32)
		if c.shards[si].pin != p {
			return fmt.Errorf("shard %d keeps a pinned index the cache does not", si)
		}
		capacity += c.shards[si].capacity
	}
	if capacity != c.Cap() {
		return fmt.Errorf("shard capacities sum to %d, the cache's is %d", capacity, c.Cap())
	}
	if p != nil {
		var err error
		p.each(func(id uint32, k int) {
			w := p.slots[k].Load()
			if w&wordPrefetched != 0 && (p.lends() || w == wordPrefetched) {
				err = fmt.Errorf("slot word of id %d reads %#x: flagged prefetched, and not held in an implied set", id, w)
			}
			if slot := slotOf(w); slot != nilIdx {
				held[Hash(id)&c.shardMask][id] = slot
			}
		})
		if err != nil {
			return err
		}
		total := 0
		for w, word := range p.set {
			if int(p.ranks[w]) != total {
				return fmt.Errorf("rank directory word %d reads %d, %d ids precede it", w, p.ranks[w], total)
			}
			total += bits.OnesCount64(word)
		}
		if p.lends() && total != len(p.slots) {
			return fmt.Errorf("pinned index has %d slot words for %d ids", len(p.slots), total)
		}
	}
	slots := make(map[uint32]int)
	for si := range c.shards {
		if err := c.shards[si].checkInvariants(si, held[si], slots); err != nil {
			return err
		}
	}
	return c.checkArena(slots)
}

// checkArena checks the cache's arena under every shard lock, given the
// shard that accounts for each slot (see shard.accountSlots): every slot
// the cache minted is resident, free or in limbo in exactly one shard, no
// unminted slot is, and the directory holds exactly the slabs the minted
// slots start, each a slab long.
func (c *Cache) checkArena(slots map[uint32]int) error {
	if len(slots) != int(c.nextSlot) {
		return fmt.Errorf("%d slots minted, %d accounted (resident+free+limbo)", c.nextSlot, len(slots))
	}
	for slot, si := range slots {
		if slot >= c.nextSlot {
			return fmt.Errorf("shard %d accounts for slot %d, %d minted", si, slot, c.nextSlot)
		}
	}
	want := 0
	if c.slotBytes > 0 {
		want = (int(c.nextSlot) + 1<<c.slabShift - 1) >> c.slabShift
	}
	dir := c.slabDir()
	if len(dir) != want {
		return fmt.Errorf("%d slabs for %d slots minted, %d per slab", len(dir), c.nextSlot, 1<<c.slabShift)
	}
	for i, slab := range dir {
		if len(slab) != c.slabBytes() {
			return fmt.Errorf("slab %d is %d B, want %d", i, len(slab), c.slabBytes())
		}
	}
	return nil
}

// accountSlots records in slots (slot → shard) that shard si accounts for
// each slot of resident, its free list and its limbo, and fails when a
// slot is accounted for twice, here or by another shard.
func (s *shard) accountSlots(si int, resident []uint32, slots map[uint32]int) error {
	account := func(slot uint32) error {
		if other, ok := slots[slot]; ok {
			return fmt.Errorf("shard %d: slot %d is accounted for twice (also by shard %d)", si, slot, other)
		}
		slots[slot] = si
		return nil
	}
	for _, slot := range resident {
		if err := account(slot); err != nil {
			return err
		}
	}
	for _, slot := range s.free {
		if err := account(slot); err != nil {
			return err
		}
	}
	for _, ls := range s.limbo[s.limboHead:] {
		if err := account(ls.slot); err != nil {
			return err
		}
	}
	return nil
}

// checkInvariants checks shard si of a partial cache, which holds the ids
// of held (id → slot) in slot words, under every shard lock, and adds the
// slots it accounts for to slots (see accountSlots).
func (s *shard) checkInvariants(si int, held map[uint32]uint32, slots map[uint32]int) error {
	total := 0
	seen := make(map[uint32]bool)
	// Walk the one list segment by segment: each segment's run starts where
	// the previous non-empty segment's run ended.
	prev, r := nilIdx, s.listHead()
	for i := range s.segs {
		sg := &s.segs[i]
		if sg.size == 0 {
			if sg.head != nilIdx || sg.tail != nilIdx {
				return fmt.Errorf("shard %d: empty segment %d has cursors (%d, %d)", si, i, sg.head, sg.tail)
			}
			continue
		}
		if sg.head != r {
			return fmt.Errorf("shard %d: segment %d head is record %d, list continues at record %d", si, i, sg.head, r)
		}
		for n := 0; n < sg.size; n++ {
			if r == nilIdx {
				return fmt.Errorf("shard %d: list ends %d entries into segment %d of size %d", si, n, i, sg.size)
			}
			m := &s.meta[r]
			if m.segflags&holeBit != 0 || int(m.segflags&segMask) != i {
				return fmt.Errorf("shard %d: record %d (flags %#x) listed in segment %d", si, r, m.segflags, i)
			}
			if m.prev != prev {
				return fmt.Errorf("shard %d: record %d prev link is %d, want %d", si, r, m.prev, prev)
			}
			if got := s.idxFind(m.id); got != r {
				return fmt.Errorf("shard %d: id %d indexed to record %d, listed in record %d", si, m.id, got, r)
			}
			if seen[m.id] {
				return fmt.Errorf("shard %d: id %d listed twice", si, m.id)
			}
			if s.pin.holds(m.id, m.segflags&unrequested != 0) >= 0 {
				return fmt.Errorf("shard %d: pinned id %d is listed, not held (flags %#x)", si, m.id, m.segflags)
			}
			if _, ok := held[m.id]; ok {
				return fmt.Errorf("shard %d: id %d is both listed and held", si, m.id)
			}
			seen[m.id] = true
			prev, r = r, m.next
		}
		if prev != sg.tail {
			return fmt.Errorf("shard %d: segment %d tail is record %d, run ends at record %d", si, i, sg.tail, prev)
		}
		total += sg.size
	}
	if r != nilIdx {
		return fmt.Errorf("shard %d: list continues at record %d past the last segment", si, r)
	}
	if len(held) != s.pinned || total+s.pinned != s.used {
		return fmt.Errorf("shard %d: segments hold %d entries and %d are held (%d counted), used records %d", si, total, len(held), s.pinned, s.used)
	}
	if s.used > s.capacity {
		return fmt.Errorf("shard %d over capacity: %d > %d", si, s.used, s.capacity)
	}
	var sealed *pinIndex
	if s.used >= s.capacity && s.used == s.pinned {
		sealed = s.pin
	}
	if s.sealed.Load() != sealed {
		return fmt.Errorf("shard %d: seal %v, want %v (used %d of %d, %d held)", si, s.sealed.Load() != nil, sealed != nil, s.used, s.capacity, s.pinned)
	}
	// The records are the listed ones and the free chain; the probe table
	// holds exactly the listed ids, at <= 0.75 load for the room.
	holes := 0
	for f := s.freeRec; f != nilIdx; f = s.meta[f].next {
		if s.meta[f].segflags&holeBit == 0 || holes > len(s.meta) {
			return fmt.Errorf("shard %d: free chain reaches live record %d", si, f)
		}
		holes++
	}
	if holes != s.holes || total+holes != len(s.meta) {
		return fmt.Errorf("shard %d: %d records for %d listed and %d free (%d counted)", si, len(s.meta), total, holes, s.holes)
	}
	live := 0
	for _, e := range s.idx {
		if uint32(e>>32) != nilIdx {
			live++
		}
	}
	if want := s.indexWords(); live != total || len(s.idx) < want || want == 0 && len(s.idx) != 0 {
		return fmt.Errorf("shard %d: probe table of %d words holds %d ids, %d listed, room %d", si, len(s.idx), live, total, s.room())
	}
	// Every slot the shard accounts for is its own: resident, free or in
	// limbo here and nowhere else.
	resident := make([]uint32, 0, s.used)
	for _, slot := range held {
		resident = append(resident, slot)
	}
	for k := range s.meta {
		if s.meta[k].segflags&holeBit == 0 {
			resident = append(resident, s.meta[k].slot)
		}
	}
	return s.accountSlots(si, resident, slots)
}
