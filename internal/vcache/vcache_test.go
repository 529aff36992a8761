package vcache_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"bandana/internal/vcache"
)

const testSlot = 8 // payload bytes per entry in these tests

func payloadFor(id uint32, gen byte) []byte {
	p := make([]byte, testSlot)
	p[0] = byte(id)
	p[1] = byte(id >> 8)
	p[2] = byte(id >> 16)
	p[3] = byte(id >> 24)
	p[4] = gen
	return p
}

// bitset is ids as the bitset Pin takes.
func bitset(ids []uint32) []uint64 {
	var set []uint64
	for _, id := range ids {
		for int(id/64) >= len(set) {
			set = append(set, 0)
		}
		set[id/64] |= 1 << (id % 64)
	}
	return set
}

func newTestCache(capacity, shards int) *vcache.Cache {
	return vcache.New(vcache.Options{Capacity: capacity, SlotBytes: testSlot, Shards: shards})
}

func TestBasicAddGet(t *testing.T) {
	c := newTestCache(64, 4)
	release := c.Lease()
	defer release()

	if _, _, ok := c.Get(7); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Add(7, payloadFor(7, 1), false)
	p, pre, ok := c.Get(7)
	if !ok {
		t.Fatal("expected hit")
	}
	if pre {
		t.Fatal("entry reported prefetched")
	}
	want := payloadFor(7, 1)
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("payload byte %d = %d, want %d", i, p[i], want[i])
		}
	}
	if !c.Contains(7) {
		t.Fatal("Contains(7) = false")
	}
	if c.Contains(8) {
		t.Fatal("Contains(8) = true")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchedFlag(t *testing.T) {
	c := newTestCache(64, 1)
	c.Add(1, payloadFor(1, 0), true)

	// Get clears the flag and reports it was set.
	if _, pre, ok := c.Get(1); !ok || !pre {
		t.Fatalf("Get = (_, %v, %v), want prefetched hit", pre, ok)
	}
	if _, pre, _ := c.Get(1); pre {
		t.Fatal("prefetched flag not cleared")
	}

	// Re-adding with prefetched=false on an existing prefetched entry
	// clears the flag (and vice versa).
	c.Add(2, payloadFor(2, 0), true)
	c.Add(2, payloadFor(2, 0), false)
	if _, pre, _ := c.Get(2); pre {
		t.Fatal("re-add did not clear prefetched flag")
	}
}

func TestEvictionOrderMatchesLRU(t *testing.T) {
	// Single shard: fill beyond capacity and check exact LRU eviction.
	c := newTestCache(4, 1)
	for id := uint32(0); id < 4; id++ {
		c.Add(id, payloadFor(id, 0), false)
	}
	c.Get(0) // promote 0; LRU order now 1,2,3
	victim, evicted := c.Add(100, payloadFor(100, 0), false)
	if !evicted || victim != 1 {
		t.Fatalf("evicted (%d, %v), want (1, true)", victim, evicted)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRelocatesUnderLease(t *testing.T) {
	c := newTestCache(8, 1)
	c.Add(1, payloadFor(1, 1), false)
	release := c.Lease()
	view, _, ok := c.Get(1)
	if !ok {
		t.Fatal("expected hit")
	}
	// Replace the value while the lease holds a view of the old one.
	c.Add(1, payloadFor(1, 2), false)
	if view[4] != 1 {
		t.Fatalf("leased view mutated: gen byte = %d, want 1", view[4])
	}
	fresh, _, _ := c.Get(1)
	if fresh[4] != 2 {
		t.Fatalf("updated value gen byte = %d, want 2", fresh[4])
	}
	release()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestParkFastPathWithoutLeases(t *testing.T) {
	c := newTestCache(4, 1)
	for id := uint32(0); id < 16; id++ {
		c.Add(id, payloadFor(id, 0), false)
	}
	if n := c.LimboLen(); n != 0 {
		t.Fatalf("limbo holds %d slots with no leases active", n)
	}
	// With no leases, evicted slots recycle. Insertion allocates before
	// evicting (the queue's insert-then-evict order), so at most one
	// transient slot above capacity is ever minted.
	if m := c.MintedSlots(); m > 5 {
		t.Fatalf("minted %d slots for capacity-4 cache", m)
	}
}

func TestLimboReclaim(t *testing.T) {
	c := newTestCache(2, 1)
	c.Add(1, payloadFor(1, 0), false)
	c.Add(2, payloadFor(2, 0), false)
	release := c.Lease()
	// The lease takes views of both entries, so either slot may be read.
	c.Get(1)
	c.Get(2)
	// Evict 1 while a lease is active: its slot must park in limbo.
	c.Add(3, payloadFor(3, 0), false)
	if n := c.LimboLen(); n != 1 {
		t.Fatalf("limbo holds %d slots, want 1", n)
	}
	release()
	// After release the epoch can advance; churn inserts until the parked
	// slot is reclaimed. Each insert evicts (capacity 2), and with no lease
	// active evictions recycle directly, so minted slots must stay bounded.
	for id := uint32(10); id < 20; id++ {
		c.Add(id, payloadFor(id, 0), false)
	}
	if n := c.LimboLen(); n != 0 {
		t.Fatalf("limbo still holds %d slots after lease release and churn", n)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddAtGuard(t *testing.T) {
	c := newTestCache(8, 1)
	var guard atomic.Uint64
	guard.Store(5)

	if !c.AddAtGuard(1, payloadFor(1, 0), 0, false, &guard, 5) {
		t.Fatal("guard insert with matching epoch rejected")
	}
	if c.AddAtGuard(2, payloadFor(2, 0), 0, false, &guard, 4) {
		t.Fatal("guard insert with stale epoch accepted")
	}
	if c.Contains(2) {
		t.Fatal("stale insert landed")
	}
	// Prefetch demotion: prefetched insert of an existing key aborts.
	if c.AddAtGuard(1, payloadFor(1, 9), 0, true, &guard, 5) {
		t.Fatal("prefetched insert over existing entry accepted")
	}
	if _, pre, _ := c.Get(1); pre {
		t.Fatal("existing entry demoted to prefetched")
	}
}

func TestResizeShrinkGrow(t *testing.T) {
	c := newTestCache(64, 4)
	for id := uint32(0); id < 64; id++ {
		c.Add(id, payloadFor(id, 0), false)
	}
	if got := c.Resize(16); got != 16 {
		t.Fatalf("Resize(16) = %d", got)
	}
	if c.Len() != 16 {
		t.Fatalf("Len after shrink = %d, want 16", c.Len())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := c.Resize(128); got != 128 {
		t.Fatalf("Resize(128) = %d", got)
	}
	if c.Len() != 16 {
		t.Fatalf("grow evicted entries: Len = %d", c.Len())
	}
	for id := uint32(100); id < 212; id++ {
		c.Add(id, payloadFor(id, 0), false)
	}
	// Hash routing is uneven, so some shards evict before others fill; the
	// total just must never exceed capacity (the exact per-shard order is
	// pinned by TestEquivalenceRandomized).
	if c.Len() > 128 || c.Len() < 100 {
		t.Fatalf("Len after refill = %d, want (100, 128]", c.Len())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Clamp: capacity below shard count.
	if got := c.Resize(1); got != c.NumShards() {
		t.Fatalf("Resize(1) = %d, want shard count %d", got, c.NumShards())
	}
}

// TestPinKeepsEveryPinnedID: Pin sizes each shard to its members' share and
// keeps the members already cached. The capacity the members have not filled
// holds other ids as an LRU, and each member inserted takes a place from them,
// never from another member; once every member is resident the cache refuses
// anything else. A member a prefetch brought in is an ordinary entry until
// its first hit. A later Resize splits evenly again and ends the set.
func TestPinKeepsEveryPinnedID(t *testing.T) {
	c := newTestCache(64, 8)
	for id := uint32(0); id < 64; id++ {
		c.Add(id, payloadFor(id, 0), false)
	}
	var set []uint32
	for id := uint32(32); id < 132; id += 2 { // 50 ids, 16 of them cached
		set = append(set, id)
	}
	c.Pin(bitset(set))
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := make([]int, c.NumShards())
	for _, id := range set {
		want[vcache.Hash(id)%uint64(c.NumShards())]++
	}
	if got := c.ShardCapacities(); c.Cap() != len(set) || !slices.Equal(got, want) {
		t.Fatalf("capacity %d, shard capacities %v; want %d, the members' shares %v", c.Cap(), got, len(set), want)
	}
	for id := uint32(32); id < 64; id += 2 {
		if !c.Contains(id) {
			t.Fatalf("Pin dropped member %d, which was cached", id)
		}
	}
	before := make([]int, c.NumShards()) // what each shard held before Pin
	for id := uint32(0); id < 64; id++ {
		si := vcache.Hash(id) % uint64(c.NumShards())
		before[si] = min(before[si]+1, 8)
	}
	kept := 0
	for i, n := range want {
		kept += min(n, before[i])
	}
	if c.Len() != kept {
		t.Fatalf("holding %d entries after Pin, want %d: each shard keeps what fits", c.Len(), kept)
	}
	for _, id := range set {
		c.Add(id, payloadFor(id, 1), false)
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint32(0); id < 200; id++ {
		if c.Contains(id) != slices.Contains(set, id) {
			t.Fatalf("id %d: cached %v, member %v", id, c.Contains(id), slices.Contains(set, id))
		}
	}
	for id := uint32(1000); id < 1100; id++ {
		if c.Add(id, payloadFor(id, 0), false); c.Contains(id) {
			t.Fatalf("non-member %d was cached in a cache full of members", id)
		}
	}
	if c.Len() != len(set) {
		t.Fatalf("holding %d entries, want the %d members", c.Len(), len(set))
	}
	// A prefetched member is evictable until asked for, then kept.
	c.Pin(bitset([]uint32{2000, 2001}))
	c.Add(2000, payloadFor(2000, 0), true)
	c.Add(2001, payloadFor(2001, 0), true)
	c.Get(2001)
	for id := uint32(3000); id < 3100; id++ {
		c.Add(id, payloadFor(id, 0), false)
	}
	if c.Contains(2000) || !c.Contains(2001) {
		t.Fatalf("after 100 inserts: prefetched member cached %v, the one hit since cached %v", c.Contains(2000), c.Contains(2001))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.Resize(64)
	if got := c.ShardCapacities(); !slices.Equal(got, []int{8, 8, 8, 8, 8, 8, 8, 8}) {
		t.Fatalf("shard capacities %v after Resize(64), want an even split", got)
	}
	for id := uint32(1000); id < 1100; id++ {
		c.Add(id, payloadFor(id, 0), false)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, id := range set {
		if c.Contains(id) {
			t.Fatalf("member %d survived 100 inserts after Resize ended the set", id)
		}
	}
}

// TestPinnedIDSurvivesRandomTraffic: under random inserts at random positions,
// hits, removals and re-pins, no pinned id that was asked for (inserted as a
// requested entry, or hit) leaves the cache except by Remove or a Pin that
// drops it from the set.
func TestPinnedIDSurvivesRandomTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := newTestCache(48, 4)
	var set []uint32
	pinSet := func() {
		set = set[:0]
		for id := uint32(0); id < 200; id++ {
			if rng.Intn(5) == 0 && len(set) < 48 {
				set = append(set, id)
			}
		}
		c.Pin(bitset(set))
	}
	pinSet()
	resident := map[uint32]bool{}
	for op := 0; op < 20000; op++ {
		id := uint32(rng.Intn(200))
		asked := false
		switch r := rng.Intn(100); {
		case r < 60:
			prefetched := rng.Intn(2) == 0
			c.AddAt(id, payloadFor(id, byte(op)), rng.Float64(), prefetched)
			asked = !prefetched
			if prefetched {
				delete(resident, id) // a re-insert as a prefetch files it anew
			}
		case r < 90:
			_, _, asked = c.Get(id)
		case r < 99:
			c.Remove(id)
			delete(resident, id)
		default:
			pinSet()
			for k := range resident {
				if !slices.Contains(set, k) {
					delete(resident, k)
				}
			}
		}
		if asked && slices.Contains(set, id) && c.Contains(id) {
			resident[id] = true
		}
		for k := range resident {
			if !c.Contains(k) {
				t.Fatalf("op %d: pinned id %d was evicted", op, k)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPayloadFreeCache: with SlotBytes 0 the cache keeps keys only — no slab
// is minted however many entries churn through it and views are empty — and
// the prefetched flag, AddAtGuard's resident check and the invariants work as
// with payloads. A negative slot size still panics.
func TestPayloadFreeCache(t *testing.T) {
	c := vcache.New(vcache.Options{Capacity: 1000, Shards: 4})
	for id := uint32(0); id < 10_000; id++ {
		c.AddAt(id, nil, float64(id%3)/2, false)
	}
	if st := c.Stats(); st.ArenaBytes != 0 || st.Slabs != 0 || st.Entries != 1000 {
		t.Fatalf("after 10k adds: %d arena bytes in %d slabs, %d entries", st.ArenaBytes, st.Slabs, st.Entries)
	}
	c.AddAt(20_000, nil, 0.5, true)
	if view, pre, ok := c.Get(20_000); !ok || !pre || len(view) != 0 {
		t.Fatalf("Get of a prefetch fill = (%d bytes, prefetched %v, hit %v)", len(view), pre, ok)
	}
	if _, pre, _ := c.Get(20_000); pre {
		t.Fatal("prefetched flag survived a hit")
	}
	if c.AddAtGuard(20_000, nil, 0.5, true, nil, 0) {
		t.Fatal("prefetch fill over a resident id accepted")
	}
	if !c.AddAtGuard(30_000, nil, 0.5, true, nil, 0) || !c.Contains(30_000) {
		t.Fatal("prefetch fill of a new id refused")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("New with SlotBytes -1 did not panic")
		}
	}()
	vcache.New(vcache.Options{Capacity: 8, SlotBytes: -1})
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with Capacity 0 did not panic")
		}
	}()
	vcache.New(vcache.Options{})
}

// TestAddAtClampsPosition: a position below 0 inserts at the MRU end, one
// above 1 at the head of the last segment.
func TestAddAtClampsPosition(t *testing.T) {
	c := vcache.New(vcache.Options{Capacity: 2 * vcache.Segments}) // segments of 2
	for id := uint32(0); id < 2*vcache.Segments; id++ {
		c.Add(id, nil, false)
	}
	c.AddAt(100, nil, -5, false)
	c.AddAt(101, nil, 7, false)
	if keys, _ := c.ShardKeys(0); keys[0] != 100 || keys[len(keys)-2] != 101 {
		t.Fatalf("MRU→LRU %v: want 100 first and 101 heading the last segment", keys)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	c := newTestCache(100, 4)
	for id := uint32(0); id < 50; id++ {
		c.Add(id, payloadFor(id, 0), false)
	}
	st := c.Stats()
	if st.Entries != 50 {
		t.Fatalf("Entries = %d", st.Entries)
	}
	if st.BytesResident != int64(50*testSlot) {
		t.Fatalf("BytesResident = %d", st.BytesResident)
	}
	if st.ArenaBytes < st.BytesResident {
		t.Fatalf("ArenaBytes %d < BytesResident %d", st.ArenaBytes, st.BytesResident)
	}
	if st.Slabs == 0 {
		t.Fatal("no slabs reported")
	}
	if st.Utilization <= 0 || st.Utilization > 1 {
		t.Fatalf("Utilization = %v", st.Utilization)
	}
}

// spec is the reference the order tests hold one shard to: the segmented LRU
// of the package comment written as plainly as it goes — one slice per
// segment, MRU first, ids found by linear search, and every change settled by
// evicting the overflow and then cascading each segment's excess into the
// next. It is single-goroutine and takes no locks.
type spec struct {
	capacity int
	segs     [][]specEntry
}

// specEntry is one cached id with the payload generation and the prefetched
// flag vcache keeps for it.
type specEntry struct {
	id   uint32
	gen  byte
	pre  bool
	warm bool // listed by a warm fill, not yet requested
}

func newSpec(capacity int) *spec {
	return &spec{capacity: capacity, segs: make([][]specEntry, min(vcache.Segments, capacity))}
}

// take unlinks id and returns its entry.
func (s *spec) take(id uint32) (specEntry, bool) {
	for si, seg := range s.segs {
		for i, e := range seg {
			if e.id == id {
				s.segs[si] = slices.Delete(seg, i, i+1)
				return e, true
			}
		}
	}
	return specEntry{}, false
}

func (s *spec) len() int {
	n := 0
	for _, seg := range s.segs {
		n += len(seg)
	}
	return n
}

// settle evicts the tail of the last non-empty segment while the shard is
// over capacity, then moves each segment's tail to the head of the next
// while it holds more than ceil(capacity/segments). It returns the last id
// evicted.
func (s *spec) settle() (victim uint32, evicted bool) {
	for s.len() > s.capacity {
		last := len(s.segs) - 1
		for len(s.segs[last]) == 0 {
			last--
		}
		n := len(s.segs[last])
		victim, evicted = s.segs[last][n-1].id, true
		s.segs[last] = s.segs[last][:n-1]
	}
	target := (s.capacity + len(s.segs) - 1) / len(s.segs)
	for i := 0; i+1 < len(s.segs); i++ {
		for n := len(s.segs[i]); n > target; n-- {
			s.segs[i+1] = slices.Insert(s.segs[i+1], 0, s.segs[i][n-1])
			s.segs[i] = s.segs[i][:n-1]
		}
	}
	return victim, evicted
}

// addAt (re)inserts e at the head of the segment pos names.
func (s *spec) addAt(e specEntry, pos float64) (uint32, bool) {
	s.take(e.id)
	seg := min(int(min(max(pos, 0), 1)*float64(len(s.segs))), len(s.segs)-1)
	s.segs[seg] = slices.Insert(s.segs[seg], 0, e)
	return s.settle()
}

// get returns id's entry as it was and moves it, its prefetched flag
// cleared, to the head of segment 0.
func (s *spec) get(id uint32) (specEntry, bool) {
	e, ok := s.take(id)
	if ok {
		s.segs[0] = slices.Insert(s.segs[0], 0, specEntry{id: e.id, gen: e.gen})
		s.settle()
	}
	return e, ok
}

// keys returns the ids MRU→LRU with their prefetched flags.
func (s *spec) keys() ([]uint32, []bool) {
	keys, pre := []uint32{}, []bool{}
	for _, seg := range s.segs {
		for _, e := range seg {
			keys = append(keys, e.id)
			pre = append(pre, e.pre)
		}
	}
	return keys, pre
}

// specShards is one spec per shard with vcache's routing and capacity split
// (a power-of-two shard count clamped to the capacity, the remainder going
// to the first shards).
type specShards []*spec

func newSpecShards(capacity, shards int) specShards {
	n := 1
	for n < shards {
		n <<= 1
	}
	for n > capacity {
		n >>= 1
	}
	r := make(specShards, n)
	for i := range r {
		r[i] = newSpec(shardCap(capacity, n, i))
	}
	return r
}

// shardCap is shard i's share of capacity split over n shards.
func shardCap(capacity, n, i int) int {
	c := capacity / n
	if i < capacity%n {
		c++
	}
	return c
}

func (r specShards) of(id uint32) *spec { return r[vcache.Hash(id)&uint64(len(r)-1)] }

func (r specShards) resize(capacity int) int {
	capacity = max(capacity, len(r))
	for i, s := range r {
		s.capacity = shardCap(capacity, len(r), i)
		s.settle()
	}
	return capacity
}

// checkAdd compares the eviction an AddAt reported with the spec's.
func checkAdd(t *testing.T, step int, id, victim uint32, evicted bool, wantVictim uint32, wantEvicted bool) {
	t.Helper()
	if victim != wantVictim || evicted != wantEvicted {
		t.Fatalf("step %d: AddAt(%d) evicted (%d, %v), spec (%d, %v)", step, id, victim, evicted, wantVictim, wantEvicted)
	}
}

// TestEquivalenceRandomized drives vcache and the per-shard spec with
// identical randomized op streams (Add/AddAt/Get/Remove/Resize) and asserts
// identical evictions, contents, sizes and exact per-shard MRU->LRU key
// order after every operation batch. sim.Replay tunes admission on this
// cache, so this is the contract that keeps it meaning what the package
// comment says.
func TestEquivalenceRandomized(t *testing.T) {
	for _, cfg := range []struct {
		capacity, shards int
	}{
		{1, 1}, {7, 1}, {64, 4}, {100, 8}, {257, 16},
	} {
		t.Run(fmt.Sprintf("cap%d_shards%d", cfg.capacity, cfg.shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cfg.capacity)*31 + int64(cfg.shards)))
			vc := newTestCache(cfg.capacity, cfg.shards)
			ref := newSpecShards(cfg.capacity, cfg.shards)
			if vc.NumShards() != len(ref) {
				t.Fatalf("shard counts differ: %d vs %d", vc.NumShards(), len(ref))
			}

			keySpace := uint32(cfg.capacity * 3)
			gens := make(map[uint32]byte)

			for step := 0; step < 4000; step++ {
				id := rng.Uint32() % keySpace
				switch op := rng.Intn(10); {
				case op < 4: // AddAt at random position, some outside [0, 1]: clamped to the ends
					pos := rng.Float64()*1.5 - 0.25
					gens[id]++
					victim, evicted := vc.AddAt(id, payloadFor(id, gens[id]), pos, false)
					wantVictim, wantEvicted := ref.of(id).addAt(specEntry{id: id, gen: gens[id]}, pos)
					checkAdd(t, step, id, victim, evicted, wantVictim, wantEvicted)
				case op < 6: // Add at MRU
					gens[id]++
					victim, evicted := vc.Add(id, payloadFor(id, gens[id]), false)
					wantVictim, wantEvicted := ref.of(id).addAt(specEntry{id: id, gen: gens[id]}, 0)
					checkAdd(t, step, id, victim, evicted, wantVictim, wantEvicted)
				case op < 9: // Get
					var vGen byte
					vOK := vc.GetFunc(id, func(p []byte, _ bool) { vGen = p[4] })
					e, rOK := ref.of(id).get(id)
					if vOK != rOK {
						t.Fatalf("step %d: Get(%d) hit mismatch: vcache %v, spec %v", step, id, vOK, rOK)
					}
					if vOK && vGen != e.gen {
						t.Fatalf("step %d: Get(%d) value mismatch: gen %d vs %d", step, id, vGen, e.gen)
					}
				case op == 9 && step%97 == 0: // occasional Resize
					target := 1 + rng.Intn(cfg.capacity*2)
					if got, want := vc.Resize(target), ref.resize(target); got != want {
						t.Fatalf("step %d: Resize(%d) = %d vs %d", step, target, got, want)
					}
				default: // Remove
					_, want := ref.of(id).take(id)
					if got := vc.Remove(id); got != want {
						t.Fatalf("step %d: Remove(%d) = %v vs %v", step, id, got, want)
					}
				}

				if step%200 == 0 || step == 3999 {
					compareOrder(t, step, vc, ref)
					if err := vc.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
		})
	}
}

// compareOrder asserts identical per-shard exact MRU->LRU key sequences and
// prefetched flags.
func compareOrder(t *testing.T, step int, vc *vcache.Cache, ref specShards) {
	t.Helper()
	for i, s := range ref {
		got, gotPre := vc.ShardKeys(i)
		want, wantPre := s.keys()
		if !slices.Equal(got, want) || !slices.Equal(gotPre, wantPre) {
			t.Fatalf("step %d shard %d: vcache %v %v, spec %v %v", step, i, got, gotPre, want, wantPre)
		}
	}
}

// TestOrderEquivalenceEveryOp is TestEquivalenceRandomized aimed at the
// single-list/boundary-cursor structure: inserts land at the head of every
// segment, promotions come from Get and GetBatch, capacities drop below the
// segment count and grow back, and sparse phases (a handful of keys in a
// large, mostly empty shard) leave runs of empty segments between occupied
// ones. A GetBatch is held to a Get per id in batch order, with its miss
// fills inserted at the MRU end in between. Before every operation Contains
// is probed, which must not promote; after it the exact per-shard MRU→LRU
// order and prefetched flags against the spec and the structural invariants
// are checked.
func TestOrderEquivalenceEveryOp(t *testing.T) {
	for _, cfg := range []struct {
		capacity, shards int
	}{
		{1, 1}, {3, 1}, {16, 1}, {40, 1}, {64, 4}, {257, 16},
	} {
		t.Run(fmt.Sprintf("cap%d_shards%d", cfg.capacity, cfg.shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cfg.capacity)*131 + int64(cfg.shards)))
			vc := newTestCache(cfg.capacity, cfg.shards)
			ref := newSpecShards(cfg.capacity, cfg.shards)
			gens := make(map[uint32]byte)
			capacity := cfg.capacity

			resize := func(step, target int) {
				got, want := vc.Resize(target), ref.resize(target)
				if got != want {
					t.Fatalf("step %d: Resize(%d) = %d vs %d", step, target, got, want)
				}
				capacity = got
			}
			denseKeys := uint32(cfg.capacity * 3)
			keySpace := denseKeys
			for step := 0; step < 6000; step++ {
				if step%500 == 0 {
					// Alternate dense phases (key space 3x capacity: every
					// segment full, constant eviction) with sparse ones: shrink
					// to two entries per shard at most, grow well past the
					// original capacity and touch only a few keys, so most
					// segments between the occupied ones stay empty.
					if step/500%2 == 1 {
						resize(step, 2*vc.NumShards())
						resize(step, cfg.capacity*4)
						keySpace = uint32(vc.NumShards()*3 + 1)
					} else {
						resize(step, cfg.capacity)
						keySpace = denseKeys
					}
				}
				id := rng.Uint32() % keySpace
				keys, _ := ref.of(id).keys()
				if want := slices.Contains(keys, id); vc.Contains(id) != want {
					t.Fatalf("step %d: Contains(%d) = %v, spec %v", step, id, !want, want)
				}
				switch op := rng.Intn(18); {
				case op >= 16: // GetBatch of distinct ids, some misses filled
					ids := []uint32{id}
					for n := rng.Intn(8); n > 0; n-- {
						if next := rng.Uint32() % keySpace; !slices.Contains(ids, next) {
							ids = append(ids, next)
						}
					}
					fill := make([]bool, len(ids))
					for i, id := range ids {
						if fill[i] = rng.Intn(2) == 0; fill[i] {
							gens[id]++
						}
					}
					views := make([][]byte, len(ids))
					release := vc.Lease() // the fills evict: keep the views' slots
					gotPre := vc.GetBatch(ids, views, func(i int) []byte {
						if !fill[i] {
							return nil
						}
						return payloadFor(ids[i], gens[ids[i]])
					})
					wantPre := 0
					for i, id := range ids {
						e, hit := ref.of(id).get(id)
						switch {
						case hit && (views[i] == nil || views[i][4] != e.gen):
							t.Fatalf("step %d: GetBatch %v: id %d hit in the spec (gen %d), view %v", step, ids, id, e.gen, views[i])
						case !hit && views[i] != nil:
							t.Fatalf("step %d: GetBatch %v: id %d missed in the spec, got a view", step, ids, id)
						case hit && e.pre:
							wantPre++
						case !hit && fill[i]:
							ref.of(id).addAt(specEntry{id: id, gen: gens[id]}, 0)
						}
					}
					release()
					if gotPre != wantPre {
						t.Fatalf("step %d: GetBatch %v: %d prefetched hits, spec %d", step, ids, gotPre, wantPre)
					}
				case op < 6: // AddAt at the head of a chosen segment
					pos := (float64(rng.Intn(vcache.Segments)) + 0.5) / vcache.Segments
					pre := rng.Intn(3) == 0
					gens[id]++
					victim, evicted := vc.AddAt(id, payloadFor(id, gens[id]), pos, pre)
					wantVictim, wantEvicted := ref.of(id).addAt(specEntry{id: id, gen: gens[id], pre: pre}, pos)
					checkAdd(t, step, id, victim, evicted, wantVictim, wantEvicted)
				case op < 12: // Get: promote, clear the prefetched flag
					var vGen byte
					var vPre bool
					vOK := vc.GetFunc(id, func(p []byte, pre bool) { vGen, vPre = p[4], pre })
					e, rOK := ref.of(id).get(id)
					if vOK != rOK {
						t.Fatalf("step %d: Get(%d) hit mismatch: vcache %v, spec %v", step, id, vOK, rOK)
					}
					if rOK && (vGen != e.gen || vPre != e.pre) {
						t.Fatalf("step %d: Get(%d) = (gen %d, pre %v), spec (gen %d, pre %v)", step, id, vGen, vPre, e.gen, e.pre)
					}
				case op < 14: // Remove
					_, want := ref.of(id).take(id)
					if got := vc.Remove(id); got != want {
						t.Fatalf("step %d: Remove(%d) = %v vs %v", step, id, got, want)
					}
				case op == 14 && step%7 == 0: // Resize down, often below the segment count
					resize(step, 1+rng.Intn(capacity))
				case op == 15 && step%7 == 0: // Resize up
					resize(step, capacity+1+rng.Intn(cfg.capacity*2))
				}
				compareOrder(t, step, vc, ref)
				if err := vc.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}

// TestLimboBounded pins the limbo's memory bound: with overlapping leases
// always outstanding the limbo never drains, and a million evictions must
// leave its backing array within a small multiple of the shard capacity and
// the post-GC heap flat.
func TestLimboBounded(t *testing.T) {
	const capacity = 1024
	c := newTestCache(capacity, 1)
	payload := payloadFor(0, 0)
	id := uint32(0)
	for ; id < capacity; id++ {
		c.Add(id, payload, false)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Every iteration takes the next lease before releasing the previous
	// one, then evicts 64 entries inside the overlap. Each entry is read
	// once, so its slot may be under a lease when it is evicted.
	evict := func(n int) {
		release := c.Lease()
		for i := 0; i < n; i += 64 {
			next := c.Lease()
			release()
			release = next
			for j := 0; j < 64; j++ {
				c.Add(id, payload, false)
				c.Get(id)
				id++
			}
		}
		release()
	}
	evict(100_000)
	if c.LimboLen() == 0 {
		t.Fatal("limbo is empty: the test no longer keeps leases overlapping")
	}
	before := heap()
	evict(900_000)
	after := heap()
	if got := c.LimboCap(); got > 4*capacity {
		t.Fatalf("cap(limbo) = %d after 1M evictions, want <= %d", got, 4*capacity)
	}
	if m := c.MintedSlots(); m > 2*capacity {
		t.Fatalf("minted %d slots for a capacity-%d cache", m, capacity)
	}
	if after > before+256<<10 {
		t.Fatalf("post-GC heap grew %d bytes over 900k evictions", after-before)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestResizeUnderConcurrentServing is the -race stress test: readers hold
// leases and serve views, writers insert, one goroutine resizes up and down
// continuously. Run with -race.
func TestResizeUnderConcurrentServing(t *testing.T) {
	const capacity = 2048
	c := newTestCache(capacity, 8)
	for id := uint32(0); id < capacity; id++ {
		c.Add(id, payloadFor(id, 1), false)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Readers: lease, read views, verify self-consistency of payloads.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				release := c.Lease()
				for i := 0; i < 64; i++ {
					id := rng.Uint32() % (capacity * 2)
					if p, _, ok := c.Get(id); ok {
						if got := uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24; got != id {
							panic(fmt.Sprintf("view for id %d holds id %d: slot reused under lease", id, got))
						}
					}
				}
				release()
			}
		}(int64(r))
	}

	// Writer: inserts (some updates with new generations) and removes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		gen := byte(2)
		for !stop.Load() {
			id := rng.Uint32() % (capacity * 2)
			switch rng.Intn(4) {
			case 0:
				c.Remove(id)
			default:
				c.AddAt(id, payloadFor(id, gen), rng.Float64(), rng.Intn(8) == 0)
				gen++
			}
		}
	}()

	// Resizer: continuous live grow/shrink.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sizes := []int{capacity / 4, capacity / 2, capacity, capacity * 2}
		for i := 0; !stop.Load(); i++ {
			c.Resize(sizes[i%len(sizes)])
		}
	}()

	// Let it run briefly; -race makes this plenty of interleavings.
	for i := 0; i < 200; i++ {
		c.Len()
	}
	stop.Store(true)
	wg.Wait()

	c.Resize(capacity)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// raceEnabled is set by race_test.go in a -race build, whose runtime drops a
// share of sync.Pool puts on purpose.
var raceEnabled bool

// TestHitPathZeroAlloc is the CI alloc-regression gate: the hit path — Get
// under a pre-acquired lease, and GetBatch, whose shard chains are pooled
// (checked without -race only) — must not allocate.
func TestHitPathZeroAlloc(t *testing.T) {
	t.Run("vcache", func(t *testing.T) {
		// Capacity 8x the population so hash imbalance never evicts: every
		// inserted key stays resident.
		c := newTestCache(8192, 8)
		for id := uint32(0); id < 1024; id++ {
			c.Add(id, payloadFor(id, 0), false)
		}
		release := c.Lease()
		defer release()
		id := uint32(0)
		allocs := testing.AllocsPerRun(1000, func() {
			if _, _, ok := c.Get(id % 1024); !ok {
				t.Fatal("miss on resident key")
			}
			id++
		})
		if allocs != 0 {
			t.Fatalf("vcache hit path allocates %v allocs/op, want 0", allocs)
		}
		ids := make([]uint32, 64)
		for i := range ids {
			ids[i] = uint32(i * 13)
		}
		views := make([][]byte, len(ids))
		batchAllocs := testing.AllocsPerRun(1000, func() { c.GetBatch(ids, views, nil) })
		if views[63] == nil || !raceEnabled && batchAllocs != 0 {
			t.Fatalf("64-id GetBatch allocates %v allocs/op, want 0", batchAllocs)
		}
		// Lease acquire/release itself must also be allocation-free.
		leaseAllocs := testing.AllocsPerRun(1000, func() { c.Lease()() })
		if leaseAllocs != 0 {
			t.Fatalf("Lease allocates %v allocs/op, want 0", leaseAllocs)
		}
	})
}

func BenchmarkHit(b *testing.B) {
	b.Run("vcache", func(b *testing.B) {
		c := vcache.New(vcache.Options{Capacity: 1 << 16, SlotBytes: 128, Shards: 8})
		p := make([]byte, 128)
		for id := uint32(0); id < 1<<16; id++ {
			c.Add(id, p, false)
		}
		release := c.Lease()
		defer release()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Get(uint32(i) & (1<<16 - 1))
		}
	})
}

// benchCache returns a full 64k-entry cache of 128-byte slots (the serving
// path's fp16 vector size at dim 64) and its resident keys in shuffled order.
func benchCache(b *testing.B) (*vcache.Cache, []uint32) {
	c := vcache.New(vcache.Options{Capacity: 1 << 16, SlotBytes: 128, Shards: 8})
	p := make([]byte, 128)
	for id := uint32(0); id < 1<<17; id++ {
		c.Add(id, p, false)
	}
	var keys []uint32
	for i := 0; i < c.NumShards(); i++ {
		shardKeys, _ := c.ShardKeys(i)
		keys = append(keys, shardKeys...)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return c, keys
}

// BenchmarkAddAtFull is the cost of one cache fill: insert a new id into a
// full cache (evict, park, allocate, copy, link, rebalance), at the MRU end
// as a requested vector and mid-queue as an admitted prefetch. Leases rotate
// every 64 inserts with one always outstanding, as on the raw serving path,
// so evicted slots go through the limbo.
func BenchmarkAddAtFull(b *testing.B) {
	for _, bc := range []struct {
		name string
		pos  float64
	}{{"mru", 0}, {"mid", 0.5}} {
		b.Run(bc.name, func(b *testing.B) {
			c, _ := benchCache(b)
			p := make([]byte, 128)
			release := c.Lease()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%64 == 0 {
					next := c.Lease()
					release()
					release = next
				}
				c.AddAt(uint32(1<<17+i), p, bc.pos, false)
			}
			release()
		})
	}
}

// BenchmarkGetPromote is a hit on an entry anywhere in a full cache's queue:
// unlink, relink at the MRU end and cascade one boundary per segment crossed.
func BenchmarkGetPromote(b *testing.B) {
	c, keys := benchCache(b)
	benchGets(b, c, keys)
}

// BenchmarkGetPinned is BenchmarkGetPromote's hit on a cache of the same
// size and shards pinned whole: every entry is off the recency list, so the
// hit moves nothing.
func BenchmarkGetPinned(b *testing.B) {
	const n = 1 << 16
	c := vcache.New(vcache.Options{Capacity: n, SlotBytes: 128, Shards: 8})
	set := make([]uint64, n/64)
	for w := range set {
		set[w] = ^uint64(0)
	}
	c.Pin(set)
	p := make([]byte, 128)
	keys := make([]uint32, n)
	for id := range keys {
		keys[id] = uint32(id)
		c.Add(uint32(id), p, false)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	benchGets(b, c, keys)
}

// benchGets times a Get of each of keys in turn, every one a hit.
func benchGets(b *testing.B, c *vcache.Cache, keys []uint32) {
	release := c.Lease()
	defer release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := c.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss on resident key")
		}
	}
}
