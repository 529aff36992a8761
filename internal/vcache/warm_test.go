package vcache_test

import (
	"slices"
	"sync/atomic"
	"testing"

	"bandana/internal/vcache"
)

// warmPayload is Warm's payload callback over payloadFor.
func warmPayload(id uint32) []byte { return payloadFor(id, 0) }

// TestWarmNeverEvicts: a warm fill takes only the room its shards have
// free. Every entry resident before it stays, the ids it fills are exactly
// what the free room holds, an id it skips is resident already or its
// shard is full, and a second fill adds nothing.
func TestWarmNeverEvicts(t *testing.T) {
	const shards = 4
	var pinned []uint32
	for id := uint32(0); id < 128; id += 2 {
		pinned = append(pinned, id)
	}
	c := newTestCache(len(pinned), shards)
	c.Pin(bitset(pinned))
	// Requested ids before the fill: unpinned ones listed, pinned ones held.
	var before []uint32
	for i := uint32(1); i < 40; i += 2 {
		c.Add(i, payloadFor(i, 0), false)
		before = append(before, i)
	}
	for _, id := range pinned[:10] {
		c.Add(id, payloadFor(id, 0), false)
		before = append(before, id)
	}
	used := make([]int, shards)
	for _, id := range before {
		if !c.Contains(id) {
			t.Fatalf("id %d is not resident before the fill", id)
		}
		used[vcache.Hash(id)%shards]++
	}
	filled := c.Warm(pinned, warmPayload, 1, nil, 0)
	for _, id := range before {
		if !c.Contains(id) {
			t.Fatalf("the warm fill evicted id %d", id)
		}
	}
	caps := c.ShardCapacities()
	free := 0
	for i := range caps {
		free += caps[i] - used[i]
	}
	if filled == 0 || filled != c.Len()-len(before) {
		t.Fatalf("the fill reports %d ids, the cache grew by %d", filled, c.Len()-len(before))
	}
	resident := make([]int, shards)
	for id := uint32(0); id < 128; id++ {
		if c.Contains(id) {
			resident[vcache.Hash(id)%shards]++
		}
	}
	for _, id := range pinned {
		if si := vcache.Hash(id) % shards; !c.Contains(id) && resident[si] < caps[si] {
			t.Fatalf("pinned id %d was skipped with room free in its shard", id)
		}
	}
	if filled > free {
		t.Fatalf("the fill took %d slots, %d were free", filled, free)
	}
	if again := c.Warm(pinned, warmPayload, 1, nil, 0); again != 0 {
		t.Fatalf("a second fill added %d ids", again)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmEntriesLeaveFirst: warm entries are listed at the cold end in
// fill order, so a full shard evicts every one nothing asked for, the
// first filled first, before any entry listed after the fill, whatever
// position or flag that entry came in with. A requested warm entry is held
// and never leaves.
func TestWarmEntriesLeaveFirst(t *testing.T) {
	const n = 16
	order := []uint32{7, 3, 12, 0, 15, 9, 4, 1, 14, 6, 11, 2, 8, 13, 5, 10} // e.g. ascending training count
	c := newTestCache(n, 1)
	c.Pin(bitset(order))
	if got := c.Warm(order, warmPayload, 1, nil, 0); got != n {
		t.Fatalf("filled %d of %d pinned ids into an empty cache", got, n)
	}
	keys, pre := c.ShardKeys(0)
	want := slices.Clone(order)
	slices.Reverse(want)
	if !slices.Equal(keys, want) || slices.Contains(pre, true) {
		t.Fatalf("list %v (prefetched %v), want the fill order reversed, none prefetched", keys, pre)
	}
	requested := map[uint32]bool{12: true, 1: true}
	for id := range requested {
		if _, _, ok := c.Get(id); !ok {
			t.Fatalf("warm id %d missed", id)
		}
	}
	var unrequested []uint32
	for _, id := range order {
		if !requested[id] {
			unrequested = append(unrequested, id)
		}
	}
	// Each insert lands somewhere else on the list: the MRU end, the cold
	// end, a prefetch at the cold end.
	insert := func(k int) (uint32, bool) {
		id := uint32(100 + k)
		switch k % 3 {
		case 0:
			return c.AddAt(id, payloadFor(id, 0), 0, false)
		case 1:
			return c.AddAt(id, payloadFor(id, 0), 1, false)
		default:
			return c.AddAt(id, payloadFor(id, 0), 1, true)
		}
	}
	for k, want := range unrequested {
		victim, evicted := insert(k)
		if !evicted || victim != want {
			t.Fatalf("insert %d evicted (%d, %v), want warm id %d", k, victim, evicted, want)
		}
	}
	victim, evicted := insert(len(unrequested))
	if !evicted || victim < 100 {
		t.Fatalf("with every unrequested warm entry gone the insert evicted (%d, %v), want an id listed after the fill", victim, evicted)
	}
	for id := range requested {
		if !c.Contains(id) {
			t.Fatalf("requested warm id %d was evicted", id)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmGuard: a fill whose guard moved fills nothing.
func TestWarmGuard(t *testing.T) {
	c := newTestCache(8, 1)
	c.Pin(bitset([]uint32{0, 1, 2, 3, 4, 5, 6, 7}))
	var g atomic.Uint64
	g.Store(3)
	if got := c.Warm([]uint32{0, 1}, warmPayload, 1, &g, 2); got != 0 || c.Len() != 0 {
		t.Fatalf("a fill under a moved guard filled %d ids (%d resident)", got, c.Len())
	}
	if got := c.Warm([]uint32{0, 1}, warmPayload, 1, &g, 3); got != 2 {
		t.Fatalf("a fill under its guard filled %d of 2 ids", got)
	}
}

// TestWarmHitIsPlainHit: the first request of a warm entry is a hit, never
// a prefetch hit, through Get and GetBatch, and holds the entry in its slot
// word; once every warm entry is requested the shard is sealed.
func TestWarmHitIsPlainHit(t *testing.T) {
	ids := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	c := newTestCache(len(ids), 1)
	c.Pin(bitset(ids))
	c.Warm(ids, warmPayload, 1, nil, 0)
	if c.Sealed() {
		t.Fatal("sealed before any warm entry was requested")
	}
	view, pre, ok := c.Get(3)
	if !ok || pre || idOf(view) != 3 {
		t.Fatalf("Get(3) of a warm entry: ok %v, prefetched %v, view of id %d", ok, pre, idOf(view))
	}
	rest := []uint32{0, 1, 2, 4, 5, 6, 7}
	views := make([][]byte, len(rest))
	if hits := c.GetBatch(rest, views, func(int) []byte { t.Fatal("miss on a warm entry"); return nil }); hits != 0 {
		t.Fatalf("GetBatch of warm entries reported %d prefetch hits", hits)
	}
	for i, v := range views {
		if idOf(v) != rest[i] {
			t.Fatalf("view %d holds id %d, want %d", i, idOf(v), rest[i])
		}
	}
	if keys, _ := c.ShardKeys(0); len(keys) != 0 {
		t.Fatalf("requested warm entries still listed: %v", keys)
	}
	if !c.Sealed() {
		t.Fatal("every pinned id requested, and the shard is not sealed")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshKeepsHeld: Refresh moves a held id's slot word to the new
// bytes, so a sealed cache stays sealed, while a view a lease took of the
// old bytes stays intact and their slot waits out the lease; it removes a
// listed entry.
func TestRefreshKeepsHeld(t *testing.T) {
	ids := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	c := newTestCache(len(ids), 2)
	c.Pin(bitset(ids))
	for _, id := range ids {
		c.Add(id, payloadFor(id, 0), false)
	}
	if !c.Sealed() {
		t.Fatal("every pinned id requested, and the cache is not sealed")
	}
	release := c.Lease()
	old, _, _ := c.Get(3)
	if !c.Refresh(3, payloadFor(3, 9)) {
		t.Fatal("Refresh of a held id reports it uncached")
	}
	if old[4] != 0 {
		t.Fatalf("a leased view of the old bytes changed: gen %d", old[4])
	}
	if fresh, _, _ := c.Get(3); fresh[4] != 9 {
		t.Fatalf("Get after Refresh serves gen %d, want 9", fresh[4])
	}
	if !c.Sealed() || c.LimboLen() != 1 {
		t.Fatalf("after Refresh: sealed %v, %d slots in limbo, want sealed and 1", c.Sealed(), c.LimboLen())
	}
	release()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	l := newTestCache(4, 1)
	l.Add(1, payloadFor(1, 0), false)
	if l.Refresh(1, payloadFor(1, 1)) || l.Contains(1) {
		t.Fatal("Refresh kept a listed entry")
	}
	if l.Refresh(2, payloadFor(2, 1)) || l.Contains(2) {
		t.Fatal("Refresh cached an absent id")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestUnseenSlotSkipsLimbo: under a lease, a listed entry no hit handed out
// frees its slot at once when it is evicted or relocated, and one a hit
// handed out waits out the lease in limbo.
func TestUnseenSlotSkipsLimbo(t *testing.T) {
	c := newTestCache(2, 1)
	c.Add(1, payloadFor(1, 0), false)
	c.Add(2, payloadFor(2, 0), false)
	release := c.Lease()
	c.Add(3, payloadFor(3, 0), false) // evicts 1, never read
	if n := c.LimboLen(); n != 0 {
		t.Fatalf("evicting an entry no hit handed out parked %d slots", n)
	}
	c.Get(2)
	c.Add(4, payloadFor(4, 0), false) // evicts 3, never read
	c.Add(5, payloadFor(5, 0), false) // evicts 2, read
	if n := c.LimboLen(); n != 1 {
		t.Fatalf("limbo holds %d slots, want the 1 a hit handed out", n)
	}
	c.Add(4, payloadFor(4, 1), false) // relocates 4, never read
	if n := c.LimboLen(); n != 1 {
		t.Fatalf("relocating an entry no hit handed out parked a slot (%d in limbo)", n)
	}
	c.Get(4)
	c.Add(4, payloadFor(4, 2), false) // relocates 4, read
	if n := c.LimboLen(); n != 2 {
		t.Fatalf("limbo holds %d slots, want 2", n)
	}
	release()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
