package vcache_test

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"testing"

	"bandana/internal/vcache"
)

// TestSlabSizeRule pins how large a slab is. A slab holds a power of two of
// slots: the fewest whose slab is at least 8 KiB, or, in a cache whose
// whole capacity is smaller than that, its capacity rounded up to a power
// of two. With a power-of-two slot size the first kind is a power of two of
// at least 8 KiB, a Go size class of one object per span, so a slab owns
// its span. Do not shrink slabs below it: with 4 KiB slabs (per shard, on
// the benchmark's four tables with a cache that holds every vector) the
// live heap (HeapAlloc) fell 1.27 MB but the in-use spans (HeapInuse) rose
// 0.7 MB, because a 4,096 B object shares its 8 KiB span with transient
// allocations of its size class and keeps it in use while it lives; the
// hot benchmark's dram_ratio rose from 1.92 to 1.99, where 8 KiB slabs read
// 1.856.
func TestSlabSizeRule(t *testing.T) {
	const minSlab = 8 << 10
	for _, slot := range []int{1, 6, 8, 96, 128, 256, 4096, 16 << 10} {
		for _, capacity := range []int{1, 5, 40, 63, 64, 65, 1000, 1 << 17} {
			c := vcache.New(vcache.Options{Capacity: capacity, SlotBytes: slot, Shards: 8})
			per := c.SlabSlots()
			slab := per * slot
			if bits.OnesCount(uint(per)) != 1 {
				t.Fatalf("slot %d B, capacity %d: %d slots per slab, not a power of two", slot, capacity, per)
			}
			if capacity*slot < minSlab {
				// A small cache: its capacity, rounded up to a power of two.
				if per < capacity || (per > 1 && per/2 >= capacity) {
					t.Fatalf("slot %d B, capacity %d (%d B): %d slots per slab, want the capacity rounded up to a power of two", slot, capacity, capacity*slot, per)
				}
				continue
			}
			if slab < minSlab || (per > 1 && slab/2 >= minSlab) {
				t.Fatalf("slot %d B, capacity %d: slab of %d slots is %d B, want the fewest slots of at least %d B", slot, capacity, per, slab, minSlab)
			}
			if bits.OnesCount(uint(slot)) == 1 && bits.OnesCount(uint(slab)) != 1 {
				t.Fatalf("slot %d B: slab is %d B, not a power of two", slot, slab)
			}
		}
	}
	if per := vcache.New(vcache.Options{Capacity: 1 << 16, SlotBytes: 128, Shards: 8}).SlabSlots(); per != 64 {
		t.Fatalf("a 128 B vector cache has %d-slot slabs, want 64 (8 KiB)", per)
	}
	if c := vcache.New(vcache.Options{Capacity: 1 << 16, SlotBytes: 0, Shards: 8}); c.Stats().Slabs != 0 {
		t.Fatal("a keys-only cache reports slabs before any insert")
	}
}

// TestArenaHoldsMintedSlots: the shards of a cache mint from one arena, so
// a filled cache's arena is the slabs its minted slots start, to the byte,
// and exceeds its resident payload by less than one slab, however its ids
// spread over the shards.
func TestArenaHoldsMintedSlots(t *testing.T) {
	const slot = 128
	for _, capacity := range []int{1, 40, 1000, 4097} {
		c := vcache.New(vcache.Options{Capacity: capacity, SlotBytes: slot, Shards: 8})
		payload := make([]byte, slot)
		for id := range uint32(capacity) {
			c.Add(id, payload, false)
		}
		st, minted, per := c.Stats(), c.MintedSlots(), c.SlabSlots()
		slabBytes := int64(per * slot)
		if want := int64((minted+per-1)/per) * slabBytes; st.ArenaBytes != want || int64(st.Slabs)*slabBytes != want {
			t.Fatalf("capacity %d: arena %d B in %d slabs, want %d B for %d minted slots", capacity, st.ArenaBytes, st.Slabs, want, minted)
		}
		if over := st.ArenaBytes - st.BytesResident - int64(st.FreeSlots+st.LimboSlots)*slot; over < 0 || over >= slabBytes {
			t.Fatalf("capacity %d: arena %d B for %d B resident and %d free and %d limbo slots: over by %d B, want less than a slab (%d B)",
				capacity, st.ArenaBytes, st.BytesResident, st.FreeSlots, st.LimboSlots, over, slabBytes)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
	}
}

// TestConcurrentMintsShareTheArena: one goroutine per shard fills ids of
// its own shard into one cache at once, replacing and evicting them under
// leases, so the shards' mints race on the cache's one frontier and its
// slab directory grows while lock-free hits read through it. Every view
// must hold its id, and afterwards every slot the cache minted must be
// resident, free or in limbo in exactly one shard.
func TestConcurrentMintsShareTheArena(t *testing.T) {
	const slot, shards, perShard = 128, 8, 600
	for _, form := range []string{"partial", "whole"} {
		t.Run(form, func(t *testing.T) {
			opts := vcache.Options{Capacity: shards * perShard / 2, SlotBytes: slot, Shards: shards}
			// ids[s] are ids that hash to shard s.
			ids := make([][]uint32, shards)
			for id := uint32(0); !full(ids, perShard); id++ {
				if s := vcache.Hash(id) % shards; len(ids[s]) < perShard {
					ids[s] = append(ids[s], id)
				}
			}
			if form == "whole" {
				for _, own := range ids {
					opts.Whole = max(opts.Whole, int(slices.Max(own))+1)
				}
			}
			c := vcache.New(opts)
			var wg sync.WaitGroup
			for s := range shards {
				wg.Add(1)
				go func(own []uint32) {
					defer wg.Done()
					views := make([][]byte, 1)
					for gen := range 3 {
						for k, id := range own {
							release := c.Lease()
							c.Add(id, arenaPayload(id, gen), false)
							if v, _, ok := c.Get(own[k/2]); ok && binary.LittleEndian.Uint32(v) != own[k/2] {
								panic(fmt.Sprintf("view for id %d holds id %d", own[k/2], binary.LittleEndian.Uint32(v)))
							}
							views[0] = nil
							c.GetBatch(own[k:k+1], views, nil)
							if v := views[0]; v != nil && binary.LittleEndian.Uint32(v) != id {
								panic(fmt.Sprintf("batch view for id %d holds id %d", id, binary.LittleEndian.Uint32(v)))
							}
							if k%7 == 0 {
								c.Refresh(own[k/3], arenaPayload(own[k/3], gen+1))
							}
							release()
						}
					}
				}(ids[s])
			}
			wg.Wait()
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			st, minted := c.Stats(), c.MintedSlots()
			if minted != st.Entries+st.FreeSlots+st.LimboSlots {
				t.Fatalf("%d slots minted, %d resident, %d free, %d in limbo", minted, st.Entries, st.FreeSlots, st.LimboSlots)
			}
			t.Logf("%d slots minted for %d resident (%d free, %d in limbo), %d slabs", minted, st.Entries, st.FreeSlots, st.LimboSlots, st.Slabs)
		})
	}
}

// arenaPayload is a 128 B payload that starts with id.
func arenaPayload(id uint32, gen int) []byte {
	p := make([]byte, 128)
	binary.LittleEndian.PutUint32(p, id)
	p[4] = byte(gen)
	return p
}

func full(ids [][]uint32, n int) bool {
	for _, own := range ids {
		if len(own) < n {
			return false
		}
	}
	return true
}
