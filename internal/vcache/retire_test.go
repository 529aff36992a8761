package vcache

import "testing"

// TestConversionsClearRetiredIndexes: a conversion clears every word of the
// index it retires, an implied set's or an explicit one's, so a lock-free reader still
// holding that index finds no slot in it. Otherwise a slot the conversion
// parks while no lease is active goes straight back to the free list while
// the retired index still names it, and a reader that loads the index after
// taking its lease reads the slot as a fill rewrites it
// (TestSealedMissUnderConcurrentServing caught that under -race).
func TestConversionsClearRetiredIndexes(t *testing.T) {
	c := New(Options{Capacity: 256, SlotBytes: 8, Shards: 4})
	payload := func(id uint32) []byte { return []byte{byte(id), byte(id >> 8), 0, 0, 0, 0, 0, 0} }
	cleared := func(step string, words int, load func(k int) uint32) {
		t.Helper()
		for k := range words {
			if load(k) != 0 {
				t.Fatalf("%s: word %d of the retired index still names slot %d", step, k, load(k)-1)
			}
		}
	}
	c.PinWhole(256)
	for id := range uint32(256) {
		c.Add(id, payload(id), false)
	}
	w := c.pin.Load()
	set := make([]uint64, 4)
	set[0] = ^uint64(0) // ids 0..63: the other 192 entries are listed and evicted
	c.Pin(set)
	cleared("Pin of a whole cache", len(w.slots), func(k int) uint32 { return w.slots[k].Load() })

	p := c.pin.Load()
	c.PinWhole(32) // parks the held ids 32..63
	cleared("PinWhole of a pinned cache", len(p.slots), func(k int) uint32 { return p.slots[k].Load() })

	w = c.pin.Load()
	c.PinWhole(16) // parks ids 16..31
	cleared("PinWhole of a whole cache", len(w.slots), func(k int) uint32 { return w.slots[k].Load() })
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
