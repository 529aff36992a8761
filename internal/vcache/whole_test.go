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

// idOf reads the id payloadFor wrote into p.
func idOf(p []byte) uint32 {
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

// TestPinWholeForm: a cache pinned whole keeps the entries it held, holds a
// slot word per id for its index and no slot records, sizes each shard to
// the ids that hash to it, refuses ids outside the table, and serves,
// fills, flags and removes like a cache that never evicts.
func TestPinWholeForm(t *testing.T) {
	const n = 1000
	c := newTestCache(n/2, 8)
	c.Add(3, payloadFor(3, 1), false)
	c.Add(4, payloadFor(4, 1), true)
	c.Add(n+5, payloadFor(n+5, 1), false)
	c.PinWhole(n)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !c.Whole() || c.Cap() != n || c.Len() != 2 || !c.Contains(3) || !c.Contains(4) || c.Contains(n+5) {
		t.Fatalf("after PinWhole: whole %v, cap %d, len %d, holds 3 %v, 4 %v, %d %v",
			c.Whole(), c.Cap(), c.Len(), c.Contains(3), c.Contains(4), n+5, c.Contains(n+5))
	}
	want := make([]int, c.NumShards())
	for id := range uint32(n) {
		want[vcache.Hash(id)&uint64(c.NumShards()-1)]++
	}
	if got := c.ShardCapacities(); !slices.Equal(got, want) {
		t.Fatalf("shard capacities %v, want the ids that hash to each: %v", got, want)
	}
	if st := c.Stats(); st.MetaBytes != 0 || st.IndexBytes != 4*n {
		t.Fatalf("whole cache keeps %d B of slot records and %d B of index, want none and %d B", st.MetaBytes, st.IndexBytes, 4*n)
	}
	if c.AddAtGuard(n, payloadFor(n, 1), 0, false, nil, 0) {
		t.Fatalf("id %d outside the table was admitted", n)
	}

	release := c.Lease()
	defer release()
	ids := []uint32{3, 4, 7, 9}
	views := make([][]byte, len(ids))
	var missed []int
	pre := c.GetBatch(ids, views, func(i int) []byte {
		missed = append(missed, i)
		if ids[i] == 7 {
			return payloadFor(7, 1)
		}
		return nil
	})
	slices.Sort(missed) // GetBatch runs a batch's misses shard by shard
	if pre != 1 || !slices.Equal(missed, []int{2, 3}) || idOf(views[0]) != 3 || idOf(views[1]) != 4 || views[2] != nil || views[3] != nil {
		t.Fatalf("GetBatch: %d prefetch hits, misses at %v, views %v", pre, missed, views)
	}
	if _, wasPrefetched, ok := c.Get(4); !ok || wasPrefetched {
		t.Fatalf("second request of 4: hit %v, prefetched %v; want a hit on a requested entry", ok, wasPrefetched)
	}
	if p, _, ok := c.Get(7); !ok || idOf(p) != 7 {
		t.Fatal("the miss's fill of 7 is not served")
	}
	if !c.AddAtGuard(9, payloadFor(9, 1), 0.5, true, nil, 0) || c.AddAtGuard(9, payloadFor(9, 2), 0.5, true, nil, 0) {
		t.Fatal("prefetch admission of 9: want the first admitted and the second refused")
	}
	if !c.GetFunc(9, func(p []byte, wasPrefetched bool) {
		if idOf(p) != 9 || !wasPrefetched {
			t.Fatalf("GetFunc(9): id %d, prefetched %v", idOf(p), wasPrefetched)
		}
	}) {
		t.Fatal("GetFunc(9) missed")
	}
	if !c.Remove(3) || c.Remove(3) || c.Contains(3) {
		t.Fatal("Remove(3) did not remove it exactly once")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.PinWhole(n); !c.Whole() || c.Len() != 3 {
		t.Fatalf("PinWhole again over the same ids: whole %v, len %d, want 3 kept", c.Whole(), c.Len())
	}
}

// TestWholeRemoveWaitsOutLease: in the whole form, a removed or replaced
// entry's slot is not reused while a lease that could have read it is held,
// and is reused once the lease epoch has moved on.
func TestWholeRemoveWaitsOutLease(t *testing.T) {
	c := newTestCache(64, 1)
	c.PinWhole(64)
	c.Add(1, payloadFor(1, 1), false)
	release := c.Lease()
	view, _, _ := c.Get(1)
	c.Remove(1)
	c.Add(2, payloadFor(2, 1), false)
	c.Add(2, payloadFor(2, 2), false)
	if idOf(view) != 1 || view[4] != 1 {
		t.Fatalf("leased view of 1 now holds id %d gen %d", idOf(view), view[4])
	}
	if n := c.LimboLen(); n != 2 {
		t.Fatalf("limbo holds %d slots under the lease, want removed 1's and replaced 2's", n)
	}
	release()
	for id := uint32(10); id < 20; id++ {
		c.Add(id, payloadFor(id, 0), false)
	}
	if n, m := c.LimboLen(), c.MintedSlots(); n != 0 || m != 11 {
		t.Fatalf("after release: %d slots in limbo, %d minted; want the parked slots reused", n, m)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWholeConversionKeepsEntries: Resize and Pin end the whole form in
// place keeping every entry they have room for, requested entries ahead of
// prefetched ones; PinWhole brings it back keeping every entry and flag.
func TestWholeConversionKeepsEntries(t *testing.T) {
	const n = 512
	c := newTestCache(n, 4)
	c.PinWhole(n)
	for id := range uint32(n) {
		c.Add(id, payloadFor(id, 1), id%4 == 0)
	}
	c.Resize(2 * n)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.Whole() || c.Len() != n {
		t.Fatalf("Resize(%d): whole %v, holds %d of %d", 2*n, c.Whole(), c.Len(), n)
	}
	for i := range c.NumShards() {
		keys, prefetched := c.ShardKeys(i)
		for k := range keys {
			if prefetched[k] != (keys[k]%4 == 0) {
				t.Fatalf("id %d lost its prefetched flag %v", keys[k], keys[k]%4 == 0)
			}
			if k > 0 && prefetched[k-1] && !prefetched[k] {
				t.Fatalf("shard %d lists requested id %d behind a prefetched one", i, keys[k])
			}
		}
	}
	c.Resize(n / 2)
	for id := range uint32(n) {
		if id%4 == 0 && c.Contains(id) {
			t.Fatalf("shrunk to half: prefetched id %d kept while requested ids were evicted", id)
		}
	}
	kept := c.Len()
	c.PinWhole(n)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !c.Whole() || c.Len() != kept {
		t.Fatalf("PinWhole after the shrink: whole %v, holds %d of %d", c.Whole(), c.Len(), kept)
	}
	c.Add(0, payloadFor(0, 1), true)
	c.Add(1, payloadFor(1, 1), false)
	c.Add(2, payloadFor(2, 1), false)
	c.Pin(bitset([]uint32{0, 1, 2}))
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.Whole() || c.Cap() != 3 || !c.Contains(1) || !c.Contains(2) {
		t.Fatalf("Pin after the whole form: whole %v, cap %d, holds 1 %v, 2 %v", c.Whole(), c.Cap(), c.Contains(1), c.Contains(2))
	}
}

// TestWholeMatchesPartial: a whole cache and a partial cache of the table's
// size (which never evicts) take the same random adds, prefetch admissions,
// batches with fills and removals, and agree on every hit, view, prefetch
// hit and admission.
func TestWholeMatchesPartial(t *testing.T) {
	const n = 300
	whole, part := newTestCache(n, 4), newTestCache(n, 1)
	whole.PinWhole(n)
	rng := rand.New(rand.NewSource(1))
	for step := range 20000 {
		id := uint32(rng.Intn(n))
		gen := byte(rng.Intn(3))
		switch op := rng.Intn(10); {
		case op < 2:
			prefetched := rng.Intn(2) == 0
			whole.Add(id, payloadFor(id, gen), prefetched)
			part.Add(id, payloadFor(id, gen), prefetched)
		case op < 4:
			a := whole.AddAtGuard(id, payloadFor(id, gen), 0.5, true, nil, 0)
			if b := part.AddAtGuard(id, payloadFor(id, gen), 0.5, true, nil, 0); a != b {
				t.Fatalf("step %d: prefetch admission of %d: whole %v, partial %v", step, id, a, b)
			}
		case op < 5:
			if a, b := whole.Remove(id), part.Remove(id); a != b {
				t.Fatalf("step %d: Remove(%d): whole %v, partial %v", step, id, a, b)
			}
		default:
			ids := rand.New(rand.NewSource(int64(step))).Perm(n)[:1+rng.Intn(16)]
			batch := make([]uint32, len(ids))
			for i, v := range ids {
				batch[i] = uint32(v)
			}
			fill := func(i int) []byte {
				if batch[i]%3 == 0 {
					return nil
				}
				return payloadFor(batch[i], gen)
			}
			wv, pv := make([][]byte, len(batch)), make([][]byte, len(batch))
			if a, b := whole.GetBatch(batch, wv, fill), part.GetBatch(batch, pv, fill); a != b {
				t.Fatalf("step %d: prefetch hits: whole %d, partial %d", step, a, b)
			}
			for i := range batch {
				if !slices.Equal(wv[i], pv[i]) {
					t.Fatalf("step %d: id %d served %v by the whole cache, %v by the partial one", step, batch[i], wv[i], pv[i])
				}
			}
		}
		if whole.Len() != part.Len() {
			t.Fatalf("step %d: whole holds %d, partial %d", step, whole.Len(), part.Len())
		}
	}
	if err := whole.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWholeUnderConcurrentServing is the whole form's -race stress test:
// readers serve lock-free hits under leases and check every view holds its
// id and stays intact until release, while a writer replaces and removes
// entries and a converter takes the cache out of the whole form and back.
func TestWholeUnderConcurrentServing(t *testing.T) {
	const n = 2048
	c := newTestCache(n, 8)
	c.PinWhole(n)
	for id := range uint32(n) {
		c.Add(id, payloadFor(id, 1), false)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := range 3 {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ids, views := make([]uint32, 32), make([][]byte, 32)
			held := make([]byte, 0, 32*testSlot)
			for !stop.Load() {
				release := c.Lease()
				for i, v := range rng.Perm(n)[:len(ids)] {
					ids[i] = uint32(v)
				}
				clear(views)
				c.GetBatch(ids, views, func(i int) []byte { return payloadFor(ids[i], 3) })
				held = held[:0]
				for i, v := range views {
					if v != nil && idOf(v) != ids[i] {
						panic(fmt.Sprintf("view for id %d holds id %d", ids[i], idOf(v)))
					}
					held = append(held, v...)
				}
				runtime.Gosched()
				off := 0
				for _, v := range views {
					if !slices.Equal(v, held[off:off+len(v)]) {
						panic("a leased view changed under its lease")
					}
					off += len(v)
				}
				release()
			}
		}(int64(r))
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for gen := byte(0); !stop.Load(); gen++ {
			id := uint32(rng.Intn(n))
			if rng.Intn(3) == 0 {
				c.Remove(id)
			} else {
				c.AddAt(id, payloadFor(id, gen), 0, rng.Intn(4) == 0)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := range 90 {
			switch i % 3 {
			case 0:
				c.Resize(n / 2)
			case 1:
				c.Pin(bitset([]uint32{1, 2, 3}))
			}
			c.PinWhole(n)
			runtime.Gosched()
		}
		stop.Store(true)
	}()
	wg.Wait()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWholePrefetchedReportedOnce: of several concurrent requests of one
// prefetch-admitted entry of a whole cache, Gets and one-id GetBatches,
// exactly one reports it prefetched (Get's wasPrefetched, GetBatch's
// prefetch hits), and the entry stays held as a requested one. The readers
// start together and request every id in the same order, so they contend
// on each slot word in turn.
func TestWholePrefetchedReportedOnce(t *testing.T) {
	const n, readers, rounds = 256, 4, 40
	c := newTestCache(n, 4)
	c.PinWhole(n)
	for round := range rounds {
		for id := range uint32(n) {
			c.Remove(id)
			if !c.AddAtGuard(id, payloadFor(id, byte(round)), 0.5, true, nil, 0) {
				t.Fatalf("round %d: prefetch admission of %d refused", round, id)
			}
		}
		var reports atomic.Int64
		var ready atomic.Int32
		var done sync.WaitGroup
		for r := range readers {
			done.Add(1)
			go func() {
				defer done.Done()
				for ready.Add(1); ready.Load() < readers; {
					runtime.Gosched()
				}
				release := c.Lease()
				defer release()
				batch := make([]uint32, 1)
				for id := range uint32(n) {
					if (r+int(id))%2 == 0 {
						if _, wasPrefetched, ok := c.Get(id); !ok {
							panic(fmt.Sprintf("Get(%d) missed a held entry", id))
						} else if wasPrefetched {
							reports.Add(1)
						}
						continue
					}
					batch[0] = id
					reports.Add(int64(c.GetBatch(batch, nil, nil)))
				}
			}()
		}
		done.Wait()
		if got := reports.Load(); got != n {
			t.Fatalf("round %d: %d readers requesting %d prefetched ids reported %d prefetch hits, want each id once", round, readers, n, got)
		}
		for id := range uint32(n) {
			if _, wasPrefetched, ok := c.Get(id); !ok || wasPrefetched {
				t.Fatalf("round %d: after the requests, id %d: hit %v, prefetched %v", round, id, ok, wasPrefetched)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWholeHitPathZeroAlloc: a whole cache's Get and GetBatch allocate
// nothing.
func TestWholeHitPathZeroAlloc(t *testing.T) {
	c := newTestCache(1024, 8)
	c.PinWhole(1024)
	ids := make([]uint32, 64)
	for i := range ids {
		ids[i] = uint32(i * 13)
		c.Add(ids[i], payloadFor(ids[i], 0), false)
	}
	release := c.Lease()
	defer release()
	views := make([][]byte, len(ids))
	allocs := testing.AllocsPerRun(1000, func() {
		c.Get(ids[7])
		c.GetBatch(ids, views, nil)
	})
	if views[63] == nil || allocs != 0 {
		t.Fatalf("whole-cache hits allocate %v allocs/op, want 0", allocs)
	}
}

// BenchmarkGetBatchWhole is a 64-id all-hit GetBatch on a 120k-id, 8-shard
// cache pinned whole, with the payloads copied out, as the serving path's
// copying reads do.
func BenchmarkGetBatchWhole(b *testing.B) {
	const n, batch, slot = 120_000, 64, 128
	c := vcache.New(vcache.Options{Capacity: n, SlotBytes: slot, Shards: 8})
	c.PinWhole(n)
	p := make([]byte, slot)
	for id := range uint32(n) {
		c.Add(id, p, false)
	}
	rng := rand.New(rand.NewSource(1))
	batches := make([][]uint32, 1024)
	for i := range batches {
		batches[i] = make([]uint32, batch)
		for k, v := range rng.Perm(n)[:batch] {
			batches[i][k] = uint32(v)
		}
	}
	views, dst := make([][]byte, batch), make([]byte, batch*slot)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		release := c.Lease()
		c.GetBatch(batches[i%len(batches)], views, nil)
		for k, v := range views {
			copy(dst[k*slot:], v)
		}
		release()
	}
}
