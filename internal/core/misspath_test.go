package core

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newMissPathStore opens a trained single-table store over the backend the
// suite runs on — the deployed miss path: SHP layout, threshold admission,
// batched reads in place (mem, file) or through the scheduler (file-direct).
// The cache holds 256 of the 32,768 vectors, so a batch of ids not served
// recently is all misses. CacheShards is pinned (to what a 2-core host
// derives): the default grows with GOMAXPROCS, and a 256-entry cache split
// 256 ways makes every fill an eviction with its own allocations — the
// bounds below would then measure the host, not the code.
func newMissPathStore(tb testing.TB) *Store {
	tb.Helper()
	tables, traces := buildTestTables(tb, 1, 32768, 300)
	s, err := Open(testBackendConfig(tb, Config{
		Tables:            tables,
		DRAMBudgetVectors: 256,
		CacheShards:       8,
		Seed:              1,
	}))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	if _, err := s.Train(traces, TrainOptions{SHPIterations: 4, MiniCacheSampling: 0.25}); err != nil {
		tb.Fatal(err)
	}
	if st := s.Stats()[0]; !st.Prefetching {
		tb.Fatal("trained store does not prefetch: the miss path under test would skip admission")
	}
	return s
}

// coldBatches returns 64-id batches of 64/blocks vectors from each of blocks
// blocks, interleaved — at 16 blocks, the shape of production traffic after
// SHP. The table's 1,024 blocks give 1,024/blocks disjoint batches; by the
// time a caller cycles back to the first, the 256-entry cache has long
// evicted it.
func coldBatches(s *Store, blocks int) [][]uint32 {
	l := s.tables[0].loadState().layout
	batches := make([][]uint32, 1024/blocks)
	var members []uint32
	for k := range batches {
		for i := 0; i < 64/blocks; i++ {
			for b := 0; b < blocks; b++ {
				members = l.BlockMembers(k*blocks+b, members[:0])
				batches[k] = append(batches[k], members[i*7])
			}
		}
	}
	return batches
}

// TestMissBatchAllocBound is the miss-path allocation gate (CI runs it next
// to the zero-alloc hit-path gates, on every backend): one cold 64-id leased
// raw batch allocates nothing when its blocks are read in place (mem, file),
// only the scheduler call's own slices when they are read through it
// (file-direct), and nothing per missed vector or per block read — the same
// 64 ids spread over twice the blocks cost no more.
func TestMissBatchAllocBound(t *testing.T) {
	s := newMissPathStore(t)
	measure := func(blocks int) float64 {
		batches := coldBatches(s, blocks)
		k := 0
		run := func() {
			out, release, err := s.LookupBatchRawLeased(0, batches[k%len(batches)])
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 64 || out[63] == nil {
				t.Fatal("short result")
			}
			release()
			k++
		}
		run() // pooled block buffers and scheduler state exist after the first batch
		before := s.Stats()[0]
		const runs = 30
		allocs := testing.AllocsPerRun(runs, run)
		after := s.Stats()[0]
		misses := float64(after.Misses-before.Misses) / (runs + 1)
		reads := float64(after.BlockReads-before.BlockReads) / (runs + 1)
		t.Logf("%.1f allocs per 64-id batch (%.1f misses over %.1f block reads)", allocs, misses, reads)
		if misses < 48 || reads != float64(blocks) {
			t.Fatalf("%.1f of 64 ids miss over %.1f block reads, want >= 48 over %d: not the cold path", misses, reads, blocks)
		}
		return allocs
	}
	// Measured: 0 allocs per batch read in place (mem, file): the result
	// slice and the miss copies are the lease's, the keys, misses and block
	// list the pooled batch scratch's. 2 through the scheduler
	// (file-direct): its call's result and op slices.
	// Under -race, whose runtime drops a share of sync.Pool puts on purpose,
	// the pooled buffers are reallocated at random, so there the gate keeps
	// the bounds it had before they were pooled.
	bound, slack, leg := 0.0, 0.0, "read in place"
	if s.tables[0].inPlace == nil {
		bound, leg = 2, "scheduled"
	}
	if raceEnabled {
		bound, slack = 26, 6
	}
	at16 := measure(16)
	if at16 > bound {
		t.Fatalf("cold 64-id raw batch (%s) allocates %.1f times, want <= %.0f", leg, at16, bound)
	}
	if at32 := measure(32); at32 > at16+slack {
		t.Fatalf("64 ids over 32 blocks allocate %.1f times, over 16 blocks %.1f: allocations grow with the blocks read", at32, at16)
	}
}

// TestColdBatchReadsInPlaceUnderDirectIO: the miss path's read buffer is the
// one the scheduler hands to the device, so under O_DIRECT it must be
// aligned — a cold 64-id batch takes no bounce copy in the file store's
// pread. Runs on the file-direct leg of the backend matrix.
func TestColdBatchReadsInPlaceUnderDirectIO(t *testing.T) {
	if !testDirect() {
		t.Skip("needs BANDANA_TEST_BACKEND=file-direct")
	}
	tables, _ := buildTestTables(t, 1, 32768, 10)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 256, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.DeviceStats().Store.DirectIO {
		t.Skip("filesystem refused O_DIRECT")
	}
	before := s.DeviceStats()
	for _, blocks := range []int{16, 64} { // two of the batch-buffer classes...
		for _, ids := range coldBatches(s, blocks)[:2] {
			if _, err := s.LookupBatchRaw(0, ids); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.LookupBatchRaw(0, coldBatches(s, 64)[8][:1]); err != nil { // ... and the third
		t.Fatal(err)
	}
	after := s.DeviceStats()
	if after.BlocksRead == before.BlocksRead {
		t.Fatal("no block was read: not the cold path")
	}
	if n := after.Store.BouncedReads - before.Store.BouncedReads; n != 0 {
		t.Fatalf("%d of %d block reads bounced through an aligned copy", n, after.BlocksRead-before.BlocksRead)
	}
}

// TestCloseRacesInPlaceMisses closes a file-backed store under concurrent
// cold batches. A buffered store's misses read its mapping in place, and the
// scheduler that Close drains never sees them: only the file store's unmap,
// which waits for every stripe lock, keeps a visit in flight from faulting.
// Every call returns the table's bytes or an error, and a cold batch after
// Close fails. On the file-direct leg the same race runs through the
// scheduler.
func TestCloseRacesInPlaceMisses(t *testing.T) {
	const n = 32768
	tables, _ := buildTestTables(t, 1, n, 10)
	s, err := Open(Config{
		Tables:            tables,
		DRAMBudgetVectors: 256,
		Seed:              1,
		Backend:           BackendFile,
		DataDir:           filepath.Join(t.TempDir(), "store"),
		Direct:            testDirect(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	t.Logf("read path %q", s.DeviceStats().Store.ReadPath)
	var served atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ids := make([]uint32, 32)
			for {
				for i := range ids {
					ids[i] = uint32(rng.Intn(n))
				}
				out, err := s.LookupBatchRaw(0, ids)
				if err != nil {
					return
				}
				for i, id := range ids {
					if want, _ := tables[0].Raw(id); !bytes.Equal(out[i], want) {
						t.Errorf("vector %d read back wrong while closing", id)
						return
					}
				}
				served.Add(1)
			}
		}(int64(g))
	}
	for deadline := time.Now().Add(5 * time.Second); served.Load() < 16; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the readers served no batches")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// More distinct ids than the cache holds: some must miss.
	ids := make([]uint32, 512)
	for i := range ids {
		ids[i] = uint32(i * 61)
	}
	if _, err := s.LookupBatchRaw(0, ids); err == nil {
		t.Fatal("a cold batch after Close succeeded")
	}
}

// TestOverlayHitRawBatchAllocBound pins what a raw batch pays for ids served
// from the delta overlay: the overlay's bytes are handed out as they are, so
// nothing is allocated per id. A one-shard, one-vector cache evicts each
// overlaid id as soon as the next is served, which keeps every id of every
// batch on the overlay path.
func TestOverlayHitRawBatchAllocBound(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 1024, 10)
	s, err := Open(Config{
		Tables:            tables,
		DRAMBudgetVectors: 1,
		Seed:              1,
		CacheShards:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := make([]uint32, dedupeScanThreshold)
	vec := make([]float32, 64)
	for i := range ids {
		ids[i] = uint32(10 + 3*i)
		vec[0] = float32(i)
		if err := s.UpdateVector(0, ids[i], vec); err != nil {
			t.Fatal(err)
		}
	}
	run := func() {
		out, release, err := s.LookupBatchRawLeased(0, ids)
		if err != nil {
			t.Fatal(err)
		}
		if out[len(ids)-1] == nil {
			t.Fatal("short result")
		}
		release()
	}
	run()
	before := s.Stats()[0]
	const runs = 100
	allocs := testing.AllocsPerRun(runs, run)
	after := s.Stats()[0]
	if got, want := after.DeltaHits-before.DeltaHits, int64((runs+1)*len(ids)); got != want {
		t.Fatalf("%d of %d lookups were overlay hits: not the path under test", got, want)
	}
	// The result slice is the lease's; what is left is the cache's
	// amortized limbo growth, which reads 0. Under -race, which drops a
	// share of sync.Pool puts, the lease is reallocated at random, so there
	// the gate keeps the bound it had before the lease was pooled.
	bound := 1.0
	if raceEnabled {
		bound = 2
	}
	if allocs > bound {
		t.Fatalf("raw batch of %d overlay-resident ids allocates %.1f times, want <= %.0f", len(ids), allocs, bound)
	}
}

// TestTableStatsCacheSlots checks the arena's accounting reaches TableStats:
// resident bytes inside allocated slab bytes, slots a hit handed out that
// leave the cache under outstanding leases parked in limbo, and slots that
// leave with no lease anywhere freed at once.
func TestTableStatsCacheSlots(t *testing.T) {
	s := newMissPathStore(t)
	batches := coldBatches(s, 16)
	var releases []func()
	for k := 0; k < 16; k++ { // 1,024 misses through a 256-entry cache
		_, release, err := s.LookupBatchRawLeased(0, batches[k])
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, release)
	}
	// A leased read of the listed entries hands them out, and updates move
	// them out while every lease is outstanding.
	c := s.tables[0].loadState().cache
	var listed []uint32
	for _, id := range slices.Concat(batches...) {
		if onList(c, id) {
			listed = append(listed, id)
		}
	}
	_, release, err := s.LookupBatchRawLeased(0, listed)
	if err != nil {
		t.Fatal(err)
	}
	releases = append(releases, release)
	for _, id := range listed {
		if err := s.UpdateVector(0, id, testVec(s.tables[0].dim, id)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()[0]
	if st.CacheLimboSlots == 0 {
		t.Fatalf("no limbo slots reported with 17 leases outstanding over %d misses and %d updates of listed entries read", st.Misses, len(listed))
	}
	if st.CacheBytesResident != int64(st.CacheUsed*s.tables[0].vecBytes) || st.CacheArenaBytes < st.CacheBytesResident || st.CacheSlabs == 0 {
		t.Fatalf("arena byte accounting inconsistent: used %d, resident %d B, arena %d B, %d slabs",
			st.CacheUsed, st.CacheBytesResident, st.CacheArenaBytes, st.CacheSlabs)
	}
	for _, release := range releases {
		release()
	}
	// With no lease anywhere, a slot that leaves the cache is free at once:
	// updating a cached vector removes its entry, or moves a held one to a
	// fresh slot. (A pinned table whose
	// pinned ids fill its cache caches no other id, so the vector is one the
	// cache holds.)
	var id uint32
	var vec []float32
	for _, cand := range slices.Concat(batches...) {
		var err error
		if vec, err = s.Lookup(0, cand); err != nil {
			t.Fatal(err)
		}
		if id = cand; s.tables[0].loadState().cache.Contains(id) {
			break
		}
	}
	if err := s.UpdateVector(0, id, vec); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats()[0]; after.CacheFreeSlots == 0 {
		t.Fatal("no free slot reported after a lease-free invalidation")
	}
}

// BenchmarkServeBatchMiss is one cold 64-id raw batch end to end inside the
// store: probe, grouped block reads (through the scheduler, or in place on
// BANDANA_TEST_BACKEND=file), raw copies, cache fill and prefetch admission.
func BenchmarkServeBatchMiss(b *testing.B) {
	s := newMissPathStore(b)
	batches := coldBatches(s, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, release, err := s.LookupBatchRawLeased(0, batches[i%len(batches)])
		if err != nil {
			b.Fatal(err)
		}
		release()
	}
}
