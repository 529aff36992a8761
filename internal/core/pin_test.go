package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bandana/internal/cache"
	"bandana/internal/trace"
	"bandana/internal/vcache"
)

// pinnedShardsHold checks a pinned table's cache against its pin verdict:
// the cache's capacity is the table's allocation, the number of pinned ids,
// and every pinned id of requested is resident — once read, a pinned id is
// never evicted (see vcache's Pin).
func pinnedShardsHold(st *storeTable, requested []trace.Query) error {
	ts := st.loadState()
	ids := ts.admit.pinnedIDs()
	if len(ids) == 0 || len(ids) != ts.cacheCap || ts.cache.Cap() != ts.cacheCap || ts.cache.Len() > ts.cacheCap {
		return fmt.Errorf("table %q: %d pinned ids, allocation %d, cache capacity %d holding %d",
			st.name, len(ids), ts.cacheCap, ts.cache.Cap(), ts.cache.Len())
	}
	for _, q := range requested {
		for _, id := range q {
			if _, pinned := slices.BinarySearch(ids, id); pinned && !ts.cache.Contains(id) {
				return fmt.Errorf("table %q: pinned id %d was read and is not cached", st.name, id)
			}
		}
	}
	return nil
}

// onList reports whether id is on its shard's recency list in c.
func onList(c *vcache.Cache, id uint32) bool {
	keys, _ := c.ShardKeys(int(vcache.Hash(id) % uint64(c.NumShards())))
	return slices.Contains(keys, id)
}

// serveConcurrently serves every query of queries from several goroutines at once,
// whose fills compete for each shard's room, and returns the first error.
func serveConcurrently(s *Store, queries []trace.Query) error {
	workers := max(runtime.GOMAXPROCS(0), 2)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := w; qi < len(queries); qi += workers {
				if _, err := s.LookupBatchRaw(0, queries[qi]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// pinnedStore trains a one-table store whose tuner pins its hottest ids.
func pinnedStore(t *testing.T, shards int) (*Store, *trace.Trace) {
	t.Helper()
	tables, traces := buildTestTables(t, 1, 4096, 900)
	train, eval := traces[0].Split(0.5)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 300, Seed: 7, CacheShards: shards}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	rep, err := s.Train([]*trace.Trace{train}, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tables[0].PinnedVectors != 300 {
		t.Fatalf("Train pinned %d vectors, want the whole 300-vector cache", rep.Tables[0].PinnedVectors)
	}
	if err := pinnedShardsHold(s.tables[0], nil); err != nil {
		t.Fatal(err)
	}
	return s, eval
}

// TestPinnedShardsKeepEveryPinnedID: a pinned table's cache gives each shard
// its pinned ids' share of the allocation, so a pinned id, once read, is
// never evicted — by another pinned id or by anything else — however the
// hash spreads the set over 8 or 64 shards. The held-out traffic is served by
// several goroutines at once, whose fills compete for each shard's room;
// served again, every lookup of a pinned id hits, and the misses are all of
// other ids. An even split of the allocation across the shards fails this.
func TestPinnedShardsKeepEveryPinnedID(t *testing.T) {
	for _, shards := range []int{8, 64} {
		t.Run(fmt.Sprint(shards), func(t *testing.T) {
			s, eval := pinnedStore(t, shards)
			st := s.tables[0]
			if got := st.loadState().cache.NumShards(); got != shards {
				t.Fatalf("cache has %d shards, want %d", got, shards)
			}
			if err := serveConcurrently(s, eval.Queries); err != nil {
				t.Fatal(err)
			}
			if err := pinnedShardsHold(st, eval.Queries); err != nil {
				t.Fatal(err)
			}

			ts := st.loadState()
			pinned := ts.admit.pinnedIDs()
			var pinnedLookups, otherLookups int64
			for _, q := range eval.Queries {
				for _, id := range q {
					if _, ok := slices.BinarySearch(pinned, id); ok {
						pinnedLookups++
					} else {
						otherLookups++
					}
				}
			}
			s.ResetStats()
			for _, q := range eval.Queries {
				if _, err := s.LookupBatchRaw(0, q); err != nil {
					t.Fatal(err)
				}
			}
			got := s.Stats()[0]
			if got.Hits < pinnedLookups || got.Misses > otherLookups || pinnedLookups == 0 || otherLookups == 0 {
				t.Fatalf("served again: %d hits and %d misses, want a hit on each of the %d lookups of pinned ids, misses only among the %d others",
					got.Hits, got.Misses, pinnedLookups, otherLookups)
			}
			if got.PinnedVectors != ts.cacheCap || got.CacheUsed > ts.cacheCap || got.ProbationFills != 0 {
				t.Fatalf("%d pinned vectors, %d cached, %d probation fills, for a %d-vector allocation",
					got.PinnedVectors, got.CacheUsed, got.ProbationFills, ts.cacheCap)
			}
		})
	}
}

// TestUpdatedPinnedIDIsCachedPinnedAgain: an update of a held pinned id
// moves its slot word to the new bytes, so the id stays cached, pinned (off
// the recency list), and its cached copy equals the update; lookups serve
// the new bytes, and after compaction the entry still serves them. An
// updated id the table does not pin leaves the cache and is served fresh
// too.
func TestUpdatedPinnedIDIsCachedPinnedAgain(t *testing.T) {
	s, eval := pinnedStore(t, 8)
	st := s.tables[0]
	for _, q := range eval.Queries {
		if _, err := s.LookupBatchRaw(0, q); err != nil {
			t.Fatal(err)
		}
	}
	ts := st.loadState()
	ids := ts.admit.pinnedIDs()
	var pinned, other uint32
	found := 0
	for _, id := range ids {
		if ts.cache.Contains(id) && !onList(ts.cache, id) {
			pinned, found = id, found+1
			break
		}
	}
	for id := uint32(0); int(id) < st.numVectors; id++ {
		if _, ok := slices.BinarySearch(ids, id); !ok {
			other, found = id, found+1
			break
		}
	}
	if found != 2 {
		t.Fatal("no cached pinned id or no unpinned id to update")
	}
	for i, id := range []uint32{pinned, other} {
		vec := testVec(st.dim, uint32(1000+i))
		if err := s.UpdateVector(0, id, vec); err != nil {
			t.Fatal(err)
		}
		var cached []byte
		ts.cache.GetFunc(id, func(p []byte, _ bool) { cached = append(cached, p...) })
		if (id == pinned) != (cached != nil) || cached != nil && !bytes.Equal(cached, rawOf(vec)) {
			t.Fatalf("id %d (pinned %v): the update left a cached copy of %d bytes that is not the update's", id, id == pinned, len(cached))
		}
		for pass := range 2 {
			got, err := s.Lookup(0, id)
			if err != nil {
				t.Fatal(err)
			}
			if !vecsEqual(got, vec) {
				t.Fatalf("id %d pass %d: served stale bytes after the update", id, pass)
			}
			if id == pinned && (!ts.cache.Contains(id) || onList(ts.cache, id)) {
				t.Fatalf("pinned id %d pass %d: cached %v, on the recency list %v", id, pass, ts.cache.Contains(id), onList(ts.cache, id))
			}
			if pass == 0 {
				if err := s.CompactDeltas(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := pinnedShardsHold(st, eval.Queries); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptationRepinsInPlace: an epoch whose verdict pins again re-pins the
// live cache in place, while several goroutines serve: the ids of the new
// set that were cached stay cached, and afterwards every pinned id read is
// resident, whatever the requests still serving the older verdict filled.
func TestAdaptationRepinsInPlace(t *testing.T) {
	s, eval := pinnedStore(t, 8)
	st := s.tables[0]
	// A small margin: the pair's prefetch gain in the window's miniature is
	// below the default 0.15 here, and the pin is taken only where the pair
	// serves as tuned.
	if err := s.StartAdaptation(AdaptOptions{MinQueries: 16, MinPrefetchGain: 0.01}); err != nil {
		t.Fatal(err)
	}
	for _, q := range eval.Queries {
		if _, err := s.LookupBatchRaw(0, q); err != nil {
			t.Fatal(err)
		}
	}
	before := st.loadState()
	oldSet := before.admit.pinnedIDs()
	var cached []uint32
	for _, id := range oldSet {
		if before.cache.Contains(id) {
			cached = append(cached, id)
		}
	}
	done := make(chan error, 1)
	go func() { done <- serveConcurrently(s, eval.Queries) }()
	rep, err := s.AdaptNow()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	after := st.loadState()
	if rep.Tables[0].PinnedVectors == 0 || after.cache != before.cache {
		t.Fatalf("the epoch did not re-pin in place: %+v", rep.Tables[0])
	}
	newSet := after.admit.pinnedIDs()
	kept, moved := 0, 0
	for _, id := range cached {
		if _, ok := slices.BinarySearch(newSet, id); !ok {
			moved++
			continue
		}
		if !after.cache.Contains(id) {
			t.Fatalf("id %d: cached and pinned before the epoch and after it, and evicted", id)
		}
		kept++
	}
	if kept == 0 || moved == 0 {
		t.Fatalf("of %d cached pinned ids the epoch kept %d pinned and unpinned %d: the re-pin moves nothing", len(cached), kept, moved)
	}
	if err := serveConcurrently(s, eval.Queries); err != nil {
		t.Fatal(err)
	}
	if err := pinnedShardsHold(st, eval.Queries); err != nil {
		t.Fatal(err)
	}
}

// TestHottestIDsArePinned: the store's pin verdict is cache.HottestIDs of the
// training counts at the table's allocation.
func TestHottestIDsArePinned(t *testing.T) {
	s, _ := pinnedStore(t, 4)
	st := s.tables[0]
	ts := st.loadState()
	if want := cache.HottestIDs(countsOf(st), ts.cacheCap, nil); !slices.Equal(ts.admit.pinnedIDs(), want) {
		t.Fatal("the pinned ids are not the allocation's worth of the hottest training ids")
	}
}
