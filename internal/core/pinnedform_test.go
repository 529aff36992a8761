package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"bandana/internal/trace"
)

// TestPinnedFormServesUpdatesUnderRace: lookups of a pinned table, whose
// held ids are served without the shard lock, race UpdateVector of pinned
// ids and the compactor. Every lookup of an updated id serves the bytes of
// an update acknowledged before the lookup started or of one started
// before it returned, never older ones, and no pinned id read since its
// last update is lost.
func TestPinnedFormServesUpdatesUnderRace(t *testing.T) {
	s, eval := pinnedStore(t, 8)
	st := s.tables[0]
	if err := serveConcurrently(s, eval.Queries); err != nil {
		t.Fatal(err)
	}
	const hot, tags = 16, 400
	pinned := st.loadState().admit.pinnedIDs()
	hotIDs := pinned[:hot]
	var acked, started [hot]atomic.Int32
	raw := make([][]byte, tags+1)
	for tag := 1; tag <= tags; tag++ {
		raw[tag] = rawOf(testVec(st.dim, uint32(tag)))
	}
	for h, id := range hotIDs {
		if err := s.UpdateVector(0, id, testVec(st.dim, 1)); err != nil {
			t.Fatal(err)
		}
		acked[h].Store(1)
		started[h].Store(1)
	}
	if err := serveConcurrently(s, []trace.Query{hotIDs}); err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !done.Load() {
				ids := make([]uint32, 0, 24)
				for _, v := range rng.Perm(len(pinned))[:16] {
					ids = append(ids, pinned[v])
				}
				for _, h := range rng.Perm(hot)[:8] {
					if !slices.Contains(ids, hotIDs[h]) {
						ids = append(ids, hotIDs[h])
					}
				}
				var lo [hot]int32
				for h := range lo {
					lo[h] = acked[h].Load()
				}
				got, err := s.LookupBatchRaw(0, ids)
				if err != nil {
					errs <- err
					return
				}
				for i, id := range ids {
					h := slices.Index(hotIDs, id)
					if h < 0 {
						continue
					}
					hi := started[h].Load()
					ok := false
					for tag := lo[h]; tag <= hi && !ok; tag++ {
						ok = bytes.Equal(got[i], raw[tag])
					}
					if !ok {
						errs <- fmt.Errorf("id %d served a vector of none of tags %d..%d", id, lo[h], hi)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			if err := s.CompactDeltas(); err != nil {
				errs <- err
				return
			}
			runtime.Gosched()
		}
	}()
	for tag := int32(2); tag <= tags; tag++ {
		h := int(tag) % hot
		started[h].Store(tag)
		if err := s.UpdateVector(0, hotIDs[h], testVec(st.dim, uint32(tag))); err != nil {
			t.Fatal(err)
		}
		acked[h].Store(tag)
		if tag%16 == 0 {
			runtime.Gosched()
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The updated ids stayed held; read once more, they are cached pinned.
	if _, err := s.LookupBatchRaw(0, hotIDs); err != nil {
		t.Fatal(err)
	}
	if err := pinnedShardsHold(st, append(eval.Queries, hotIDs)); err != nil {
		t.Fatal(err)
	}
}

// TestPinnedCacheIndexBound: on the benchmark's cold shape (four tables,
// a 6,000-vector budget over held-out traffic, every table pinned, 8
// shards) a pinned cache's index is, to the byte, a slot word per pinned
// id, a rank per 64 ids of the table, and the recency lists' own records
// and probe tables; the lists' bytes stay within what their room needs (a
// smallest probe table a shard, and at most 216 B a shard plus 88 B per
// entry of room); and the whole index is at most 8 B per pinned id.
func TestPinnedCacheIndexBound(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("trains and serves a four-table store (≈ 30 s under -race); CI's heap-gate step runs it without -race")
	}
	const shards = 8
	s := coldShapeStore(t)
	defer s.Close()
	var index, pinnedIDs int64
	for ti, got := range s.Stats() {
		st := s.tables[ti]
		ts := st.loadState()
		cs := ts.cache.Stats()
		if got.PinnedVectors == 0 || cs.Shards != shards {
			t.Fatalf("table %d: %d pinned vectors, %d shards: the fixture no longer pins every table", ti, got.PinnedVectors, cs.Shards)
		}
		// Room is the capacity no held pinned id fills.
		room := int64(cs.Capacity - (cs.Entries - cs.ListEntries))
		want := 4*int64(got.PinnedVectors) + 4*int64((st.numVectors+63)/64) + cs.ListBytes
		t.Logf("table %d: %d pinned of %d vectors, %d resident, %d listed, room %d: cache_index %d B (lists %d B)",
			ti, got.PinnedVectors, st.numVectors, cs.Entries, cs.ListEntries, room, got.DRAM.CacheIndex, cs.ListBytes)
		if got.DRAM.CacheIndex != want {
			t.Errorf("table %d: cache_index %d B, want %d: slot words, rank directory and the lists' %d B", ti, got.DRAM.CacheIndex, want, cs.ListBytes)
		}
		if lists := cs.ListBytes; lists < shards*64 || lists > shards*216+88*room {
			t.Errorf("table %d: the lists hold %d B for a room of %d over %d shards", ti, lists, room, shards)
		}
		index += got.DRAM.CacheIndex
		pinnedIDs += int64(got.PinnedVectors)
	}
	perID := float64(index) / float64(pinnedIDs)
	t.Logf("cache_index %d B over %d pinned ids: %.2f B per pinned id", index, pinnedIDs, perID)
	if perID > 8 {
		t.Fatalf("cache_index is %.2f B per pinned id, want <= 8", perID)
	}
}

// TestColdShapeCachesSeal: on the benchmark's cold shape every table's
// cache ends the replay sealed — full of requested pinned ids, refusing
// every other id — so its misses make no fill and no prefetch offer: a cold
// batch of ids the cache does not hold is served, and the cache's entries
// and the table's prefetch adds stay where they were.
func TestColdShapeCachesSeal(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("trains and serves a four-table store (≈ 30 s under -race)")
	}
	s := coldShapeStore(t)
	defer s.Close()
	for ti, st := range s.tables {
		c := st.loadState().cache
		if !c.Sealed() {
			t.Fatalf("table %d: the cache is not sealed after the replay", ti)
		}
		var ids []uint32
		for id := uint32(0); int(id) < st.numVectors && len(ids) < 64; id += 7 {
			if !c.Contains(id) {
				ids = append(ids, id)
			}
		}
		before, entries := s.Stats()[ti], c.Len()
		out, err := s.LookupBatchRaw(ti, ids)
		if err != nil {
			t.Fatal(err)
		}
		after := s.Stats()[ti]
		for i, v := range out {
			if len(v) != st.vecBytes {
				t.Fatalf("table %d: id %d served %d bytes", ti, ids[i], len(v))
			}
		}
		if misses := after.Misses - before.Misses; misses != int64(len(ids)) || c.Len() != entries || after.PrefetchAdds != before.PrefetchAdds {
			t.Fatalf("table %d: %d misses of %d ids, cache entries %d -> %d, prefetch adds %d -> %d", ti, misses, len(ids), entries, c.Len(), before.PrefetchAdds, after.PrefetchAdds)
		}
	}
}
