package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bandana/internal/cache"
	"bandana/internal/sim"
	"bandana/internal/trace"
	"bandana/internal/vcache"
)

// pinnedWarm checks that the install warmed table st's cache: every id of
// its pin verdict is resident, or its shard has no room left (a warm fill
// never evicts), and every resident pinned id that was absent before (was,
// nil: none was resident) waits listed for its first request. It returns
// how many pinned ids the cache holds.
func pinnedWarm(st *storeTable, was map[uint32]bool) (int, error) {
	ts := st.loadState()
	ids := ts.admit.pinnedIDs()
	if len(ids) == 0 {
		return 0, fmt.Errorf("table %q holds no pin verdict", st.name)
	}
	c := ts.cache
	n := c.NumShards()
	capacity, used := make([]int, n), make([]int, n)
	for _, id := range ids {
		capacity[vcache.Hash(id)%uint64(n)]++
	}
	for id := uint32(0); int(id) < st.numVectors; id++ {
		if c.Contains(id) {
			used[vcache.Hash(id)%uint64(n)]++
		}
	}
	resident := 0
	for _, id := range ids {
		si := vcache.Hash(id) % uint64(n)
		switch {
		case !c.Contains(id) && used[si] < capacity[si]:
			return 0, fmt.Errorf("table %q: pinned id %d is not resident, and its shard holds %d of %d", st.name, id, used[si], capacity[si])
		case c.Contains(id) && !was[id] && !onList(c, id):
			return 0, fmt.Errorf("table %q: pinned id %d was warmed, and is held before any request", st.name, id)
		case c.Contains(id):
			resident++
		}
	}
	return resident, nil
}

// TestInstallWarmsPinnedSet: every layout install fills the pin verdict it
// publishes from the image it wrote. On the benchmark's cold shape every
// pinned id is resident before the first lookup. Train, LoadState and an
// AdaptNow re-layout all warm, and the first request of a warm id is a hit
// that reads no block and is no prefetch hit.
func TestInstallWarmsPinnedSet(t *testing.T) {
	t.Run("cold shape", func(t *testing.T) {
		if testing.Short() || raceEnabled {
			t.Skip("trains a four-table store (≈ 20 s under -race)")
		}
		s, _ := trainedShapeStore(t, 6000)
		defer s.Close()
		for ti, st := range s.tables {
			ts := st.loadState()
			n, err := pinnedWarm(st, nil)
			if err != nil {
				t.Fatal(err)
			}
			if pinned := ts.admit.pinnedVectors(); n != pinned || ts.cache.Len() != pinned {
				t.Fatalf("table %d: %d of %d pinned ids resident, %d entries", ti, n, pinned, ts.cache.Len())
			}
		}
	})

	s, eval := pinnedStore(t, 8)
	st := s.tables[0]
	if n, err := pinnedWarm(st, nil); err != nil || n != st.loadState().admit.pinnedVectors() {
		t.Fatalf("after Train: %d pinned ids resident: %v", n, err)
	}
	ids := st.loadState().admit.pinnedIDs()
	before := s.Stats()[0]
	if _, err := s.LookupBatchRaw(0, ids[:64]); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()[0]
	if after.Hits-before.Hits != 64 || after.BlockReads != before.BlockReads || after.PrefetchHits != before.PrefetchHits {
		t.Fatalf("64 warm ids: %d hits, %d block reads, %d prefetch hits", after.Hits-before.Hits, after.BlockReads-before.BlockReads, after.PrefetchHits-before.PrefetchHits)
	}
	for _, id := range ids[:64] {
		if onList(st.loadState().cache, id) {
			t.Fatalf("warm id %d is still listed after its first request", id)
		}
	}

	var saved bytes.Buffer
	if err := s.SaveState(&saved); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadState(&saved); err != nil {
		t.Fatal(err)
	}
	if n, err := pinnedWarm(st, nil); err != nil || n != st.loadState().admit.pinnedVectors() {
		t.Fatalf("after LoadState: %d pinned ids resident: %v", n, err)
	}

	if err := s.StartAdaptation(AdaptOptions{MinQueries: 16, MinPrefetchGain: 0.01, RelayoutEvery: 1, RelayoutMinGain: 0.01, SHPIterations: 4}); err != nil {
		t.Fatal(err)
	}
	defer s.StopAdaptation()
	for _, q := range eval.Queries {
		if _, err := s.LookupBatchRaw(0, q); err != nil {
			t.Fatal(err)
		}
	}
	was := make(map[uint32]bool)
	for id := uint32(0); int(id) < st.numVectors; id++ {
		if st.loadState().cache.Contains(id) {
			was[id] = true
		}
	}
	rep, err := s.AdaptNow()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Tables[0].Relayout || rep.Tables[0].PinnedVectors == 0 {
		t.Fatalf("the epoch re-laid out %v and pinned %d ids: not the install under test", rep.Tables[0].Relayout, rep.Tables[0].PinnedVectors)
	}
	warmed := 0
	for _, id := range st.loadState().admit.pinnedIDs() {
		if !was[id] && st.loadState().cache.Contains(id) {
			warmed++
		}
	}
	if _, err := pinnedWarm(st, was); err != nil || warmed == 0 {
		t.Fatalf("after an AdaptNow re-layout: %d pinned ids warmed: %v", warmed, err)
	}
}

// TestRoutedHalfReadsNoMoreThanReplay: a one-shard store trained on a whole
// trace and served only half its id ranges, as a routed primary is, reads
// no more blocks than sim.Replay of the deployed policy over the same
// requests from an empty cache: the pinned ids it never serves leave the
// warm cache first, and those it serves cost no block read on first
// request.
func TestRoutedHalfReadsNoMoreThanReplay(t *testing.T) {
	s, eval := pinnedStore(t, 1)
	st := s.tables[0]
	const span = 256 // ids per routed range
	served := &trace.Trace{TableName: eval.TableName, NumVectors: eval.NumVectors}
	for _, q := range eval.Queries {
		var half trace.Query
		for _, id := range q {
			if id/span%2 == 0 {
				half = append(half, id)
			}
		}
		if len(half) > 0 {
			served.Queries = append(served.Queries, half)
		}
	}
	s.ResetStats()
	for _, q := range served.Queries {
		if _, err := s.LookupBatchRaw(0, q); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Stats()[0]
	ts := st.loadState()
	counts := countsOf(st)
	policy := cache.NewPinnedAdmit(cache.NewThresholdAdmit(counts, ts.threshold, ts.demandThreshold), cache.HottestIDs(counts, ts.cacheCap, nil))
	want := sim.Replay(served, sim.Config{Layout: ts.layout, CacheVectors: ts.cacheCap, Policy: policy})
	t.Logf("served half the id ranges: %d lookups, the store read %d blocks, the replay from an empty cache %d", got.Lookups, got.BlockReads, want.BlockReads)
	if got.Lookups != want.Lookups || want.BlockReads == 0 {
		t.Fatalf("degenerate comparison: the store served %d lookups, the replay %d reading %d blocks", got.Lookups, want.Lookups, want.BlockReads)
	}
	if got.BlockReads > want.BlockReads {
		t.Fatalf("the warm store read %d blocks, the replay from an empty cache %d", got.BlockReads, want.BlockReads)
	}
}

// TestSealedCacheStaysSealedAcrossUpdates: once every pinned id is held, the
// cache stays sealed while updates of pinned ids race lookups and the
// compactor: an update moves the held id's slot word to the new bytes, so
// every lookup is a hit, and each serves a version at least the one
// acknowledged before it began and at most the one started when it ended.
func TestSealedCacheStaysSealedAcrossUpdates(t *testing.T) {
	s, _ := pinnedStore(t, 8)
	st := s.tables[0]
	pinned := st.loadState().admit.pinnedIDs()
	if _, err := s.LookupBatchRaw(0, pinned); err != nil {
		t.Fatal(err)
	}
	c := st.loadState().cache
	if !c.Sealed() {
		t.Fatal("every pinned id requested, and the cache is not sealed")
	}
	const hot, tags = 16, 400
	hotIDs := pinned[:hot]
	var acked, started [hot]atomic.Int32
	raw := make([][]byte, tags+1)
	for tag := range raw {
		raw[tag] = rawOf(testVec(st.dim, uint32(tag)))
	}
	for _, id := range hotIDs {
		if err := s.UpdateVectorRaw(0, id, raw[0]); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()[0]

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !done.Load() {
				var ids []uint32
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
					hi, ok := started[h].Load(), false
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
	wg.Add(2)
	go func() {
		defer wg.Done()
		for !done.Load() {
			if !c.Sealed() {
				errs <- fmt.Errorf("the cache unsealed under updates of held pinned ids")
				return
			}
			runtime.Gosched()
		}
	}()
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
	for tag := int32(1); tag <= tags; tag++ {
		h := int(tag) % hot
		started[h].Store(tag)
		if err := s.UpdateVectorRaw(0, hotIDs[h], raw[tag]); err != nil {
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
	if after := s.Stats()[0]; after.Misses != before.Misses || !c.Sealed() {
		t.Fatalf("%d misses of held pinned ids under updates; sealed %v", after.Misses-before.Misses, c.Sealed())
	}
}

// TestWarmOrderValidation: a version-7 file's warm order must name each
// pinned id once; one that repeats an id, or names an id the verdict does
// not pin, is refused before anything changes.
func TestWarmOrderValidation(t *testing.T) {
	s, _ := goldenV6Store(t)
	st := s.tables[0]
	warm := st.loadState().admit.warm
	var unpinned uint32
	for slices.Contains(warm, unpinned) {
		unpinned++
	}
	for name, bad := range map[string][]uint32{
		"repeated": append([]uint32{warm[1]}, warm[1:]...),
		"unpinned": append([]uint32{unpinned}, warm[1:]...),
	} {
		before := st.loadState()
		st.mutateState(func(ts *tableState) {
			b := *ts.admit
			b.warm = bad
			ts.admit = &b
		})
		var buf bytes.Buffer
		if err := s.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		st.state.Store(before)
		if err := s.LoadState(&buf); err == nil || !strings.Contains(err.Error(), "warm order") {
			t.Fatalf("%s: a warm order naming %v loaded: %v", name, bad[:2], err)
		}
		if st.loadState() != before {
			t.Fatalf("%s: the refused file changed the table's state", name)
		}
	}
}
