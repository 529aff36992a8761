package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"bandana/internal/cache"
	"bandana/internal/fp16"
	"bandana/internal/sim"
	"bandana/internal/table"
	"bandana/internal/trace"
)

// wholeVectors is the table size of the whole-table fixtures.
const wholeVectors = 4096

// wholePinned checks that st's cache is pinned whole: no pin verdict, an
// allocation that covers the table, a capacity of exactly the table's
// vectors, the whole-table form — a slot word per vector for its index, no
// slot records — and nothing on the recency lists.
func wholePinned(st *storeTable) error {
	ts := st.loadState()
	if ts.admit.pinnedSet() != nil || ts.cacheCap < st.numVectors || ts.cache.Cap() != st.numVectors {
		return fmt.Errorf("table %q: pin verdict %v, allocation %d, cache capacity %d, for %d vectors",
			st.name, ts.admit.pinnedSet() != nil, ts.cacheCap, ts.cache.Cap(), st.numVectors)
	}
	cs := ts.cache.Stats()
	if want := wholeIndexBytes(st.numVectors); !ts.cache.Whole() || cs.MetaBytes != 0 || cs.IndexBytes != want {
		return fmt.Errorf("table %q: whole form %v, %d B of slot records and %d B of index, want none and %d B",
			st.name, ts.cache.Whole(), cs.MetaBytes, cs.IndexBytes, want)
	}
	for i := range ts.cache.NumShards() {
		if keys, _ := ts.cache.ShardKeys(i); len(keys) != 0 {
			return fmt.Errorf("table %q: ids %v are on shard %d's recency list", st.name, keys, i)
		}
	}
	return nil
}

// wholeIndexBytes is the index of a whole-table cache over n vectors: a
// 4-byte slot word per vector.
func wholeIndexBytes(n int) int64 { return 4 * int64(n) }

// everyID is one query per run of 64 ids, covering ids 0..n-1.
func everyID(n int) []trace.Query {
	var qs []trace.Query
	for lo := 0; lo < n; lo += 64 {
		q := make(trace.Query, 0, 64)
		for id := lo; id < min(lo+64, n); id++ {
			q = append(q, uint32(id))
		}
		qs = append(qs, q)
	}
	return qs
}

// holdsWholeTable serves every id of table 0 from several goroutines, whose
// fills compete for each shard's room, and checks that the cache then holds
// every one: nothing was evicted, and since the capacity is the table's
// vectors, each shard's capacity is exactly the ids that hash to it.
func holdsWholeTable(s *Store) error {
	st := s.tables[0]
	if err := serveConcurrently(s, everyID(st.numVectors)); err != nil {
		return err
	}
	if ts := st.loadState(); ts.cache.Len() != st.numVectors {
		return fmt.Errorf("table %q: served every id, the cache holds %d of %d", st.name, ts.cache.Len(), st.numVectors)
	}
	return wholePinned(st)
}

// wholeStore opens a one-table store of wholeVectors vectors at the given
// DRAM budget and cache shards, and returns it with its training and
// held-out traces.
func wholeStore(t *testing.T, budget, shards int) (*Store, *trace.Trace, *trace.Trace) {
	t.Helper()
	tables, traces := buildTestTables(t, 1, wholeVectors, 900)
	train, eval := traces[0].Split(0.5)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: budget, Seed: 7, CacheShards: shards}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, train, eval
}

// trainWhole trains s on train and checks that Train gave table 0 its whole
// size without a pin verdict.
func trainWhole(t *testing.T, s *Store, train *trace.Trace) {
	t.Helper()
	rep, err := s.Train([]*trace.Trace{train}, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Tables[0]; got.CacheVectors != wholeVectors || got.PinnedVectors != 0 {
		t.Fatalf("Train gave %d cache vectors and pinned %d, want the whole %d-vector table and no verdict",
			got.CacheVectors, got.PinnedVectors, wholeVectors)
	}
}

// TestWholeTableCacheIsPinned: a store opened with a budget that covers its
// table holds the table's cache pinned whole, at 8 and at 64 shards. Every id
// served from several goroutines at once stays cached, every requested entry
// is off the recency list, and served again every lookup hits. An even split
// of the table's size across the shards overflows the shards more ids hash
// to, and fails this. The slot words and the flag bitset are the whole of
// the cache's index bytes.
func TestWholeTableCacheIsPinned(t *testing.T) {
	for _, shards := range []int{8, 64} {
		t.Run(fmt.Sprint(shards), func(t *testing.T) {
			s, _, _ := wholeStore(t, wholeVectors, shards)
			st := s.tables[0]
			if got := st.loadState().cache.NumShards(); got != shards {
				t.Fatalf("cache has %d shards, want %d", got, shards)
			}
			if err := holdsWholeTable(s); err != nil {
				t.Fatal(err)
			}
			s.ResetStats()
			for _, q := range everyID(wholeVectors) {
				if _, err := s.LookupBatchRaw(0, q); err != nil {
					t.Fatal(err)
				}
			}
			got := s.Stats()[0]
			if got.Misses != 0 || got.Hits != wholeVectors || got.PinnedVectors != 0 {
				t.Fatalf("served again: %d hits, %d misses, %d verdict-pinned vectors; want %d hits only",
					got.Hits, got.Misses, got.PinnedVectors, wholeVectors)
			}
			if want := wholeIndexBytes(wholeVectors); got.DRAM.CacheIndex != want {
				t.Fatalf("cache_index counts %d bytes, want the %d bytes of slot words and flag bitset", got.DRAM.CacheIndex, want)
			}
		})
	}
}

// TestTrainWholeAllocationPinsWhole: Train at a budget that gives the table
// its whole size leaves its cache pinned whole, and serving the held-out
// traffic and then every id evicts nothing.
func TestTrainWholeAllocationPinsWhole(t *testing.T) {
	s, train, eval := wholeStore(t, wholeVectors, 8)
	trainWhole(t, s, train)
	if err := wholePinned(s.tables[0]); err != nil {
		t.Fatal(err)
	}
	if err := serveConcurrently(s, eval.Queries); err != nil {
		t.Fatal(err)
	}
	if err := holdsWholeTable(s); err != nil {
		t.Fatal(err)
	}
}

// setDRAMBudget changes the budget the next plan splits.
func setDRAMBudget(s *Store, vectors int) {
	s.mutateMu.Lock()
	s.dramBudget = vectors
	s.mutateMu.Unlock()
}

// TestAdaptationSwapsWholeTableCacheOutAndBack: an epoch that shrinks a
// whole-table cache below its table swaps in one without the whole-table
// set, which evicts again; an epoch that grows it back to the whole table
// swaps in a whole-table cache again, keeping every entry the shrunk one
// holds.
func TestAdaptationSwapsWholeTableCacheOutAndBack(t *testing.T) {
	s, train, eval := wholeStore(t, wholeVectors, 8)
	trainWhole(t, s, train)
	st := s.tables[0]
	if err := s.StartAdaptation(AdaptOptions{MinQueries: 16}); err != nil {
		t.Fatal(err)
	}
	window := eval.Queries[:len(eval.Queries)/2]

	setDRAMBudget(s, wholeVectors/4)
	if err := serveConcurrently(s, window); err != nil {
		t.Fatal(err)
	}
	rep, err := s.AdaptNow()
	if err != nil {
		t.Fatal(err)
	}
	shrunk := st.loadState()
	if got := rep.Tables[0].CacheVectors; got >= wholeVectors || shrunk.cache.Cap() != got {
		t.Fatalf("the epoch gave the table %d vectors, its cache capacity %d: not shrunk below the table", got, shrunk.cache.Cap())
	}
	if err := wholePinned(st); err == nil {
		t.Fatal("a cache shrunk below its table is still pinned whole")
	}
	if err := serveConcurrently(s, everyID(wholeVectors)); err != nil {
		t.Fatal(err)
	}
	if n := shrunk.cache.Len(); n > shrunk.cache.Cap() || n == wholeVectors {
		t.Fatalf("served every id into a %d-vector cache, it holds %d: nothing was evicted", shrunk.cache.Cap(), n)
	}

	setDRAMBudget(s, wholeVectors)
	if err := serveConcurrently(s, window); err != nil {
		t.Fatal(err)
	}
	var resident []uint32
	for id := range uint32(wholeVectors) {
		if shrunk.cache.Contains(id) {
			resident = append(resident, id)
		}
	}
	if rep, err = s.AdaptNow(); err != nil {
		t.Fatal(err)
	}
	grown := st.loadState()
	if rep.Tables[0].CacheVectors != wholeVectors {
		t.Fatalf("the epoch gave the table %d vectors: not grown back to the whole table", rep.Tables[0].CacheVectors)
	}
	if err := wholePinned(st); err != nil {
		t.Fatal(err)
	}
	for _, id := range resident {
		if !grown.cache.Contains(id) {
			t.Fatalf("id %d: resident before the re-pin and evicted by it", id)
		}
	}
	if err := holdsWholeTable(s); err != nil {
		t.Fatal(err)
	}
}

// TestWholeTablePinSurvivesLoadStateAndReopen: the whole-table pin is not
// persisted but follows from the allocation a state file holds, so LoadState
// into a store opened at a smaller budget, and a reopen of a file-backed
// store, pin the cache whole again.
func TestWholeTablePinSurvivesLoadStateAndReopen(t *testing.T) {
	s, train, _ := wholeStore(t, wholeVectors, 8)
	trainWhole(t, s, train)
	var saved bytes.Buffer
	if err := s.SaveState(&saved); err != nil {
		t.Fatal(err)
	}

	loaded, _, _ := wholeStore(t, wholeVectors/4, 8)
	if err := wholePinned(loaded.tables[0]); err == nil {
		t.Fatal("the store opened at a quarter of the table is pinned whole before LoadState")
	}
	if err := loaded.LoadState(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := holdsWholeTable(loaded); err != nil {
		t.Fatalf("after LoadState: %v", err)
	}

	tables, _ := buildTestTables(t, 1, wholeVectors, 900)
	dir := filepath.Join(t.TempDir(), "store")
	f, err := Open(Config{Tables: tables, DRAMBudgetVectors: wholeVectors, Seed: 7, CacheShards: 8, Backend: BackendFile, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	trainWhole(t, f, train)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{DRAMBudgetVectors: wholeVectors / 4, Seed: 7, CacheShards: 8, Backend: BackendFile, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := holdsWholeTable(r); err != nil {
		t.Fatalf("after reopen: %v", err)
	}
}

// TestUpdatedIDIsCachedPinnedInWholeTable: an update of an id held in a
// whole-table cache moves its slot word to the new bytes, so the id stays
// cached off the recency list and its cached copy equals the update;
// lookups serve the new bytes, and after compaction the entry still serves
// them.
func TestUpdatedIDIsCachedPinnedInWholeTable(t *testing.T) {
	s, train, eval := wholeStore(t, wholeVectors, 8)
	trainWhole(t, s, train)
	st := s.tables[0]
	id := eval.Queries[0][0]
	if _, err := s.Lookup(0, id); err != nil {
		t.Fatal(err)
	}
	c := st.loadState().cache
	if !c.Contains(id) || onList(c, id) {
		t.Fatalf("id %d after a lookup: cached %v, on the recency list %v", id, c.Contains(id), onList(c, id))
	}
	vec := testVec(st.dim, 1000)
	if err := s.UpdateVector(0, id, vec); err != nil {
		t.Fatal(err)
	}
	var cached []byte
	c.GetFunc(id, func(p []byte, _ bool) { cached = append(cached, p...) })
	if !bytes.Equal(cached, rawOf(vec)) {
		t.Fatalf("id %d: the update left a cached copy of %d bytes that is not the update's", id, len(cached))
	}
	for pass := range 2 {
		got, err := s.Lookup(0, id)
		if err != nil {
			t.Fatal(err)
		}
		if !vecsEqual(got, vec) {
			t.Fatalf("pass %d: served stale bytes after the update", pass)
		}
		if !c.Contains(id) || onList(c, id) {
			t.Fatalf("id %d pass %d: cached %v, on the recency list %v", id, pass, c.Contains(id), onList(c, id))
		}
		if pass == 0 {
			if err := s.CompactDeltas(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := holdsWholeTable(s); err != nil {
		t.Fatal(err)
	}
}

// TestWholeTableReplayIsTheStore: a store of 8 cache shards whose Train gave
// the table its whole size serves held-out traffic, every id, and the
// held-out traffic again on exactly the counters sim.Replay gives the
// deployed policy in one unpinned shard of the same size: neither evicts.
func TestWholeTableReplayIsTheStore(t *testing.T) {
	s, train, eval := wholeStore(t, wholeVectors, 8)
	trainWhole(t, s, train)
	st := s.tables[0]
	ts := st.loadState()
	serve := &trace.Trace{TableName: eval.TableName, NumVectors: eval.NumVectors}
	serve.Queries = slices.Concat(eval.Queries, everyID(wholeVectors), eval.Queries)
	for _, q := range serve.Queries {
		if _, err := s.LookupBatchRaw(0, q); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Stats()[0]

	threshold := ts.threshold
	if !ts.prefetch {
		threshold = sim.DisablePrefetch
	}
	policy := cache.NewThresholdAdmit(countsOf(st), threshold, ts.demandThreshold)
	want := sim.Replay(serve, sim.Config{Layout: ts.layout, CacheVectors: ts.cacheCap, Policy: policy})
	if want.Hits == 0 || want.Misses == 0 || want.BlockReads == 0 {
		t.Fatalf("degenerate replay %+v", want)
	}
	if got.Lookups != want.Lookups || got.Hits != want.Hits || got.Misses != want.Misses ||
		got.BlockReads != want.BlockReads || got.ProbationFills != want.ProbationFills ||
		got.PrefetchAdds != want.PrefetchesAdmitted || got.PrefetchHits != want.PrefetchHits {
		t.Errorf("store and replay diverge\n store:  lookups=%d hits=%d misses=%d blockReads=%d probationFills=%d prefetchAdds=%d prefetchHits=%d\n replay: lookups=%d hits=%d misses=%d blockReads=%d probationFills=%d prefetchAdds=%d prefetchHits=%d",
			got.Lookups, got.Hits, got.Misses, got.BlockReads, got.ProbationFills, got.PrefetchAdds, got.PrefetchHits,
			want.Lookups, want.Hits, want.Misses, want.BlockReads, want.ProbationFills, want.PrefetchesAdmitted, want.PrefetchHits)
	}
	if err := wholePinned(st); err != nil {
		t.Fatal(err)
	}
}

// TestInitialSplitCapsSmallTables: Open caps a table's share of the budget
// at its size and shares the rest among the others, so a budget of 9,216
// over tables of 1,024 and 8,192 vectors covers both. Training the large
// table alone then leaves its cache covering it, in the whole-table form:
// the small table's allocation, which the split subtracts, is its size and
// not half the budget.
func TestInitialSplitCapsSmallTables(t *testing.T) {
	const small, large = 1024, 8192
	p := trace.Profile{Name: "large", NumVectors: large, AvgLookups: 20, Locality: 0.9, CommunitySize: 64, ReuseSkew: 3, Seed: 3}
	tables := []*table.Table{
		table.Generate("small", table.GenerateOptions{NumVectors: small, Dim: 16, Seed: 1}).Table,
		table.Generate(p.Name, table.GenerateOptions{NumVectors: large, Dim: 16, Seed: 2}).Table,
	}
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: small + large, Seed: 7, CacheShards: 8}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, want := range []int{small, large} {
		if got := s.tables[i].loadState().cacheCap; got != want {
			t.Fatalf("table %d opens with %d cache vectors, want its %d", i, got, want)
		}
	}
	rep, err := s.Train([]*trace.Trace{nil, trace.GenerateTable(p, 400)}, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Tables[1].CacheVectors; got != large {
		t.Fatalf("Train gave the large table %d cache vectors, want its %d", got, large)
	}
	for _, st := range s.tables {
		if err := wholePinned(st); err != nil {
			t.Fatal(err)
		}
	}
}

// rawOf is the fp16 encoding of vec, as LookupBatchRaw serves it.
func rawOf(vec []float32) []byte { return fp16.EncodeSlice(nil, vec) }

// TestWholeFormServesUpdatesUnderRace is the whole-table form's -race test
// of the serving path: lookups served by lock-free hits run against
// UpdateVector (which moves a held id's slot word to the new bytes) and
// CompactDeltas. Each update's tag is counted
// started before UpdateVector and acknowledged after it returns; a lookup
// must serve an id's vector of a tag at least the one acknowledged before
// it began and at most the one started when it ended.
func TestWholeFormServesUpdatesUnderRace(t *testing.T) {
	s, train, _ := wholeStore(t, wholeVectors, 8)
	trainWhole(t, s, train)
	st := s.tables[0]
	const hot, tags = 16, 400
	var acked, started [hot]atomic.Int32
	raw := make([][]byte, tags+1)
	for tag := 1; tag <= tags; tag++ {
		raw[tag] = rawOf(testVec(st.dim, uint32(tag)))
	}
	for id := range uint32(hot) {
		if err := s.UpdateVector(0, id, testVec(st.dim, 1)); err != nil {
			t.Fatal(err)
		}
		acked[id].Store(1)
		started[id].Store(1)
	}
	if err := serveConcurrently(s, everyID(wholeVectors)); err != nil {
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
				for _, v := range rng.Perm(wholeVectors)[:16] {
					ids = append(ids, uint32(v))
				}
				for _, v := range rng.Perm(hot)[:8] {
					if !slices.Contains(ids, uint32(v)) {
						ids = append(ids, uint32(v))
					}
				}
				var lo [hot]int32
				for id := range lo {
					lo[id] = acked[id].Load()
				}
				got, err := s.LookupBatchRaw(0, ids)
				if err != nil {
					errs <- err
					return
				}
				for i, id := range ids {
					if id >= hot {
						continue
					}
					hi := started[id].Load()
					ok := false
					for tag := lo[id]; tag <= hi && !ok; tag++ {
						ok = bytes.Equal(got[i], raw[tag])
					}
					if !ok {
						errs <- fmt.Errorf("id %d served a vector of none of tags %d..%d", id, lo[id], hi)
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
		id := uint32(tag) % hot
		started[id].Store(tag)
		if err := s.UpdateVector(0, id, testVec(st.dim, uint32(tag))); err != nil {
			t.Fatal(err)
		}
		acked[id].Store(tag)
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
	if err := holdsWholeTable(s); err != nil {
		t.Fatal(err)
	}
}

// TestWholeFormSwapsUnderLookups: shrinking a whole-table cache below its
// table and growing it back swaps caches in and out of the whole-table
// form, each filled from the one before, while lookups run against them;
// every lookup serves the table's bytes, and the cache ends whole holding
// every id again.
func TestWholeFormSwapsUnderLookups(t *testing.T) {
	s, train, _ := wholeStore(t, wholeVectors, 8)
	trainWhole(t, s, train)
	st := s.tables[0]
	want := make([][]byte, 0, wholeVectors)
	for _, q := range everyID(wholeVectors) {
		got, err := s.LookupBatchRaw(0, q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, got...)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for r := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !done.Load() {
				ids := make([]uint32, 32)
				for i, v := range rng.Perm(wholeVectors)[:len(ids)] {
					ids[i] = uint32(v)
				}
				got, err := s.LookupBatchRaw(0, ids)
				if err != nil {
					errs <- err
					return
				}
				for i, id := range ids {
					if !bytes.Equal(got[i], want[id]) {
						errs <- fmt.Errorf("id %d served bytes that are not its own", id)
						return
					}
				}
			}
		}()
	}
	resize := func(capacity int) {
		s.mutateMu.Lock()
		st.updateMu.Lock()
		st.mutateState(func(ts *tableState) { st.resizeCache(ts, capacity, nil) })
		st.updateMu.Unlock()
		s.mutateMu.Unlock()
	}
	for round := range 20 {
		resize(wholeVectors / 4)
		if c := st.loadState().cache; c.Whole() || c.Cap() != wholeVectors/4 {
			t.Fatalf("round %d: shrunk to a quarter, whole form %v, capacity %d", round, c.Whole(), c.Cap())
		}
		runtime.Gosched()
		resize(wholeVectors)
		if err := wholePinned(st); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := holdsWholeTable(s); err != nil {
		t.Fatal(err)
	}
}
