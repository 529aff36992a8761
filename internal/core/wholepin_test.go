package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"bandana/internal/cache"
	"bandana/internal/sim"
	"bandana/internal/trace"
)

// wholeVectors is the table size of the whole-table fixtures.
const wholeVectors = 4096

// wholePinned checks that st's cache is pinned whole: no pin verdict, an
// allocation that covers the table, a capacity of exactly the table's
// vectors, and on the recency lists only entries a neighbour's read brought
// in that no request has asked for yet.
func wholePinned(st *storeTable) error {
	ts := st.loadState()
	if ts.admit.pinnedSet() != nil || ts.cacheCap < st.numVectors || ts.cache.Cap() != st.numVectors {
		return fmt.Errorf("table %q: pin verdict %v, allocation %d, cache capacity %d, for %d vectors",
			st.name, ts.admit.pinnedSet() != nil, ts.cacheCap, ts.cache.Cap(), st.numVectors)
	}
	for i := range ts.cache.NumShards() {
		keys, prefetched := ts.cache.ShardKeys(i)
		for k, p := range prefetched {
			if !p {
				return fmt.Errorf("table %q: requested id %d is on shard %d's recency list", st.name, keys[k], i)
			}
		}
	}
	return nil
}

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
// to, and fails this. The whole-table set is counted in the cache's index
// bytes.
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
			cs := st.loadState().cache.Stats()
			if set := got.DRAM.CacheIndex - cs.MetaBytes - cs.IndexBytes; set != wholeVectors/8 {
				t.Fatalf("cache_index counts %d bytes beside the slot records and probe tables, want the %d-byte whole-table set",
					set, wholeVectors/8)
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

// TestAdaptationUnpinsAndRepinsWholeTable: an epoch that shrinks a
// whole-table cache below its table ends the whole-table set, and the cache
// evicts again; an epoch that grows it back to the whole table re-pins the
// same cache in place, keeping every entry it holds.
func TestAdaptationUnpinsAndRepinsWholeTable(t *testing.T) {
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
	if rep.Tables[0].CacheVectors != wholeVectors || grown.cache != shrunk.cache {
		t.Fatalf("the epoch gave the table %d vectors in a new cache %v: not re-pinned in place",
			rep.Tables[0].CacheVectors, grown.cache != shrunk.cache)
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

// TestUpdatedIDIsCachedPinnedInWholeTable: an update invalidates the cached
// copy of an id in a whole-table cache; the next lookup serves the new bytes
// from the overlay and caches them again off the recency list, and after
// compaction the entry still serves them.
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
	if c.Contains(id) {
		t.Fatalf("id %d: the update left its stale copy cached", id)
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
