package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bandana/internal/cache"
	"bandana/internal/sim"
	"bandana/internal/trace"
	"bandana/internal/vcache"
)

// serveSequential is serveBatch's cache program written per id, the way it
// ran before the probe was batched by shard: each unique id, in batch order,
// is probed with a Get and, on a miss the overlay holds, filled at the MRU
// end; then per missed block, in ascending order, the block's requested ids
// fill at p's demand position in batch order and its other members are
// offered to p as prefetches. ref is a keys-only cache of the store cache's
// capacity and shard count; p is the policy the store serves.
func serveSequential(ref *vcache.Cache, st *storeTable, ts *tableState, p cache.AdmissionPolicy, ids []uint32) {
	var uniq []uint32
	var missed []missRef
	for _, id := range ids {
		if slices.Contains(uniq, id) {
			continue
		}
		uniq = append(uniq, id)
		if _, _, hit := ref.Get(id); hit {
			continue
		}
		if st.overlay.contains(id) {
			ref.AddAt(id, nil, 0, false)
			continue
		}
		missed = append(missed, missRef{id: id, block: ts.layout.BlockOf(id)})
	}
	slices.SortStableFunc(missed, func(a, b missRef) int { return cmp.Compare(a.block, b.block) })
	for lo, hi := 0, 0; lo < len(missed); lo = hi {
		block := missed[lo].block
		for hi = lo; hi < len(missed) && missed[hi].block == block; hi++ {
			ref.AddAt(missed[hi].id, nil, p.DemandPosition(missed[hi].id), false)
		}
		for _, other := range ts.layout.BlockMembers(block, nil) {
			admit, pos := p.AdmitPrefetch(other)
			requested := slices.ContainsFunc(missed[lo:hi], func(r missRef) bool { return r.id == other })
			if admit && !requested && !st.overlay.contains(other) {
				ref.AddAtGuard(other, nil, pos, true, nil, 0)
			}
		}
	}
}

// TestBatchedProbeMatchesSequential holds the shard-batched probe to the
// per-id program it replaced: random batches — repeated ids, ids the overlay
// serves, more ids than the cache holds, empty batches and single-id Lookups
// — go through the store, and serveSequential drives a second cache of the
// same shape. After every batch both caches must list the same keys in the
// same MRU→LRU order with the same prefetched flags, shard by shard.
func TestBatchedProbeMatchesSequential(t *testing.T) {
	tables, traces := buildTestTables(t, 1, 4096, 400)
	train, eval := traces[0].Split(0.5)
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			s, err := Open(testBackendConfig(t, Config{
				Tables:            tables,
				DRAMBudgetVectors: 256,
				CacheShards:       shards,
				Seed:              1,
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Train([]*trace.Trace{train}, TrainOptions{}); err != nil {
				t.Fatal(err)
			}
			st := s.tables[0]
			counts := train.AccessCounts()
			// Prefetching and the demand gate both on, so fills land in
			// several segments and prefetched flags are set and cleared.
			policy := cache.ThresholdAdmit{
				Counts:          counts,
				Threshold:       sim.AdaptiveThresholds(counts)[1],
				DemandThreshold: sim.DemandThresholds(counts, 256)[0],
			}
			installThreshold(st, policy)
			st.mutateState(func(ts *tableState) { st.freshCache(ts, ts.cacheCap, nil) })
			ts := st.loadState()
			ref := vcache.New(vcache.Options{Capacity: ts.cacheCap, Shards: shards})
			if ts.cache.NumShards() != shards || ref.NumShards() != shards {
				t.Fatalf("store cache has %d shards, reference %d, want %d", ts.cache.NumShards(), ref.NumShards(), shards)
			}

			rng := rand.New(rand.NewSource(int64(shards)))
			vec := make([]float32, 64)
			prefetched, overlaid := 0, 0
			for step := 0; step < 600; step++ {
				q := eval.Queries[rng.Intn(len(eval.Queries))]
				var ids []uint32
				switch r := rng.Intn(20); {
				case r == 0: // an update: the overlay serves id until compaction
					id := q[0]
					vec[0] = float32(step)
					if err := s.UpdateVector(0, id, vec); err != nil {
						t.Fatal(err)
					}
					ref.Refresh(id, nil)
					overlaid++
					continue
				case r == 1: // empty batch
				case r <= 4: // single-id Lookup
					ids = q[:1]
				case r <= 8: // several queries' worth: the dedupe table path
					ids = append(ids, q...)
					for len(ids) <= dedupeScanThreshold {
						ids = append(ids, eval.Queries[rng.Intn(len(eval.Queries))]...)
					}
				default:
					ids = append(ids, q...)
				}
				for n := rng.Intn(4); n > 0 && len(ids) > 0; n-- { // repeats
					ids = append(ids, ids[rng.Intn(len(ids))])
				}
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

				serveSequential(ref, st, ts, policy, ids)
				if len(ids) == 1 {
					_, err = s.Lookup(0, ids[0])
				} else {
					_, err = s.LookupBatchRaw(0, ids)
				}
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < shards; i++ {
					got, gotPre := ts.cache.ShardKeys(i)
					want, wantPre := ref.ShardKeys(i)
					if !slices.Equal(got, want) || !slices.Equal(gotPre, wantPre) {
						t.Fatalf("step %d, batch %v: shard %d\n store:     %v %v\n reference: %v %v", step, ids, i, got, gotPre, want, wantPre)
					}
					for _, p := range gotPre {
						if p {
							prefetched++
						}
					}
				}
			}
			if dh := s.Stats()[0].DeltaHits; dh == 0 || prefetched == 0 || overlaid == 0 {
				t.Fatalf("degenerate run: %d overlay hits after %d updates, %d prefetched entries seen", dh, overlaid, prefetched)
			}
		})
	}
}

// raceEnabled is set by race_test.go in a -race build, whose runtime drops a
// share of sync.Pool puts on purpose: an allocation gate over pooled scratch
// cannot hold under it.
var raceEnabled bool

// TestHitRawBatchAllocBound is the hit path's allocation gate: a 64-id
// leased raw batch served entirely from DRAM, some ids repeated, allocates
// nothing — the result slice, the dedupe table, the per-id results and the
// shard chains come from pooled scratch. CacheShards is pinned so the bound
// does not depend on the host. CI's alloc-gate step runs this without
// -race.
func TestHitRawBatchAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	tables, _ := buildTestTables(t, 1, 1024, 10)
	s, err := Open(Config{Tables: tables, DRAMBudgetVectors: 1024, CacheShards: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := make([]uint32, 64)
	for i := range ids {
		ids[i] = uint32(7 * (i % 48)) // 48 distinct ids, 16 repeats
	}
	run := func() {
		out, release, err := s.LookupBatchRawLeased(0, ids)
		if err != nil {
			t.Fatal(err)
		}
		if out[63] == nil {
			t.Fatal("short result")
		}
		release()
	}
	run() // fills the cache and the scratch pools
	before := s.Stats()[0]
	allocs := testing.AllocsPerRun(100, run)
	after := s.Stats()[0]
	t.Logf("%.1f allocs per all-hit 64-id raw batch", allocs)
	if after.Misses != before.Misses || after.Hits-before.Hits != 101*64 {
		t.Fatalf("%d misses and %d hits over 101 batches: not the all-hit path", after.Misses-before.Misses, after.Hits-before.Hits)
	}
	if allocs > 0 {
		t.Fatalf("all-hit 64-id raw batch allocates %.1f times, want 0", allocs)
	}
}
