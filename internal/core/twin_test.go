package core

import (
	"fmt"
	"testing"

	"bandana/internal/cache"
	"bandana/internal/sim"
	"bandana/internal/trace"
)

// TestReplayIsTheStore holds sim.Replay and the serving path together: one
// trace replayed through the simulator at full size and served by a store
// with one cache shard must produce EQUAL block reads, hits, misses,
// probation fills, prefetch admissions and prefetch hits, through every read
// API, with prefetching off, under threshold policies of several
// thresholds, the demand gate on and off, and under the pin verdict. The miniature caches tune the
// threshold on this replay, so any drift between the two programs is a
// tuning error; this test is what keeps "serving behaves exactly as
// simulated" true.
func TestReplayIsTheStore(t *testing.T) {
	const vectors = 4096
	tables, traces := buildTestTables(t, 1, vectors, 900)
	train, eval := traces[0].Split(0.5)

	// Exercise the corners of the batch algorithm: repeated ids inside a
	// query (repeats of a hit and of a miss inherit the first probe's class)
	// and one-id queries.
	serve := &trace.Trace{TableName: eval.TableName, NumVectors: eval.NumVectors}
	for i, q := range eval.Queries {
		q = append(trace.Query(nil), q...)
		switch {
		case i%5 == 0:
			q = q[:1]
		case i%3 == 0:
			q = append(q, q[0], q[len(q)/2], q[0])
		}
		serve.Queries = append(serve.Queries, q)
	}

	// Raw, float and single lookups are one routine: each driver must land
	// on the replay's counters exactly.
	drivers := []struct {
		name  string
		serve func(s *Store, q trace.Query) error
	}{
		{"LookupBatchRaw", func(s *Store, q trace.Query) error {
			_, err := s.LookupBatchRaw(0, q)
			return err
		}},
		{"LookupBatch", func(s *Store, q trace.Query) error {
			_, err := s.LookupBatch(0, q)
			return err
		}},
		{"Lookup", func(s *Store, q trace.Query) error {
			if len(q) != 1 {
				_, err := s.LookupBatchRaw(0, q)
				return err
			}
			_, err := s.Lookup(0, q[0])
			return err
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			s, err := Open(testBackendConfig(t, Config{
				Tables:            tables,
				DRAMBudgetVectors: 300,
				Seed:              7,
				CacheShards:       1,
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// SHP layout and access counts; the policies under test replace
			// the tuned one below.
			if _, err := s.Train([]*trace.Trace{train}, TrainOptions{}); err != nil {
				t.Fatal(err)
			}
			st := s.tables[0]
			snap := st.loadState()
			if got := snap.cache.NumShards(); got != 1 {
				t.Fatalf("store has %d cache shards, want 1", got)
			}

			counts := train.AccessCounts() // what Train computed; the store keeps only verdicts
			cands := sim.AdaptiveThresholds(counts)
			if len(cands) < 3 {
				t.Fatalf("want at least 3 candidate thresholds, got %v", cands)
			}
			// The store serves no prefetching as a threshold policy that
			// admits nothing and gates nothing.
			policies := []cache.AdmissionPolicy{cache.NoPrefetch{}}
			for _, th := range cands[:3] {
				policies = append(policies, cache.ThresholdAdmit{Counts: counts, Threshold: th})
			}
			// The demand gate, under prefetching and alone.
			gates := sim.DemandThresholds(counts, snap.cacheCap)
			if len(gates) < 2 {
				t.Fatalf("want at least 2 candidate demand thresholds, got %v", gates)
			}
			for _, g := range gates {
				policies = append(policies,
					cache.ThresholdAdmit{Counts: counts, Threshold: cands[1], DemandThreshold: g},
					cache.ThresholdAdmit{Counts: counts, Threshold: sim.DisablePrefetch, DemandThreshold: g})
			}
			// The cache's worth of the hottest ids, pinned over a gated pair.
			policies = append(policies, cache.NewPinnedAdmit(cache.NewThresholdAdmit(counts, cands[1], gates[0]),
				cache.HottestIDs(counts, snap.cacheCap, nil)))

			for _, p := range policies {
				ta, ok := p.(cache.ThresholdAdmit)
				if !ok {
					ta = cache.ThresholdAdmit{Counts: counts, Threshold: sim.DisablePrefetch}
				}
				pa, pinned := p.(cache.PinnedAdmit)
				if pinned {
					ta = pa.Pair
				}
				name := fmt.Sprintf("%s/%d/%d", p.Name(), ta.Threshold, ta.DemandThreshold)
				prefetching := pinned || ta.Threshold != sim.DisablePrefetch
				st.mutateState(func(ts *tableState) { st.freshCache(ts, snap.cacheCap, nil) }) // empty cache
				if pinned {
					installThreshold(st, pa)
				} else {
					installThreshold(st, ta)
				}
				s.ResetStats()
				for _, q := range serve.Queries {
					if err := d.serve(s, q); err != nil {
						t.Fatal(err)
					}
				}
				got := s.Stats()[0]
				want := sim.Replay(serve, sim.Config{Layout: snap.layout, CacheVectors: snap.cacheCap, Policy: p})
				gated := ta.DemandThreshold > 0
				if want.BlockReads == 0 || want.Hits == 0 || (prefetching && want.PrefetchHits == 0) ||
					gated != (want.ProbationFills > 0) || (gated && want.ProbationFills == want.Misses) {
					t.Fatalf("%s: degenerate replay %+v", name, want)
				}
				if got.Lookups != want.Lookups || got.Hits != want.Hits || got.Misses != want.Misses ||
					got.BlockReads != want.BlockReads || got.ProbationFills != want.ProbationFills ||
					got.PrefetchAdds != want.PrefetchesAdmitted || got.PrefetchHits != want.PrefetchHits {
					t.Errorf("%s: store and replay diverge\n store:  lookups=%d hits=%d misses=%d blockReads=%d probationFills=%d prefetchAdds=%d prefetchHits=%d\n replay: lookups=%d hits=%d misses=%d blockReads=%d probationFills=%d prefetchAdds=%d prefetchHits=%d",
						name, got.Lookups, got.Hits, got.Misses, got.BlockReads, got.ProbationFills, got.PrefetchAdds, got.PrefetchHits,
						want.Lookups, want.Hits, want.Misses, want.BlockReads, want.ProbationFills, want.PrefetchesAdmitted, want.PrefetchHits)
				}
			}
		})
	}
}

// TestTrainedPolicyReplayIsTheStore holds the policy Train installs to the
// one the tuner replays, prefetch position included: a store trained at a
// budget that evicts, with prefetching on, must serve held-out traffic on
// exactly the counters sim.Replay gives the deployed cache.NewThresholdAdmit
// of the tuned thresholds (pinned, had Train pinned). The fixture is one
// where entering admitted prefetches at the MRU end instead gives different
// counters, so a store that compiled its verdicts at another position than
// the tuner's replays fails here. Its budget is 900 vectors: at 300, and at
// every budget up to 600, Train pins the cache's worth of the hottest ids,
// and the pinned ids it fills leave the positions nothing to tell apart.
func TestTrainedPolicyReplayIsTheStore(t *testing.T) {
	tables, traces := buildTestTables(t, 1, 4096, 900)
	train, eval := traces[0].Split(0.5)
	s, err := Open(testBackendConfig(t, Config{
		Tables:            tables,
		DRAMBudgetVectors: 900,
		Seed:              7,
		CacheShards:       1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Train([]*trace.Trace{train}, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	st := s.tables[0]
	ts := st.loadState()
	if !ts.prefetch {
		t.Fatalf("tuner turned prefetching off: no admitted prefetch to place")
	}
	for _, q := range eval.Queries {
		if _, err := s.LookupBatchRaw(0, q); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Stats()[0]

	// The deployed policy is the tuned thresholds, pinned to the cache's
	// worth of the hottest training ids where Train took the pin verdict.
	counts := countsOf(st)
	deployed := cache.NewThresholdAdmit(counts, ts.threshold, ts.demandThreshold)
	replay := func(p cache.ThresholdAdmit) sim.Result {
		var policy cache.AdmissionPolicy = p
		if ts.admit.pinned != nil {
			policy = cache.NewPinnedAdmit(p, cache.HottestIDs(counts, ts.cacheCap, nil))
		}
		return sim.Replay(eval, sim.Config{Layout: ts.layout, CacheVectors: ts.cacheCap, Policy: policy})
	}
	want := replay(deployed)
	atMRU := deployed
	atMRU.Position = 0
	mru := replay(atMRU)
	if want.PrefetchesAdmitted == 0 || want.Misses+want.PrefetchesAdmitted <= int64(ts.cacheCap) {
		t.Fatalf("degenerate replay %+v: no admitted prefetch, or nothing evicted from a %d-vector cache", want, ts.cacheCap)
	}
	if mru.BlockReads == want.BlockReads && mru.PrefetchHits == want.PrefetchHits && mru.Hits == want.Hits {
		t.Fatalf("MRU and mid-queue entry read alike (%d blocks, %d prefetch hits): the fixture cannot tell the positions apart",
			want.BlockReads, want.PrefetchHits)
	}
	if got.Lookups != want.Lookups || got.Hits != want.Hits || got.Misses != want.Misses ||
		got.BlockReads != want.BlockReads || got.ProbationFills != want.ProbationFills ||
		got.PrefetchAdds != want.PrefetchesAdmitted || got.PrefetchHits != want.PrefetchHits {
		t.Errorf("store and the deployed policy's replay diverge\n store:  lookups=%d hits=%d misses=%d blockReads=%d probationFills=%d prefetchAdds=%d prefetchHits=%d\n replay: lookups=%d hits=%d misses=%d blockReads=%d probationFills=%d prefetchAdds=%d prefetchHits=%d\n at MRU: blockReads=%d prefetchHits=%d",
			got.Lookups, got.Hits, got.Misses, got.BlockReads, got.ProbationFills, got.PrefetchAdds, got.PrefetchHits,
			want.Lookups, want.Hits, want.Misses, want.BlockReads, want.ProbationFills, want.PrefetchesAdmitted, want.PrefetchHits,
			mru.BlockReads, mru.PrefetchHits)
	}
}
