package bandana_test

import (
	"testing"

	"bandana"
)

// hitPathStore builds a single-table store whose cache holds the entire
// table, then warms it so every subsequent lookup is a cache hit. This
// isolates the concurrency behaviour of the serving path (shard locking,
// counters) from NVM read latency.
func hitPathStore(b *testing.B) (*bandana.Store, int) {
	b.Helper()
	const numVectors = 8192
	g := bandana.GenerateTable("hot", bandana.TableGenerateOptions{
		NumVectors: numVectors,
		Dim:        64,
		Seed:       1,
	})
	store, err := bandana.Open(bandana.Config{
		Tables:            []*bandana.Table{g.Table},
		DRAMBudgetVectors: 2 * numVectors, // everything fits
		Seed:              1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	for id := 0; id < numVectors; id++ {
		if _, err := store.Lookup(0, uint32(id)); err != nil {
			b.Fatal(err)
		}
	}
	return store, numVectors
}

// BenchmarkLookupSerial is the single-goroutine baseline for
// BenchmarkLookupParallel: the same cache-hit lookup stream, no concurrency.
func BenchmarkLookupSerial(b *testing.B) {
	store, n := hitPathStore(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := store.Lookup(0, uint32(i%n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookupParallel drives the cache-hit path from GOMAXPROCS
// goroutines. With the sharded per-table cache, throughput should scale
// with the processor count (compare ns/op against BenchmarkLookupSerial;
// run with -cpu 1,2,4,8 to see the scaling curve).
func BenchmarkLookupParallel(b *testing.B) {
	store, n := hitPathStore(b)
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine walks the ID space from a different offset with a
		// stride that is coprime to the table size, so concurrent lookups
		// spread across cache shards.
		i := 0
		for pb.Next() {
			i += 31
			if _, err := store.Lookup(0, uint32(i%n)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLookupBatchParallel measures the batched serving path under
// concurrency (all hits).
func BenchmarkLookupBatchParallel(b *testing.B) {
	store, n := hitPathStore(b)
	const batch = 64
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		ids := make([]uint32, batch)
		off := 0
		for pb.Next() {
			off += 127
			for j := range ids {
				ids[j] = uint32((off + j*31) % n)
			}
			if _, err := store.LookupBatch(0, ids); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreRequest measures the end-to-end request path of the public
// Store API — one LookupBatch per table, as a recommendation request makes
// them (cache hit + miss mix with prefetching enabled).
func BenchmarkStoreRequest(b *testing.B) {
	profiles := bandana.DefaultProfiles(0.0005)[:2]
	workload := bandana.GenerateWorkload(profiles, 600)
	tables := make([]*bandana.Table, len(profiles))
	for i, p := range profiles {
		g := bandana.GenerateTable(p.Name, bandana.TableGenerateOptions{
			NumVectors:  p.NumVectors,
			Dim:         64,
			NumClusters: p.NumVectors / 64,
			Seed:        int64(i),
			Assignments: workload.Communities[i],
		})
		tables[i] = g.Table
	}
	store, err := bandana.Open(bandana.Config{Tables: tables, DRAMBudgetVectors: 500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	trains := make([]*bandana.Trace, len(workload.Traces))
	evals := make([]*bandana.Trace, len(workload.Traces))
	for i, tr := range workload.Traces {
		trains[i], evals[i] = tr.Split(0.5)
	}
	if _, err := store.Train(trains, bandana.TrainOptions{SHPIterations: 4, MiniCacheSampling: 0.5}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ti := range evals {
			q := evals[ti].Queries[i%len(evals[ti].Queries)]
			if _, err := store.LookupBatch(ti, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}
