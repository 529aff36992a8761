package bandana_test

import (
	"io"
	"testing"

	"bandana"
	"bandana/internal/experiments"
)

// The benchmarks below regenerate the paper's tables and figures (one bench
// per artefact) at a reduced scale, plus ablation benches for SHP iterations,
// the admission policy and the stack-distance estimator. Run them with:
//
//	go test -bench=. -benchmem
//
// Use cmd/bandana (`bandana run --all`) for the full-scale run.

// benchRunner is shared across benchmarks so that the expensive artefacts
// (workload generation, SHP training) are built once and reused; each bench
// then measures its experiment's own work.
var benchRunner = experiments.NewRunner(experiments.QuickOptions())

func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := benchRunner.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		tbl.Format(io.Discard)
	}
}

func BenchmarkFig2NVMQueueDepth(b *testing.B)      { benchmarkExperiment(b, "fig2") }
func BenchmarkTable1Characterization(b *testing.B) { benchmarkExperiment(b, "table1") }
func BenchmarkFig3HitRateCurves(b *testing.B)      { benchmarkExperiment(b, "fig3") }
func BenchmarkFig4AccessHistograms(b *testing.B)   { benchmarkExperiment(b, "fig4") }
func BenchmarkFig5BaselineLatency(b *testing.B)    { benchmarkExperiment(b, "fig5") }
func BenchmarkFig6KMeansClusters(b *testing.B)     { benchmarkExperiment(b, "fig6") }
func BenchmarkFig7PartitionerRuntime(b *testing.B) { benchmarkExperiment(b, "fig7") }
func BenchmarkFig8RecursiveKMeans(b *testing.B)    { benchmarkExperiment(b, "fig8") }
func BenchmarkFig9SHPUnlimited(b *testing.B)       { benchmarkExperiment(b, "fig9") }
func BenchmarkFig10NaivePrefetch(b *testing.B)     { benchmarkExperiment(b, "fig10") }
func BenchmarkFig11AdmissionPolicies(b *testing.B) { benchmarkExperiment(b, "fig11") }
func BenchmarkFig12AccessThreshold(b *testing.B)   { benchmarkExperiment(b, "fig12") }
func BenchmarkTable2MiniatureCaches(b *testing.B)  { benchmarkExperiment(b, "table2") }
func BenchmarkFig13CacheSize(b *testing.B)         { benchmarkExperiment(b, "fig13") }
func BenchmarkFig14SamplingRate(b *testing.B)      { benchmarkExperiment(b, "fig14") }
func BenchmarkFig15TrainingSize(b *testing.B)      { benchmarkExperiment(b, "fig15") }
func BenchmarkFig16VectorSize(b *testing.B)        { benchmarkExperiment(b, "fig16") }
func BenchmarkAblationSHPIterations(b *testing.B)  { benchmarkExperiment(b, "ablation-shp") }
func BenchmarkAblationAdmission(b *testing.B)      { benchmarkExperiment(b, "ablation-admission") }
func BenchmarkAblationStackDistance(b *testing.B)  { benchmarkExperiment(b, "ablation-mrc") }

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

// BenchmarkStoreServeRequest measures the end-to-end request path of the
// public Store API (cache hit + miss mix with prefetching enabled).
func BenchmarkStoreServeRequest(b *testing.B) {
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
		req := make(bandana.Request, len(evals))
		for ti := range evals {
			q := evals[ti].Queries[i%len(evals[ti].Queries)]
			req[ti] = q
		}
		if _, err := store.ServeRequest(req); err != nil {
			b.Fatal(err)
		}
	}
}
