// Quickstart: the smallest end-to-end use of the Bandana public API.
//
// It generates two small embedding tables and a synthetic lookup workload,
// opens a store backed by a simulated NVM device, serves the workload once
// with the untrained (baseline) configuration, trains placement + caching,
// serves the same workload again and prints the improvement.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bandana"
)

func main() {
	// 1. Describe two embedding tables (scaled-down versions of the paper's
	//    Table 1 profiles) and generate a synthetic workload for them.
	profiles := bandana.DefaultProfiles(0.001)[:2] // table1 and table2, 10k vectors each
	workload := bandana.GenerateWorkload(profiles, 1200)

	// 2. Generate the embedding tables themselves. Aligning the Gaussian
	//    mixture with the workload's co-access communities mirrors how real
	//    embeddings of co-accessed items end up similar.
	tables := make([]*bandana.Table, len(profiles))
	for i, p := range profiles {
		g := bandana.GenerateTable(p.Name, bandana.TableGenerateOptions{
			NumVectors:  p.NumVectors,
			Dim:         64, // 64 fp16 elements = 128 B vectors
			NumClusters: p.NumVectors / 64,
			Seed:        int64(i),
			Assignments: workload.Communities[i],
		})
		tables[i] = g.Table
	}

	// 3. Open the store. Without training it behaves like the baseline
	//    policy: vectors in ID order on NVM, LRU caches, no prefetching.
	store, err := bandana.Open(bandana.Config{
		Tables:            tables,
		DRAMBudgetVectors: 1200, // ~6% of the vectors fit in DRAM
		Seed:              1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	// Split each trace into a training prefix and an evaluation suffix.
	trains := make([]*bandana.Trace, len(workload.Traces))
	evals := make([]*bandana.Trace, len(workload.Traces))
	for i, tr := range workload.Traces {
		trains[i], evals[i] = tr.Split(0.6)
	}

	serve := func() []bandana.TableStats {
		store.ResetStats()
		for ti, tr := range evals {
			for _, q := range tr.Queries {
				if _, err := store.LookupBatch(ti, q); err != nil {
					log.Fatal(err)
				}
			}
		}
		return store.Stats()
	}

	fmt.Println("== baseline (untrained) ==")
	baseline := serve()
	printStats(baseline)

	// 4. Train: SHP placement, DRAM allocation, miniature-cache threshold
	//    tuning. Then serve the same workload again.
	report, err := store.Train(trains, bandana.TrainOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== training decisions ==")
	for _, tr := range report.Tables {
		fmt.Printf("  %s\n", tr)
	}

	fmt.Println("\n== after training ==")
	trained := serve()
	printStats(trained)

	fmt.Println("\n== improvement ==")
	for i := range trained {
		if trained[i].BlockReads == 0 {
			continue
		}
		gain := float64(baseline[i].BlockReads)/float64(trained[i].BlockReads) - 1
		fmt.Printf("  %-8s NVM block reads %d -> %d (effective bandwidth %+.0f%%)\n",
			trained[i].Name, baseline[i].BlockReads, trained[i].BlockReads, gain*100)
	}
}

func printStats(stats []bandana.TableStats) {
	for _, st := range stats {
		fmt.Printf("  %-8s lookups=%-7d hitRate=%.2f blockReads=%-7d effBW=%.1f%% meanReadLatency=%.1fus\n",
			st.Name, st.Lookups, st.HitRate, st.BlockReads, st.EffectiveBandwidth*100, st.Latency.Mean)
	}
}
