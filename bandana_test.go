package bandana_test

import (
	"testing"

	"bandana"
	"bandana/internal/cache"
)

// TestPublicAPIEndToEnd exercises the exported surface the way a downstream
// application would: generate tables + traces, open a store, train it, look
// up embeddings and read stats.
func TestPublicAPIEndToEnd(t *testing.T) {
	profiles := bandana.DefaultProfiles(0.0005)[:2] // two small tables
	for i := range profiles {
		profiles[i].AvgLookups = 16
	}
	workload := bandana.GenerateWorkload(profiles, 400)

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

	store, err := bandana.Open(bandana.Config{Tables: tables, DRAMBudgetVectors: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	if store.NumTables() != 2 {
		t.Fatalf("NumTables = %d", store.NumTables())
	}

	trains := make([]*bandana.Trace, len(workload.Traces))
	evals := make([]*bandana.Trace, len(workload.Traces))
	for i, tr := range workload.Traces {
		trains[i], evals[i] = tr.Split(0.5)
	}
	report, err := store.Train(trains, bandana.TrainOptions{SHPIterations: 4, MiniCacheSampling: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Tables) != 2 {
		t.Fatalf("train report covers %d tables", len(report.Tables))
	}

	// Serve the evaluation traces.
	for ti, tr := range evals {
		for _, q := range tr.Queries {
			if _, err := store.LookupBatch(ti, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := store.Stats()
	for _, st := range stats {
		if st.Lookups == 0 {
			t.Fatalf("table %s served no lookups", st.Name)
		}
		if !st.Prefetching {
			t.Fatalf("table %s should have prefetching enabled after training", st.Name)
		}
	}
	if store.DeviceStats().BlocksRead == 0 {
		t.Fatal("no NVM reads recorded")
	}

	// Single lookup matches the source table.
	idx, err := store.TableIndex(tables[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.Lookup(idx, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tables[0].Vector(3)
	for d := range want {
		if got[d] != want[d] {
			t.Fatalf("lookup mismatch at element %d", d)
		}
	}
}

// TestUnifiedAdmissionPolicies verifies that the threshold policy the
// simulator evaluates is the one a trained store serves. With full-size
// miniature caches (MiniCacheSampling 1) the tuner's prediction is a replay
// of the training trace at the chosen thresholds through cache.ThresholdAdmit;
// a one-shard store serving that trace after Train must land on it exactly,
// and report the policy it serves by the simulator's name.
func TestUnifiedAdmissionPolicies(t *testing.T) {
	p := bandana.DefaultProfiles(0.0005)[0]
	p.AvgLookups = 16
	workload := bandana.GenerateWorkload([]bandana.Profile{p}, 300)
	g := bandana.GenerateTable(p.Name, bandana.TableGenerateOptions{
		NumVectors:  p.NumVectors,
		Dim:         32,
		NumClusters: p.NumVectors / 64,
		Seed:        1,
		Assignments: workload.Communities[0],
	})
	store, err := bandana.Open(bandana.Config{
		Tables:            []*bandana.Table{g.Table},
		DRAMBudgetVectors: 200,
		Seed:              1,
		CacheShards:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	rep, err := store.Train(workload.Traces, bandana.TrainOptions{MiniCacheSampling: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.Traces[0].Queries {
		if _, err := store.LookupBatch(0, q); err != nil {
			t.Fatal(err)
		}
	}
	st := store.Stats()[0]
	if st.Policy != (cache.ThresholdAdmit{}).Name() || st.Threshold != rep.Tables[0].Threshold ||
		st.DemandThreshold != rep.Tables[0].DemandThreshold {
		t.Fatalf("store serves %q at %d/%d, the tuner chose threshold-admit at %d/%d",
			st.Policy, st.Threshold, st.DemandThreshold, rep.Tables[0].Threshold, rep.Tables[0].DemandThreshold)
	}
	if !st.Prefetching || st.PrefetchAdds == 0 || st.ProbationFills == 0 {
		t.Fatalf("prefetching %v with %d admissions, %d probation fills: half the policy goes unchecked",
			st.Prefetching, st.PrefetchAdds, st.ProbationFills)
	}
	if st.Hits+st.Misses != st.Lookups || st.BlockReads == 0 {
		t.Fatalf("hits %d + misses %d != lookups %d, or no block reads (%d)", st.Hits, st.Misses, st.Lookups, st.BlockReads)
	}
	if perRead := float64(st.Lookups) / float64(st.BlockReads); st.HitRate != st.PredictedHitRate || perRead != st.PredictedLookupsPerBlockRead {
		t.Fatalf("store served hit rate %v and %v lookups per block read, the simulator predicted %v and %v",
			st.HitRate, perRead, st.PredictedHitRate, st.PredictedLookupsPerBlockRead)
	}
}

func TestPublicConstants(t *testing.T) {
	if bandana.BlockSize != 4096 {
		t.Fatalf("BlockSize = %d", bandana.BlockSize)
	}
	if bandana.Version == "" {
		t.Fatal("version must be set")
	}
	m := bandana.NewPerformanceModel(nil)
	if m.MaxBandwidthGBs() <= 0 {
		t.Fatal("performance model broken")
	}
	d := bandana.NewDevice(bandana.DeviceConfig{NumBlocks: 4})
	defer d.Close()
	if d.NumBlocks() != 4 {
		t.Fatal("device creation broken")
	}
}
