package core

import (
	"bytes"
	"testing"

	"bandana/internal/trace"
)

func TestSaveLoadStateRoundTrip(t *testing.T) {
	tables, traces := buildTestTables(t, 2, 2048, 600)
	trains := make([]*trace.Trace, len(traces))
	evals := make([]*trace.Trace, len(traces))
	for i, tr := range traces {
		trains[i], evals[i] = tr.Split(0.5)
	}

	// Train one store and snapshot its state.
	s1, err := Open(Config{Tables: tables, DRAMBudgetVectors: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	if _, err := s1.Train(trains, TrainOptions{SHPIterations: 6, MiniCacheSampling: 0.5}); err != nil {
		t.Fatal(err)
	}
	// Whatever the tuner found, the round trip must carry a demand threshold
	// that is set.
	forceDemandThreshold(s1.tables[0], 3)
	var buf bytes.Buffer
	if err := s1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	// Open a fresh store over the same tables and load the state.
	s2, err := Open(Config{Tables: tables, DRAMBudgetVectors: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// The restored store must behave like the trained one: prefetching on,
	// same thresholds and cache sizes, and identical block read counts when
	// serving the same evaluation workload.
	serve := func(s *Store) []TableStats {
		s.ResetStats()
		for ti, tr := range evals {
			for _, q := range tr.Queries {
				if _, err := s.LookupBatch(ti, q); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s.Stats()
	}
	st1 := serve(s1)
	st2 := serve(s2)
	for i := range st1 {
		if !st2[i].Prefetching {
			t.Fatalf("table %d: prefetching not restored", i)
		}
		if st1[i].Threshold != st2[i].Threshold {
			t.Fatalf("table %d: threshold %d != %d", i, st1[i].Threshold, st2[i].Threshold)
		}
		if st1[i].DemandThreshold != st2[i].DemandThreshold || st1[i].ProbationFills != st2[i].ProbationFills {
			t.Fatalf("table %d: demand threshold %d (%d probation fills) restored as %d (%d)", i,
				st1[i].DemandThreshold, st1[i].ProbationFills, st2[i].DemandThreshold, st2[i].ProbationFills)
		}
		if st1[i].CacheVectors != st2[i].CacheVectors {
			t.Fatalf("table %d: cache %d != %d", i, st1[i].CacheVectors, st2[i].CacheVectors)
		}
		if st1[i].PredictedHitRate <= 0 || st1[i].PredictedHitRate != st2[i].PredictedHitRate ||
			st1[i].PredictedLookupsPerBlockRead != st2[i].PredictedLookupsPerBlockRead {
			t.Fatalf("table %d: tuner prediction %.4f/%.4f restored as %.4f/%.4f", i,
				st1[i].PredictedHitRate, st1[i].PredictedLookupsPerBlockRead,
				st2[i].PredictedHitRate, st2[i].PredictedLookupsPerBlockRead)
		}
		if st1[i].BlockReads != st2[i].BlockReads {
			t.Fatalf("table %d: block reads %d != %d (placement not restored faithfully)",
				i, st1[i].BlockReads, st2[i].BlockReads)
		}
	}

	if st2[0].DemandThreshold != 3 || st2[0].ProbationFills == 0 {
		t.Fatalf("table 0: demand threshold 3 restored as %d, %d probation fills", st2[0].DemandThreshold, st2[0].ProbationFills)
	}

	// Data integrity: restored placement still returns the right vectors.
	for _, id := range []uint32{0, 7, 2047} {
		got, err := s2.Lookup(0, id)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := tables[0].Vector(id)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("vector %d corrupted after LoadState", id)
			}
		}
	}
}

func TestLoadStateValidation(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 1024, 20)
	s, err := Open(Config{Tables: tables, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.LoadState(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage input should be rejected")
	}
	if err := s.LoadState(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should be rejected")
	}

	// State from a store with a different table set must be rejected.
	otherTables, _ := buildTestTables(t, 2, 1024, 20)
	other, err := Open(Config{Tables: otherTables, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	var buf bytes.Buffer
	if err := other.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadState(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("state with a different table count should be rejected")
	}
}

func TestSaveStateUntrainedThenLoad(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 1024, 20)
	s, err := Open(Config{Tables: tables, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Untrained state: identity layout, no prefetching.
	if s.Stats()[0].Prefetching {
		t.Fatal("untrained state should not enable prefetching")
	}
	if _, err := s.Lookup(0, 5); err != nil {
		t.Fatal(err)
	}
}

func TestLookupBatchGroupsBlockReads(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 1024, 20)
	s, err := Open(Config{Tables: tables, DRAMBudgetVectors: 64, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Identity layout: vectors 0..31 share block 0, 32..63 share block 1.
	ids := []uint32{0, 1, 2, 3, 30, 31, 32, 40, 63}
	vecs, err := s.LookupBatch(0, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs) != len(ids) {
		t.Fatalf("result length %d", len(vecs))
	}
	st := s.Stats()[0]
	if st.BlockReads != 2 {
		t.Fatalf("batch spanning 2 blocks should cost 2 block reads, got %d", st.BlockReads)
	}
	if st.Misses != int64(len(ids)) {
		t.Fatalf("misses = %d, want %d", st.Misses, len(ids))
	}
	// Values must match the source table.
	for i, id := range ids {
		want, _ := tables[0].Vector(id)
		for d := range want {
			if vecs[i][d] != want[d] {
				t.Fatalf("vector %d mismatch in batch", id)
			}
		}
	}
}
