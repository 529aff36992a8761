package core

import (
	"sync"
	"testing"

	"bandana/internal/table"
	"bandana/internal/trace"
)

// stressStore builds a trained two-table store suitable for hammering from
// many goroutines.
func stressStore(t *testing.T) (*Store, []*trace.Trace) {
	t.Helper()
	profiles := []trace.Profile{
		{Name: "stress1", NumVectors: 4096, AvgLookups: 16, CompulsoryMissFrac: 0.05,
			Locality: 0.8, CommunitySize: 64, ReuseSkew: 2, Seed: 11},
		{Name: "stress2", NumVectors: 2048, AvgLookups: 16, CompulsoryMissFrac: 0.05,
			Locality: 0.8, CommunitySize: 64, ReuseSkew: 2, Seed: 22},
	}
	workload := trace.GenerateWorkload(profiles, 300)
	tables := make([]*table.Table, len(profiles))
	for i, p := range profiles {
		g := table.Generate(p.Name, table.GenerateOptions{
			NumVectors:  p.NumVectors,
			Dim:         32,
			NumClusters: p.NumVectors / 64,
			Seed:        int64(i),
			Assignments: workload.Communities[i],
		})
		tables[i] = g.Table
	}
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 800, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := s.Train(workload.Traces, TrainOptions{SHPIterations: 2, MiniCacheSampling: 0.5}); err != nil {
		t.Fatal(err)
	}
	return s, workload.Traces
}

// TestLookupStress hammers Lookup, LookupBatch and UpdateVector on the same
// tables from many goroutines and checks that the atomic serving counters
// stay consistent (hits + misses == lookups). Run with -race to exercise the
// sharded cache's locking.
func TestLookupStress(t *testing.T) {
	s, traces := stressStore(t)
	s.ResetStats()

	const workers = 8
	const iters = 400
	var wg sync.WaitGroup
	var totalLookups [2]int64
	var mu sync.Mutex

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local [2]int64
			for i := 0; i < iters; i++ {
				ti := (w + i) % 2
				tr := traces[ti]
				q := tr.Queries[(w*iters+i)%len(tr.Queries)]
				switch i % 3 {
				case 0:
					for _, id := range q {
						if _, err := s.Lookup(ti, id); err != nil {
							t.Errorf("Lookup: %v", err)
							return
						}
					}
					local[ti] += int64(len(q))
				case 1:
					vecs, err := s.LookupBatch(ti, q)
					if err != nil {
						t.Errorf("LookupBatch: %v", err)
						return
					}
					if len(vecs) != len(q) {
						t.Errorf("LookupBatch returned %d vectors for %d ids", len(vecs), len(q))
						return
					}
					local[ti] += int64(len(q))
				case 2:
					id := q[0]
					vec := make([]float32, 32)
					vec[0] = float32(w*iters + i)
					if err := s.UpdateVector(ti, id, vec); err != nil {
						t.Errorf("UpdateVector: %v", err)
						return
					}
					got, err := s.Lookup(ti, id)
					if err != nil {
						t.Errorf("Lookup after update: %v", err)
						return
					}
					if len(got) != 32 {
						t.Errorf("vector has %d elements, want 32", len(got))
						return
					}
					local[ti]++
				}
			}
			mu.Lock()
			totalLookups[0] += local[0]
			totalLookups[1] += local[1]
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for ti, st := range s.Stats() {
		if st.Lookups != totalLookups[ti] {
			t.Errorf("table %d: Lookups = %d, want %d", ti, st.Lookups, totalLookups[ti])
		}
		if st.Hits+st.Misses != st.Lookups {
			t.Errorf("table %d: hits %d + misses %d != lookups %d", ti, st.Hits, st.Misses, st.Lookups)
		}
		if st.CacheUsed > st.CacheVectors {
			t.Errorf("table %d: cache holds %d vectors, capacity %d (%d shards)",
				ti, st.CacheUsed, st.CacheVectors, st.CacheShards)
		}
	}
}

// TestConcurrentUpdateVisibility checks that after a racing mix of updates
// and lookups settles, a final lookup observes the last written value (no
// stale block decode is left in the cache).
func TestConcurrentUpdateVisibility(t *testing.T) {
	s, _ := stressStore(t)
	const id = uint32(42)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if w%2 == 0 {
					vec := make([]float32, 32)
					vec[0] = float32(w*1000 + i)
					if err := s.UpdateVector(0, id, vec); err != nil {
						t.Errorf("UpdateVector: %v", err)
						return
					}
				} else {
					if _, err := s.Lookup(0, id); err != nil {
						t.Errorf("Lookup: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	final := make([]float32, 32)
	final[0] = 2048
	if err := s.UpdateVector(0, id, final); err != nil {
		t.Fatal(err)
	}
	got, err := s.Lookup(0, id)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2048 {
		t.Fatalf("after final update, vector[0] = %v, want 2048", got[0])
	}
	// A second lookup must serve the same value from the cache.
	got, err = s.Lookup(0, id)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2048 {
		t.Fatalf("cached vector[0] = %v, want 2048", got[0])
	}
}

// TestTrainWhileServing retrains a table while lookups hammer it and checks
// that every returned vector matches the source table: the rewrite lock
// must prevent a miss from decoding a block with the wrong layout
// (publish-then-rewrite would otherwise hand out another vector's bytes).
func TestTrainWhileServing(t *testing.T) {
	p := trace.Profile{Name: "live", NumVectors: 2048, AvgLookups: 16, CompulsoryMissFrac: 0.05,
		Locality: 0.8, CommunitySize: 64, ReuseSkew: 2, Seed: 5}
	workload := trace.GenerateWorkload([]trace.Profile{p}, 200)
	g := table.Generate(p.Name, table.GenerateOptions{
		NumVectors: p.NumVectors, Dim: 32, NumClusters: 32, Seed: 1,
		Assignments: workload.Communities[0],
	})
	s, err := Open(Config{Tables: []*table.Table{g.Table}, DRAMBudgetVectors: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := uint32((i * 37) % p.NumVectors)
				i++
				got, err := s.Lookup(0, id)
				if err != nil {
					t.Errorf("Lookup(%d): %v", id, err)
					return
				}
				want, err := g.Table.Vector(id)
				if err != nil {
					t.Errorf("Vector(%d): %v", id, err)
					return
				}
				for d := range want {
					if got[d] != want[d] {
						t.Errorf("vector %d element %d = %v, want %v (stale-layout decode)", id, d, got[d], want[d])
						return
					}
				}
			}
		}(w)
	}

	// Retrain (layout rewrite + threshold tuning) several times under load.
	for round := 0; round < 3; round++ {
		if _, err := s.Train([]*trace.Trace{workload.Traces[0]},
			TrainOptions{SHPIterations: 2, MiniCacheSampling: 0.5}); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestOpenZeroTables ensures Open rejects an empty config with an error
// instead of dividing the DRAM budget by zero.
func TestOpenZeroTables(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open with no tables succeeded, want error")
	}
	if _, err := Open(Config{Tables: []*table.Table{}, DRAMBudgetVectors: 100}); err == nil {
		t.Fatal("Open with empty table slice succeeded, want error")
	}
}
