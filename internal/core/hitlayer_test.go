package core

import (
	"math/rand"
	"testing"
	"time"

	"bandana/internal/table"
)

// BenchmarkHitLayer measures the hit path as a layer against its
// first-principles bound. The layer is LookupBatchRaw of a 64-id batch whose
// every id is cached, in ns per vector; the bound, timed in the same run in
// turns with it, is one copy of each of the same 64 vectors out of a
// table-sized buffer (bound-ns/vector), and cost/bound their ratio. In "whole" the cache covers
// the table and is pinned whole; in "partial" it holds half the table as an
// unpinned segmented LRU, so every hit promotes its entry.
func BenchmarkHitLayer(b *testing.B) {
	const vectors, dim, batch = 1 << 16, 64, 64
	for _, bc := range []struct {
		name   string
		budget int
	}{{"whole", vectors}, {"partial", vectors / 2}} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := Open(Config{Tables: []*table.Table{table.New("hit", vectors, dim)}, DRAMBudgetVectors: bc.budget, Seed: 1, CacheShards: 8})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for _, q := range everyID(bc.budget) {
				if _, err := s.LookupBatchRaw(0, q); err != nil {
					b.Fatal(err)
				}
			}
			c := s.tables[0].loadState().cache
			var resident []uint32
			for id := range uint32(vectors) {
				if c.Contains(id) {
					resident = append(resident, id)
				}
			}
			rand.New(rand.NewSource(1)).Shuffle(len(resident), func(i, j int) { resident[i], resident[j] = resident[j], resident[i] })
			var batches [][]uint32
			for lo := 0; lo+batch <= len(resident); lo += batch {
				batches = append(batches, resident[lo:lo+batch])
			}
			vecBytes := s.tables[0].vecBytes
			src := make([]byte, vectors*vecBytes)
			for i := range src {
				src[i] = byte(i) // fault every page in before the clock starts
			}
			dst := make([]byte, batch*vecBytes)

			// The layer and its bound take turns, a chunk of batches each,
			// so whatever else the machine runs weighs on both alike.
			const chunk = 256
			var layer, copies time.Duration
			s.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += chunk {
				n := min(chunk, b.N-done)
				t0 := time.Now()
				for i := done; i < done+n; i++ {
					if _, err := s.LookupBatchRaw(0, batches[i%len(batches)]); err != nil {
						b.Fatal(err)
					}
				}
				t1 := time.Now()
				b.StopTimer()
				for i := done; i < done+n; i++ {
					for k, id := range batches[i%len(batches)] {
						copy(dst[k*vecBytes:(k+1)*vecBytes], src[int(id)*vecBytes:])
					}
				}
				copies += time.Since(t1)
				layer += t1.Sub(t0)
				b.StartTimer()
			}
			b.StopTimer()
			if st := s.Stats()[0]; st.Misses != 0 {
				b.Fatalf("%d misses in an all-hit run", st.Misses)
			}
			cost := float64(layer.Nanoseconds()) / float64(b.N*batch)
			bound := float64(copies.Nanoseconds()) / float64(b.N*batch)
			b.ReportMetric(cost, "ns/vector")
			b.ReportMetric(bound, "bound-ns/vector")
			b.ReportMetric(cost/bound, "cost/bound")
		})
	}
}
