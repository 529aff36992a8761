package core

import (
	"math/rand"
	"testing"
	"time"

	"bandana/internal/synth"
	"bandana/internal/table"
	"bandana/internal/trace"
)

// coldShapeStore opens, trains and warms a store of the benchmark's cold
// shape: four synthetic tables (scale 0.002, seed 1), a 6,000-vector budget
// over 8 shards, trained on the first 4,000 requests and served the other
// 8,000 in order, so that every table's cache holds its pinned ids.
func coldShapeStore(tb testing.TB) *Store { return benchShapeStore(tb, 6000) }

// hotShapeStore is the benchmark's hot shape: coldShapeStore with a budget
// of every vector (120,000), so every table's cache covers its table and is
// pinned whole.
func hotShapeStore(tb testing.TB) *Store { return benchShapeStore(tb, 120_000) }

// benchShapeStore is the benchmark's four tables under a budget of the
// given vectors, trained and served as coldShapeStore says.
func benchShapeStore(tb testing.TB, budget int) *Store {
	tb.Helper()
	s, traces := trainedShapeStore(tb, budget)
	for r := shapeTrainRequests; r < shapeRequests; r++ {
		for ti, tr := range traces {
			if r < len(tr.Queries) && len(tr.Queries[r]) > 0 {
				if _, err := s.LookupBatchRaw(ti, tr.Queries[r]); err != nil {
					s.Close()
					tb.Fatal(err)
				}
			}
		}
	}
	return s
}

// The benchmark shape's trace: the first shapeTrainRequests requests train,
// the rest up to shapeRequests are served.
const shapeTrainRequests, shapeRequests = 4000, 12000

// trainedShapeStore is benchShapeStore before it serves anything: the store
// as Train leaves it, and its tables' whole traces.
func trainedShapeStore(tb testing.TB, budget int) (*Store, []*trace.Trace) {
	tb.Helper()
	tables, w := synth.BuildWorkload(synth.Options{Scale: 0.002, NumTables: 4, Seed: 1, Requests: shapeRequests})
	s, err := Open(Config{Tables: tables, DRAMBudgetVectors: budget, Seed: 1, CacheShards: 8})
	if err != nil {
		tb.Fatal(err)
	}
	var train []*trace.Trace
	for _, tr := range w.Traces {
		train = append(train, tr.Prefix(shapeTrainRequests))
	}
	if _, err := s.Train(train, TrainOptions{}); err != nil {
		s.Close()
		tb.Fatal(err)
	}
	return s, w.Traces
}

// BenchmarkHitLayer measures the hit path as a layer against its
// first-principles bound. The layer is what the wire server does for an
// all-hit 64-id batch: LookupBatchRawLeased, a copy of every view into a
// reused frame, and the release, in ns per vector; the bound, timed in the
// same run in turns with it, is one copy of each of the same 64 vectors out
// of a table-sized buffer (bound-ns/vector), and cost/bound their ratio. In
// "whole" the cache covers a 64k-vector table and is pinned whole; in
// "partial" it holds half that table as an unpinned segmented LRU, so every
// hit promotes its entry; in "pinned" the store has the benchmark's cold
// shape (see coldShapeStore) and the batches are drawn from the resident
// ids of its table 1, all of them requested pinned ids (3,252 of 20,000).
func BenchmarkHitLayer(b *testing.B) {
	const vectors, dim, batch = 1 << 16, 64, 64
	type layerCase struct {
		s        *Store
		table    int
		resident []uint32
	}
	hitStore := func(budget int) layerCase {
		s, err := Open(Config{Tables: []*table.Table{table.New("hit", vectors, dim)}, DRAMBudgetVectors: budget, Seed: 1, CacheShards: 8})
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range everyID(budget) {
			if _, err := s.LookupBatchRaw(0, q); err != nil {
				b.Fatal(err)
			}
		}
		return layerCase{s: s}
	}
	cases := []struct {
		name string
		open func() layerCase
	}{
		{"whole", func() layerCase { return hitStore(vectors) }},
		{"partial", func() layerCase { return hitStore(vectors / 2) }},
		{"pinned", func() layerCase { return layerCase{s: coldShapeStore(b), table: 1} }},
	}
	for _, bc := range cases {
		var lc layerCase // opened once, at the first of the sub-benchmark's runs
		b.Run(bc.name, func(b *testing.B) {
			if lc.s == nil {
				lc = bc.open()
				c := lc.s.tables[lc.table].loadState().cache
				for id := range uint32(lc.s.tables[lc.table].numVectors) {
					if c.Contains(id) {
						lc.resident = append(lc.resident, id)
					}
				}
				rand.New(rand.NewSource(1)).Shuffle(len(lc.resident), func(i, j int) {
					lc.resident[i], lc.resident[j] = lc.resident[j], lc.resident[i]
				})
			}
			s, ti, resident := lc.s, lc.table, lc.resident
			var batches [][]uint32
			for lo := 0; lo+batch <= len(resident); lo += batch {
				batches = append(batches, resident[lo:lo+batch])
			}
			vecBytes := s.tables[ti].vecBytes
			src := make([]byte, s.tables[ti].numVectors*vecBytes)
			for i := range src {
				src[i] = byte(i) // fault every page in before the clock starts
			}
			dst := make([]byte, batch*vecBytes)
			frame := make([]byte, 0, batch*vecBytes)

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
					vecs, release, err := s.LookupBatchRawLeased(ti, batches[i%len(batches)])
					if err != nil {
						b.Fatal(err)
					}
					frame = frame[:0]
					for _, v := range vecs {
						frame = append(frame, v...)
					}
					release()
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
			if st := s.Stats()[ti]; st.Misses != 0 {
				b.Fatalf("%d misses in an all-hit run", st.Misses)
			}
			cost := float64(layer.Nanoseconds()) / float64(b.N*batch)
			bound := float64(copies.Nanoseconds()) / float64(b.N*batch)
			b.ReportMetric(cost, "ns/vector")
			b.ReportMetric(bound, "bound-ns/vector")
			b.ReportMetric(cost/bound, "cost/bound")
		})
		if lc.s != nil {
			lc.s.Close()
		}
	}
}
