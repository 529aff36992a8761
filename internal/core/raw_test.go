package core

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"bandana/internal/fp16"
)

// rawEquiv asserts that the raw fp16 view of each id decodes bit-identically
// to the float path's view of the same id.
func rawEquiv(t *testing.T, s *Store, tableIdx int, ids []uint32) {
	t.Helper()
	raws, err := s.LookupBatchRaw(tableIdx, ids)
	if err != nil {
		t.Fatal(err)
	}
	floats, err := s.LookupBatch(tableIdx, ids)
	if err != nil {
		t.Fatal(err)
	}
	dim, err := s.TableDim(tableIdx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if len(raws[i]) != dim*fp16.ByteSize {
			t.Fatalf("id %d: raw view has %d bytes, want %d", ids[i], len(raws[i]), dim*fp16.ByteSize)
		}
		dec := make([]float32, dim)
		fp16.DecodeSlice(dec, raws[i])
		for j := range dec {
			if math.Float32bits(dec[j]) != math.Float32bits(floats[i][j]) {
				t.Fatalf("id %d elem %d: raw path decodes to bits %#08x, float path %#08x",
					ids[i], j, math.Float32bits(dec[j]), math.Float32bits(floats[i][j]))
			}
		}
	}
}

func TestLookupBatchRawMatchesFloatPath(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 2048, 10)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 256, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ids := []uint32{0, 1, 7, 63, 64, 500, 2047, 7} // repeats included
	// Cold: raw lookups miss, serving fp16 straight off the block image.
	rawEquiv(t, s, 0, ids)
	// Warm: the same ids now hit cache entries that already carry raw views.
	rawEquiv(t, s, 0, ids)

	// Entries cached by the float path first: the raw view is built lazily
	// on the first raw hit.
	warm := []uint32{100, 101, 102}
	if _, err := s.LookupBatch(0, warm); err != nil {
		t.Fatal(err)
	}
	rawEquiv(t, s, 0, warm)
}

func TestLookupBatchRawCountsAndCacheSharing(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 2048, 10)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 256, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ids := []uint32{10, 11, 12, 13}
	if _, err := s.LookupBatchRaw(0, ids); err != nil {
		t.Fatal(err)
	}
	st0 := s.Stats()[0]
	if st0.Lookups != int64(len(ids)) || st0.Misses != int64(len(ids)) {
		t.Fatalf("cold raw batch: lookups=%d misses=%d, want %d/%d", st0.Lookups, st0.Misses, len(ids), len(ids))
	}
	// A raw lookup warms the cache for float lookups: all hits now.
	if _, err := s.LookupBatch(0, ids); err != nil {
		t.Fatal(err)
	}
	st1 := s.Stats()[0]
	if got := st1.Hits - st0.Hits; got != int64(len(ids)) {
		t.Fatalf("float lookups after raw warmup: %d hits, want %d", got, len(ids))
	}

	if _, err := s.LookupBatchRaw(0, []uint32{9999}); err == nil {
		t.Fatal("out-of-range id should error")
	}
	if _, err := s.TableIndex("no-such-table"); err == nil {
		t.Fatal("unknown table should error")
	}
}

func TestUpdateVectorRaw(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 512, 10)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 64, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const id = 42
	dim, _ := s.TableDim(0)
	next := make([]float32, dim)
	for i := range next {
		next[i] = float32(i) * 0.25
	}
	raw := fp16.EncodeSlice(nil, next)

	// Cache the old value on both paths, then overwrite through the raw
	// write path: both read paths must serve the new bytes.
	if _, err := s.LookupBatch(0, []uint32{id}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LookupBatchRaw(0, []uint32{id}); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateVectorRaw(0, id, raw); err != nil {
		t.Fatal(err)
	}
	got, err := s.LookupBatchRaw(0, []uint32{id})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], raw) {
		t.Fatalf("raw read after raw update: got % x, want % x", got[0], raw)
	}
	vecs, err := s.LookupBatch(0, []uint32{id})
	if err != nil {
		t.Fatal(err)
	}
	for i := range next {
		if vecs[0][i] != next[i] {
			t.Fatalf("float read after raw update: elem %d = %g, want %g", i, vecs[0][i], next[i])
		}
	}

	if err := s.UpdateVectorRaw(0, id, raw[:4]); err == nil {
		t.Fatal("short raw payload should error")
	}
	if err := s.UpdateVectorRaw(0, 99999, raw); err == nil {
		t.Fatal("out-of-range id should error")
	}
}

// TestRawFloatConcurrent hammers the raw and float read paths concurrently
// over a shared working set (run with -race): the lazily built raw views
// are published under the shard lock and must never tear.
func TestRawFloatConcurrent(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 1024, 10)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 128, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	dim, _ := s.TableDim(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			ids := make([]uint32, 16)
			for round := 0; round < 50; round++ {
				for i := range ids {
					ids[i] = (seed*31 + uint32(round*16+i)) % 1024
				}
				if seed%2 == 0 {
					raws, err := s.LookupBatchRaw(0, ids)
					if err != nil {
						t.Error(err)
						return
					}
					for _, r := range raws {
						if len(r) != dim*fp16.ByteSize {
							t.Errorf("raw view has %d bytes, want %d", len(r), dim*fp16.ByteSize)
							return
						}
					}
				} else {
					if _, err := s.LookupBatch(0, ids); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(uint32(w))
	}
	wg.Wait()
}
