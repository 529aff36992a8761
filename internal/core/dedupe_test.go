package core

import (
	"testing"
)

// TestLookupBatchDedupesRepeatedIDs sends a power-law-style batch where hot
// ids repeat many times and checks (a) every position gets the right
// vector, (b) repeated positions of one id decode to equal vectors, and (c)
// every instance counts as a lookup and inherits its unique id's hit/miss
// classification.
func TestLookupBatchDedupesRepeatedIDs(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 512, 60)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 64, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// 3 unique ids spread over 12 positions, all cold (first touch).
	ids := []uint32{7, 7, 9, 7, 9, 300, 7, 300, 300, 9, 7, 7}
	vecs, err := s.LookupBatch(0, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs) != len(ids) {
		t.Fatalf("got %d vectors for %d ids", len(vecs), len(ids))
	}
	for i, id := range ids {
		want, err := s.Lookup(0, id)
		if err != nil {
			t.Fatal(err)
		}
		if !vecsEqual(vecs[i], want) {
			t.Fatalf("position %d (id %d): wrong vector", i, id)
		}
	}
	// Duplicates of one missed id are fanned out from a single block read.
	for i, id := range ids {
		if id == ids[0] && !vecsEqual(vecs[i], vecs[0]) {
			t.Fatalf("position %d: duplicate of id %d decoded to a different vector", i, id)
		}
	}

	st := s.Stats()[0]
	// 12 batch instances + 12 verification Lookups.
	if st.Lookups != int64(2*len(ids)) {
		t.Fatalf("lookups = %d, want %d", st.Lookups, 2*len(ids))
	}
	// All batch instances were cold: every instance counts as a miss, so
	// the verification pass is all hits.
	if st.Misses != int64(len(ids)) {
		t.Fatalf("misses = %d, want %d (each instance inherits its id's classification)", st.Misses, len(ids))
	}
	if st.Hits != int64(len(ids)) {
		t.Fatalf("hits = %d, want %d", st.Hits, len(ids))
	}

	// A second batch with duplicates over now-cached ids: all instances hit.
	s.ResetStats()
	if _, err := s.LookupBatch(0, []uint32{7, 7, 9, 7}); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()[0]
	if st.Hits != 4 || st.Misses != 0 {
		t.Fatalf("warm duplicate batch: hits=%d misses=%d, want 4/0", st.Hits, st.Misses)
	}
	if st.BlockReads != 0 {
		t.Fatalf("warm duplicate batch issued %d block reads", st.BlockReads)
	}

	// Above the linear-scan threshold the dedupe table takes over: same
	// semantics on a large duplicate-heavy batch.
	big := make([]uint32, 4*dedupeScanThreshold)
	for i := range big {
		big[i] = uint32(400 + i%5) // 5 unique ids, many repeats
	}
	vecs, err = s.LookupBatch(0, big)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range big {
		want, err := s.Lookup(0, id)
		if err != nil {
			t.Fatal(err)
		}
		if !vecsEqual(vecs[i], want) {
			t.Fatalf("large batch position %d (id %d): wrong vector", i, id)
		}
	}
}
