package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bandana/internal/cache"
	"bandana/internal/sim"
	"bandana/internal/trace"
)

// sameVerdicts reports how got's threshold policy differs from want's:
// presence, layout, bits (pinned or not), thresholds or position.
func sameVerdicts(got, want *tableState) error {
	switch g, w := got.admit, want.admit; {
	case g == nil || w == nil:
		return fmt.Errorf("admission bits %v, want %v: both sides should have a threshold policy", g, w)
	case !slices.Equal(got.layout.Order(), want.layout.Order()):
		return fmt.Errorf("layouts differ")
	case !slices.Equal(g.prefetch, w.prefetch) || !slices.Equal(g.probation, w.probation) || !slices.Equal(g.pinned, w.pinned):
		return fmt.Errorf("verdict bits differ")
	case got.threshold != want.threshold || got.demandThreshold != want.demandThreshold:
		return fmt.Errorf("thresholds %d/%d, want %d/%d", got.threshold, got.demandThreshold, want.threshold, want.demandThreshold)
	case g.position != w.position:
		return fmt.Errorf("prefetch position %v, want %v", g.position, w.position)
	}
	return nil
}

func TestSaveLoadStateRoundTrip(t *testing.T) {
	tables, traces := buildTestTables(t, 2, 2048, 600)
	trains := make([]*trace.Trace, len(traces))
	evals := make([]*trace.Trace, len(traces))
	for i, tr := range traces {
		trains[i], evals[i] = tr.Split(0.5)
	}

	// Train one store and snapshot its state. At this budget the tuner turns
	// prefetching on for both tables (at 400 table 1 trains prefetch-free),
	// so the round trip has prefetching to restore.
	s1, err := Open(Config{Tables: tables, DRAMBudgetVectors: 500, Seed: 1})
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
	s2, err := Open(Config{Tables: tables, DRAMBudgetVectors: 500, Seed: 2})
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

	// The verdicts travel whole: bits, both thresholds and the prefetch
	// position, here of a policy installed by hand with a position of its own.
	installThreshold(s1.tables[1], cache.ThresholdAdmit{
		Counts: countsOf(s1.tables[1]), Threshold: 1, DemandThreshold: 2, Position: 0.25,
	})
	buf.Reset()
	if err := s1.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i := range s1.tables {
		if err := sameVerdicts(s2.tables[i].loadState(), s1.tables[i].loadState()); err != nil {
			t.Fatalf("table %d: %v", i, err)
		}
	}
	if got := s2.tables[1].loadState().admit.position; got != 0.25 {
		t.Fatalf("table 1: prefetch position 0.25 restored as %v", got)
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

	// A verdict bit at an id the table does not have must be refused, not
	// dropped: 1000 ids leave 24 spare bits in the last word of each set.
	odd, oddTraces := buildTestTables(t, 1, 1000, 100)
	gated, err := Open(Config{Tables: odd, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer gated.Close()
	if _, err := gated.Train(oddTraces, TrainOptions{SHPIterations: 2}); err != nil {
		t.Fatal(err)
	}
	forceDemandThreshold(gated.tables[0], 3)
	buf.Reset()
	if err := gated.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()[:buf.Len()-4]
	words := len(stateMagic) + 3 + len(gated.tables[0].name) + binary.PutUvarint(make([]byte, binary.MaxVarintLen64), 1000)
	for _, id := range gated.tables[0].loadState().layout.Order() {
		words += binary.PutUvarint(make([]byte, binary.MaxVarintLen64), uint64(id))
	}
	words++ // the verdicts flag
	flag := payload[words-1]
	if flag != thresholdVerdicts && flag != pinVerdict {
		t.Fatalf("no verdicts flag at byte %d", words-1)
	}
	sets := 2 // prefetch, probation and, pinned, the pinned set
	if flag == pinVerdict {
		sets = 3
	}
	for set := range sets {
		last := words + 8*(set*16+1000/64)
		bad := bytes.Clone(payload)
		bad[last+7] |= 0x80 // bit 63 of the set's last word: id 1023
		if err := gated.LoadState(bytes.NewReader(sealed(bad))); err == nil {
			t.Fatalf("a verdict bit beyond the table's ids in set %d should be rejected", set)
		}
	}
	if err := gated.LoadState(bytes.NewReader(sealed(payload))); err != nil {
		t.Fatalf("the untouched state, resealed, should load: %v", err)
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

// bitsDigest is an FNV-1a hash of words (little-endian) and the bits they set.
func bitsDigest(words []uint64) (uint64, int) {
	h := fnv.New64a()
	set := 0
	var b [8]byte
	for _, w := range words {
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
		set += bits.OnesCount64(w)
	}
	return h.Sum64(), set
}

// TestLoadStateVersion4 loads testdata/state_v4.bnd, a version-4 state (access
// counts where version 5 has verdicts) that the version-4 encoder wrote for
// two tables of buildTestTables(2, 1024, 300) trained on the first half of
// their traces, table 1 with a forced demand threshold of 3. The counts
// compile once, at decode, and go: the store must end up with the
// layout-order admission bits, thresholds and flags the version-4 store
// compiled from them, and serve the evaluation halves with its exact counters
// (all recorded from that store). Saved again, as version 5, the state must
// reload to the same verdicts.
func TestLoadStateVersion4(t *testing.T) {
	v4, err := os.ReadFile("testdata/state_v4.bnd")
	if err != nil {
		t.Fatal(err)
	}
	tables, traces := buildTestTables(t, 2, 1024, 300)
	open := func() *Store {
		s, err := Open(Config{Tables: tables, DRAMBudgetVectors: 160, Seed: 2, CacheShards: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	s := open()
	if err := s.LoadState(bytes.NewReader(v4)); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		threshold, demand      uint32
		prefetch               bool
		prefetchDigest         uint64
		prefetchBits           int
		probationDigest        uint64
		probationBits          int
		lookups, hits          int64
		blockReads             int64
		probation              int64
		prefetchAdds, prefHits int64
	}{
		{5, 6, true, 0xffd804bf06fdcbef, 152, 0x3cf29c073d67220f, 872, 3029, 890, 1312, 1220, 10187, 767},
		{sim.DisablePrefetch, 3, false, 0x8421ae126c7ced25, 0, 0xefc563bda98ea48c, 799, 2992, 1080, 1338, 881, 0, 0},
	}
	for i, st := range s.tables {
		ts := st.loadState()
		w := want[i]
		if ts.threshold != w.threshold || ts.demandThreshold != w.demand || ts.prefetch != w.prefetch {
			t.Fatalf("table %d: thresholds %d/%d prefetch %v, want %d/%d %v",
				i, ts.threshold, ts.demandThreshold, ts.prefetch, w.threshold, w.demand, w.prefetch)
		}
		if ts.admit == nil {
			t.Fatalf("table %d: no admission bits, want the threshold policy's", i)
		}
		pd, pn := bitsDigest(ts.admit.prefetch)
		bd, bn := bitsDigest(ts.admit.probation)
		if pd != w.prefetchDigest || pn != w.prefetchBits || bd != w.probationDigest || bn != w.probationBits {
			t.Fatalf("table %d: admission bits %#x (%d set) / %#x (%d set), the version-4 store's %#x (%d) / %#x (%d)",
				i, pd, pn, bd, bn, w.prefetchDigest, w.prefetchBits, w.probationDigest, w.probationBits)
		}
		_, eval := traces[i].Split(0.5)
		for _, q := range eval.Queries {
			if _, err := s.LookupBatchRaw(i, q); err != nil {
				t.Fatal(err)
			}
		}
		got := s.Stats()[i]
		if got.Lookups != w.lookups || got.Hits != w.hits || got.BlockReads != w.blockReads ||
			got.ProbationFills != w.probation || got.PrefetchAdds != w.prefetchAdds || got.PrefetchHits != w.prefHits {
			t.Fatalf("table %d served lookups=%d hits=%d blockReads=%d probation=%d prefetchAdds=%d prefetchHits=%d, the version-4 store %+v",
				i, got.Lookups, got.Hits, got.BlockReads, got.ProbationFills, got.PrefetchAdds, got.PrefetchHits, w)
		}
	}

	var v5 bytes.Buffer
	if err := s.SaveState(&v5); err != nil {
		t.Fatal(err)
	}
	again := open()
	if err := again.LoadState(&v5); err != nil {
		t.Fatal(err)
	}
	for i := range s.tables {
		if err := sameVerdicts(again.tables[i].loadState(), s.tables[i].loadState()); err != nil {
			t.Fatalf("table %d after a version-5 round trip: %v", i, err)
		}
	}
}

// goldenStore trains the tables of both state goldens: buildTestTables(2,
// 320, 600) on the first half of their traces, at budget 160 and 4 cache
// shards. Those halves name every id, so the layouts do not depend on where a
// cold partition puts untrained ids. It returns the training traces too.
func goldenStore(t *testing.T) (*Store, []*trace.Trace) {
	tables, traces := buildTestTables(t, 2, 320, 600)
	s, err := Open(Config{Tables: tables, DRAMBudgetVectors: 160, Seed: 2, CacheShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	trains := make([]*trace.Trace, len(traces))
	for i, tr := range traces {
		trains[i], _ = tr.Split(0.5)
	}
	if _, err := s.Train(trains, TrainOptions{SHPIterations: 6, MiniCacheSampling: 0.5}); err != nil {
		t.Fatal(err)
	}
	return s, trains
}

// goldenV6Store is the store testdata/state_v6.bnd and state_v7.bnd were
// saved from:
// goldenStore as Train leaves it, table 0 pinned, and table 1 unpinned,
// serving its tuned prefetch threshold with a demand threshold of 3.
func goldenV6Store(t *testing.T) (*Store, []*trace.Trace) {
	s, trains := goldenStore(t)
	st := s.tables[1]
	installThreshold(st, cache.NewThresholdAdmit(countsOf(st), st.loadState().threshold, 3))
	return s, trains
}

// checkReferenceVerdicts holds every table's loaded verdicts, at every layout
// position, to the reference cache.ThresholdAdmit over the training counts:
// the thresholds the table serves, or a pin verdict over the cache's worth of
// the hottest ids.
func checkReferenceVerdicts(t *testing.T, s *Store, trains []*trace.Trace) {
	t.Helper()
	for i, st := range s.tables {
		ts := st.loadState()
		counts := trains[i].AccessCounts()
		var ref cache.AdmissionPolicy = cache.ThresholdAdmit{Counts: counts, Threshold: ts.threshold, DemandThreshold: ts.demandThreshold}
		if ts.admit.pinned != nil {
			ref = cache.NewPinnedAdmit(cache.ThresholdAdmit{Counts: counts, Threshold: ts.threshold, DemandThreshold: ts.demandThreshold}, cache.HottestIDs(counts, ts.cacheCap, nil))
		}
		set := 0
		for p := range ts.layout.NumVectors() {
			id := ts.layout.VectorAt(p)
			admit, _ := ref.AdmitPrefetch(id)
			cold := ref.DemandPosition(id) > 0
			probation := ts.admit.probation != nil && bit(ts.admit.probation, p)
			if bit(ts.admit.prefetch, p) != admit || probation != cold {
				t.Fatalf("table %d position %d (id %d): bits prefetch %v probation %v, the reference %v %v",
					i, p, id, bit(ts.admit.prefetch, p), probation, admit, cold)
			}
			if admit || cold {
				set++
			}
		}
		if set == 0 {
			t.Fatalf("table %d: no verdict set: the comparison is vacuous", i)
		}
	}
}

// TestStateVersion5Golden: testdata/state_v5.bnd, written by the version-5
// encoder from goldenStore's tables as a tuner of that format trained them
// (table 0 prefetching at threshold 22 with a demand gate of 35, table 1
// prefetch-free with a forced gate of 3), still loads: as unpinned tables
// with those thresholds, allocations and predictions, publishing at every
// layout position the verdicts of the reference cache.ThresholdAdmit over the
// training counts. The file was first written by an encoder that kept the
// verdicts in id order, and retaken, by the unchanged encoder, when admitted
// prefetches moved to cache.PrefetchPosition. The writer golden is version
// 6's (TestStateVersion6Golden).
func TestStateVersion5Golden(t *testing.T) {
	golden, err := os.ReadFile("testdata/state_v5.bnd")
	if err != nil {
		t.Fatal(err)
	}
	loaded, trains := goldenStore(t)
	for i, tr := range trains {
		if id := slices.Index(tr.AccessCounts(), 0); id >= 0 {
			t.Fatalf("table %d: vector %d is untrained: the layout would depend on where untrained ids go", i, id)
		}
	}
	if err := loaded.LoadState(bytes.NewReader(golden)); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		threshold, demand uint32
		prefetch          bool
		cacheCap          int
		hitRate           float64
	}{
		{22, 35, true, 90, 0.6655098330854404},
		{sim.DisablePrefetch, 3, false, 70, 0.5958813838550248},
	}
	for i, st := range loaded.tables {
		ts, w := st.loadState(), want[i]
		if ts.admit == nil || ts.admit.pinned != nil || ts.threshold != w.threshold || ts.demandThreshold != w.demand ||
			ts.prefetch != w.prefetch || ts.cacheCap != w.cacheCap || ts.cache.Cap() != w.cacheCap || ts.predicted.HitRate != w.hitRate {
			t.Fatalf("table %d loaded thresholds %d/%d, prefetch %v, cache %d (capacity %d), predicted hit rate %v; the file holds %+v",
				i, ts.threshold, ts.demandThreshold, ts.prefetch, ts.cacheCap, ts.cache.Cap(), ts.predicted.HitRate, w)
		}
	}
	checkReferenceVerdicts(t, loaded, trains)
}

// TestStateVersion6Golden: testdata/state_v6.bnd, SaveState of
// goldenV6Store as the version-6 encoder wrote it, still loads: LoadState of
// it publishes the store's verdicts, the file's predictions (taken before a
// pinned table's forecast started warm), the reference verdicts at every
// layout position, and a pinned table's cache shaped to its pinned ids
// shard by shard, and the pin verdict, which the file gives no warm order,
// warms in id order. The writer golden is version 7's
// (TestStateVersion7Golden).
func TestStateVersion6Golden(t *testing.T) {
	loaded := loadStateGolden(t, "testdata/state_v6.bnd")
	if ts := loaded.tables[0].loadState(); !slices.Equal(ts.admit.warm, ts.admit.pinnedIDs()) {
		t.Fatal("a version-6 pin verdict does not warm in id order")
	}
}

// TestStateVersion7Golden pins the version-7 state format to
// testdata/state_v7.bnd: SaveState of goldenV6Store, whose verdicts are held
// in layout order, must reproduce it byte for byte — a pinned table, with its
// warm order, and a gated one — and LoadState of it must publish the store's
// verdicts, the reference ones at every layout position, a pinned table's
// cache shaped to its pinned ids shard by shard, and the store's warm order:
// the pinned ids in ascending training count.
func TestStateVersion7Golden(t *testing.T) {
	golden, err := os.ReadFile("testdata/state_v7.bnd")
	if err != nil {
		t.Fatal(err)
	}
	s, trains := goldenV6Store(t)
	if ts0 := s.tables[0].loadState(); ts0.admit.pinned == nil {
		t.Fatal("table 0 is not pinned: the file would pin no pin verdict")
	}
	if ts1 := s.tables[1].loadState(); ts1.admit.pinned != nil || ts1.demandThreshold != 3 {
		t.Fatalf("table 1: pinned %v, demand threshold %d: the file would pin no gated table", ts1.admit.pinned != nil, ts1.demandThreshold)
	}
	counts := trains[0].AccessCounts()
	warm := s.tables[0].loadState().admit.warm
	if slices.Equal(warm, s.tables[0].loadState().admit.pinnedIDs()) ||
		!slices.IsSortedFunc(warm, func(a, b uint32) int { return cmp.Compare(counts[a], counts[b]) }) {
		t.Fatal("the trained warm order is id order, or not ascending training count: the file would pin no order")
	}
	var saved bytes.Buffer
	if err := s.SaveState(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), golden) {
		t.Fatalf("SaveState wrote %d bytes that differ from the %d of testdata/state_v7.bnd", saved.Len(), len(golden))
	}
	loaded := loadStateGolden(t, "testdata/state_v7.bnd")
	if !slices.Equal(loaded.tables[0].loadState().admit.warm, warm) {
		t.Fatal("the loaded warm order is not the saved one")
	}
}

// loadStateGolden loads the state file name into a goldenV6Store, holds the
// published state to the store's own (verdicts, allocations) and to the
// file's predictions, and to the reference verdicts, checks that the pinned
// table's cache is shaped to its pinned ids shard by shard, and returns the
// loaded store.
func loadStateGolden(t *testing.T, name string) *Store {
	t.Helper()
	golden, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := decodeSavedStates(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	s, trains := goldenV6Store(t)
	loaded, _ := goldenV6Store(t)
	if err := loaded.LoadState(bytes.NewReader(golden)); err != nil {
		t.Fatal(err)
	}
	for i, st := range loaded.tables {
		ts, want := st.loadState(), s.tables[i].loadState()
		if err := sameVerdicts(ts, want); err != nil {
			t.Fatalf("table %d: %v", i, err)
		}
		if ts.cacheCap != want.cacheCap || ts.predicted != saved[i].predicted {
			t.Fatalf("table %d: cache %d and prediction %+v, want %d and the file's %+v", i, ts.cacheCap, ts.predicted, want.cacheCap, saved[i].predicted)
		}
	}
	checkReferenceVerdicts(t, loaded, trains)
	if err := pinnedShardsHold(loaded.tables[0], nil); err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestPersistedPrefetchPositionIsData holds the prefetch position a state
// file carries to be data, not cache.PrefetchPosition: a file saved from a
// table that serves admitted prefetches at the MRU end (position 0) loads,
// persists and reopens at 0, and the reopened store serves exactly as
// sim.Replay does at 0. Only retraining installs the deployed position.
func TestPersistedPrefetchPositionIsData(t *testing.T) {
	tables, traces := buildTestTables(t, 1, 4096, 900)
	train, eval := traces[0].Split(0.5)
	cfg := Config{Tables: tables, DRAMBudgetVectors: 300, Seed: 7, CacheShards: 1}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Train([]*trace.Trace{train}, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	st := s.tables[0]
	ts := st.loadState()
	if !ts.prefetch || ts.admit.position != cache.PrefetchPosition {
		t.Fatalf("Train left prefetching %v at position %v, want on at %v", ts.prefetch, ts.admit.position, cache.PrefetchPosition)
	}
	atMRU := cache.NewThresholdAdmit(countsOf(st), ts.threshold, ts.demandThreshold)
	atMRU.Position = 0
	installThreshold(st, atMRU)
	var saved bytes.Buffer
	if err := s.SaveState(&saved); err != nil {
		t.Fatal(err)
	}

	cfg.Backend, cfg.DataDir = BackendFile, filepath.Join(t.TempDir(), "store")
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.LoadState(&saved); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Backend: BackendFile, DataDir: cfg.DataDir, Seed: 7, CacheShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rts := r.tables[0].loadState()
	if !rts.prefetch || rts.admit.position != 0 {
		t.Fatalf("reopened with prefetching %v at position %v, the file's 0", rts.prefetch, rts.admit.position)
	}
	for _, q := range eval.Queries {
		if _, err := r.LookupBatchRaw(0, q); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Stats()[0]
	replay := func(p cache.ThresholdAdmit) sim.Result {
		return sim.Replay(eval, sim.Config{Layout: rts.layout, CacheVectors: rts.cacheCap, Policy: p})
	}
	want, mid := replay(atMRU), replay(cache.NewThresholdAdmit(atMRU.Counts, atMRU.Threshold, atMRU.DemandThreshold))
	if want.BlockReads == mid.BlockReads && want.PrefetchHits == mid.PrefetchHits {
		t.Fatalf("positions 0 and %v read alike (%d blocks): the fixture cannot tell them apart", cache.PrefetchPosition, want.BlockReads)
	}
	if got.BlockReads != want.BlockReads || got.Hits != want.Hits || got.PrefetchAdds != want.PrefetchesAdmitted || got.PrefetchHits != want.PrefetchHits {
		t.Fatalf("reopened store read %d blocks, %d hits, %d/%d prefetch adds/hits; the replay at position 0 %d, %d, %d/%d (at %v: %d blocks)",
			got.BlockReads, got.Hits, got.PrefetchAdds, got.PrefetchHits,
			want.BlockReads, want.Hits, want.PrefetchesAdmitted, want.PrefetchHits, cache.PrefetchPosition, mid.BlockReads)
	}

	if _, err := r.Train([]*trace.Trace{train}, TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	if rts := r.tables[0].loadState(); rts.admit == nil || rts.admit.position != cache.PrefetchPosition {
		t.Fatalf("retraining installed admission %+v, want position %v", rts.admit, cache.PrefetchPosition)
	}
}

// TestPinVerdictValidation: a state file's pin verdict must be what a store
// can serve — in a version-6 or later file, and for exactly its table's
// cache allocation of ids. A version-5 file claiming one, or a pin verdict
// whose id count and allocation disagree, is refused before anything
// changes.
func TestPinVerdictValidation(t *testing.T) {
	golden, err := os.ReadFile("testdata/state_v7.bnd")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := goldenV6Store(t)
	payload := bytes.Clone(golden[:len(golden)-4])
	if payload[len(stateMagic)] != stateVersion {
		t.Fatalf("version byte %d, want %d", payload[len(stateMagic)], stateVersion)
	}
	payload[len(stateMagic)] = stateVersionV5
	if err := s.LoadState(bytes.NewReader(sealed(payload))); err == nil || !strings.Contains(err.Error(), "bad verdicts flag 2") {
		t.Fatalf("a version-5 file with a pin verdict loaded: %v", err)
	}

	st := s.tables[0]
	st.mutateState(func(ts *tableState) { ts.cacheCap++ })
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadState(&buf); err == nil || !strings.Contains(err.Error(), "pin verdict") {
		t.Fatalf("a pin verdict one id short of its allocation loaded: %v", err)
	}
}
