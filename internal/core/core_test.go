package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"bandana/internal/cache"
	"bandana/internal/metrics"
	"bandana/internal/nvm"
	"bandana/internal/sim"
	"bandana/internal/table"
	"bandana/internal/trace"
)

// buildTestTables creates small aligned tables + traces for store tests.
func buildTestTables(t testing.TB, numTables, vectorsPerTable, queries int) ([]*table.Table, []*trace.Trace) {
	t.Helper()
	tables := make([]*table.Table, numTables)
	traces := make([]*trace.Trace, numTables)
	for i := 0; i < numTables; i++ {
		p := trace.Profile{
			Name:               "t" + string(rune('A'+i)),
			NumVectors:         vectorsPerTable,
			AvgLookups:         20,
			CompulsoryMissFrac: 0.08,
			Locality:           0.9,
			CommunitySize:      64,
			ReuseSkew:          3,
			Seed:               int64(100 + i),
		}
		tr := trace.GenerateTable(p, queries)
		traces[i] = tr
		communities := trace.CommunityAssignment(p)
		numComm := 0
		for _, c := range communities {
			if int(c) >= numComm {
				numComm = int(c) + 1
			}
		}
		g := table.Generate(p.Name, table.GenerateOptions{
			NumVectors:  vectorsPerTable,
			Dim:         64,
			NumClusters: numComm,
			Seed:        int64(i),
			Assignments: communities,
		})
		tables[i] = g.Table
	}
	return tables, traces
}

// trainedCounts holds, per live table, the access counts its threshold policy
// was last compiled from: the counts of the training trace the test handed
// Train (or of the window an adaptation epoch recorded). The store drops
// them; tests rebuild reference policies from them. Keys are weak, so a
// table the test is done with takes its counts with it.
var trainedCounts sync.Map // weak.Pointer[storeTable] -> []uint32

func init() {
	thresholdCountsHook = func(st *storeTable, counts []uint32) {
		key := weak.Make(st)
		if _, seen := trainedCounts.Swap(key, counts); !seen {
			runtime.AddCleanup(st, func(key weak.Pointer[storeTable]) { trainedCounts.Delete(key) }, key)
		}
	}
}

// countsOf returns the access counts st's threshold policy was last compiled
// from (nil if it never had one).
func countsOf(st *storeTable) []uint32 {
	counts, _ := trainedCounts.Load(weak.Make(st))
	c, _ := counts.([]uint32)
	return c
}

// forceDemandThreshold sets one table's demand threshold the way a tuner
// verdict would — recompiling its policy, a pinned one over the same pinned
// ids, from the training counts it was compiled from — for tests that need a
// gate whatever the tuner found.
func forceDemandThreshold(st *storeTable, demand uint32) {
	counts := countsOf(st)
	st.mutateState(func(ts *tableState) {
		ts.demandThreshold = demand
		st.setThresholdPolicy(ts, counts, ts.admit.pinnedIDs())
	})
}

// installThreshold makes st serve p — a cache.ThresholdAdmit, or a
// cache.PinnedAdmit over one — the way a tuner verdict would: prefetching on
// unless p pins nothing and its threshold is sim.DisablePrefetch, both
// thresholds p's, the bits compiled from its counts, the cache pinned to p's
// set in place (or split evenly again when p pins nothing) — but with p's
// prefetch position and no prediction, for tests that hold the store to a
// policy of their choosing.
func installThreshold(st *storeTable, p cache.AdmissionPolicy) {
	ta, _ := p.(cache.ThresholdAdmit)
	var pinned []uint32
	if pa, ok := p.(cache.PinnedAdmit); ok {
		ta = pa.Pair
		pinned = (&admitBits{pinned: pa.Set}).pinnedIDs()
	}
	st.mutateState(func(ts *tableState) {
		was := ts.admit.pinnedSet() != nil
		ts.threshold, ts.demandThreshold = ta.Threshold, ta.DemandThreshold
		ts.prefetch = pinned != nil || ta.Threshold != sim.DisablePrefetch
		ts.predicted = sim.Prediction{}
		st.setThresholdPolicy(ts, ta.Counts, pinned)
		if ts.admit != nil {
			ts.admit.position = ta.Position
		}
		if was || pinned != nil {
			st.resizeCache(ts, ts.cacheCap, ts.admit.pinnedSet())
		}
	})
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("empty config should error")
	}
	if _, err := Open(Config{Tables: []*table.Table{nil}}); err == nil {
		t.Fatal("nil table should error")
	}
	empty := table.New("empty", 0, 8)
	if _, err := Open(Config{Tables: []*table.Table{empty}}); err == nil {
		t.Fatal("empty table should error")
	}
	big := table.New("big", 4, 4096)
	if _, err := Open(Config{Tables: []*table.Table{big}}); err == nil {
		t.Fatal("vector larger than a block should error")
	}
	a := table.New("dup", 4, 8)
	b := table.New("dup", 4, 8)
	if _, err := Open(Config{Tables: []*table.Table{a, b}}); err == nil {
		t.Fatal("duplicate names should error")
	}
}

func TestOpenLookupRoundTrip(t *testing.T) {
	tables, _ := buildTestTables(t, 2, 2048, 10)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 256, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if s.NumTables() != 2 {
		t.Fatalf("NumTables = %d", s.NumTables())
	}
	if len(s.TableNames()) != 2 {
		t.Fatalf("TableNames = %v", s.TableNames())
	}
	for _, id := range []uint32{0, 1, 31, 32, 2047} {
		got, err := s.Lookup(0, id)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := tables[0].Vector(id)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("vector %d element %d: got %g want %g", id, d, got[d], want[d])
			}
		}
	}
	// Second lookup of the same vector must be a cache hit (no extra block
	// read).
	before := s.Stats()[0].BlockReads
	if _, err := s.Lookup(0, 0); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()[0].BlockReads
	if after != before {
		t.Fatalf("repeated lookup should hit the cache: block reads %d -> %d", before, after)
	}
}

func TestLookupErrors(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 1024, 5)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Lookup(5, 0); err == nil {
		t.Fatal("bad table index should error")
	}
	if _, err := s.Lookup(0, 99999); err == nil {
		t.Fatal("bad vector id should error")
	}
	if _, err := s.TableIndex("nosuch"); err == nil {
		t.Fatal("bad table name should error")
	}
	idx, err := s.TableIndex(tables[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup(idx, 1); err != nil {
		t.Fatal(err)
	}
}

func TestLookupBatch(t *testing.T) {
	tables, _ := buildTestTables(t, 2, 1024, 5)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, Seed: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	vecs, err := s.LookupBatch(1, []uint32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs) != 3 || len(vecs[0]) != 64 {
		t.Fatalf("batch result shape wrong")
	}
	if _, err := s.LookupBatch(0, []uint32{99999}); err == nil {
		t.Fatal("bad id in batch should error")
	}
}

// TestEmptyBatch: every batch call serves a batch of no ids, nil or not, as
// an empty result and no error, and moves no counter, stage histogram or
// trace. (Lookup takes exactly one id, so it has no empty form.)
func TestEmptyBatch(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 1024, 5)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, Seed: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.LookupBatch(0, []uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	var tr StageTrace
	calls := []struct {
		name string
		call func(ids []uint32) (int, error)
	}{
		{"LookupBatch", func(ids []uint32) (int, error) {
			out, err := s.LookupBatch(0, ids)
			return len(out), err
		}},
		{"LookupBatchTraced", func(ids []uint32) (int, error) {
			out, err := s.LookupBatchTraced(0, ids, &tr)
			return len(out), err
		}},
		{"LookupBatchRaw", func(ids []uint32) (int, error) {
			out, err := s.LookupBatchRaw(0, ids)
			return len(out), err
		}},
		{"LookupBatchRawLeased", func(ids []uint32) (int, error) {
			out, release, err := s.LookupBatchRawLeased(0, ids)
			if err == nil {
				release()
			}
			return len(out), err
		}},
	}
	for _, c := range calls {
		for _, ids := range [][]uint32{nil, {}} {
			stats, stages := s.Stats(), s.StageLatency()
			n, err := c.call(ids)
			if err != nil || n != 0 {
				t.Fatalf("%s(%v): %d results, err %v; want none and no error", c.name, ids, n, err)
			}
			if !reflect.DeepEqual(s.Stats(), stats) || !reflect.DeepEqual(s.StageLatency(), stages) {
				t.Fatalf("%s(%v) moved the store's counters", c.name, ids)
			}
		}
	}
	if tr != (StageTrace{}) {
		t.Fatalf("an empty traced batch traced %+v", tr)
	}
}

func TestTrainEnablesPrefetchingAndImprovesEffectiveBandwidth(t *testing.T) {
	tables, traces := buildTestTables(t, 2, 4096, 1200)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 600, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Serve the evaluation half untrained (baseline behaviour).
	trains := make([]*trace.Trace, len(traces))
	evals := make([]*trace.Trace, len(traces))
	for i, tr := range traces {
		trains[i], evals[i] = tr.Split(0.5)
	}
	serve := func() []TableStats {
		s.ResetStats()
		for ti, tr := range evals {
			for _, q := range tr.Queries {
				for _, id := range q {
					if _, err := s.Lookup(ti, id); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return s.Stats()
	}
	baselineStats := serve()

	report, err := s.Train(trains, TrainOptions{SHPIterations: 8, MiniCacheSampling: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Tables) != 2 {
		t.Fatalf("report covers %d tables", len(report.Tables))
	}
	for i, tr := range report.Tables {
		if tr.Name == "" || tr.TrainingQueries == 0 {
			t.Fatalf("table %d report incomplete: %+v", i, tr)
		}
		if tr.FinalFanout > tr.InitialFanout {
			t.Fatalf("table %d: SHP made fanout worse (%.2f -> %.2f)", i, tr.InitialFanout, tr.FinalFanout)
		}
		// ~20 ids a query in 32-vector blocks: perfect packing is one block
		// a query, now and then two.
		if tr.FanoutFloor < 1 || tr.FanoutFloor > 1.5 || tr.FanoutFloor > tr.FinalFanout {
			t.Fatalf("table %d: packing bound %.3f under a final fanout of %.2f", i, tr.FanoutFloor, tr.FinalFanout)
		}
		if tr.CacheVectors <= 0 {
			t.Fatalf("table %d: no DRAM allocated", i)
		}
	}
	trainedStats := serve()

	for i := range trainedStats {
		if !trainedStats[i].Prefetching {
			t.Fatalf("table %d: prefetching not enabled after training", i)
		}
		// Training must not corrupt data and should reduce block reads for
		// the same workload (strictly fewer NVM reads = higher effective
		// bandwidth).
		if trainedStats[i].BlockReads >= baselineStats[i].BlockReads {
			t.Errorf("table %d: block reads did not drop after training: %d -> %d",
				i, baselineStats[i].BlockReads, trainedStats[i].BlockReads)
		}
		if trainedStats[i].EffectiveBandwidth <= baselineStats[i].EffectiveBandwidth {
			t.Errorf("table %d: effective bandwidth did not improve: %.4f -> %.4f",
				i, baselineStats[i].EffectiveBandwidth, trainedStats[i].EffectiveBandwidth)
		}
	}

	// Data integrity after the layout rewrite.
	for _, id := range []uint32{0, 100, 4095} {
		got, err := s.Lookup(0, id)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := tables[0].Vector(id)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("vector %d corrupted after training", id)
			}
		}
	}
}

func TestTrainValidation(t *testing.T) {
	tables, traces := buildTestTables(t, 1, 1024, 50)
	s, err := Open(Config{Tables: tables, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Train(nil, TrainOptions{}); err == nil {
		t.Fatal("trace count mismatch should error")
	}
	bad := &trace.Trace{TableName: "x", NumVectors: 10, Queries: []trace.Query{{1}}}
	if _, err := s.Train([]*trace.Trace{bad}, TrainOptions{}); err == nil {
		t.Fatal("trace with wrong vector count should error")
	}
	// Nil trace entries are allowed and leave the table untrained.
	rep, err := s.Train([]*trace.Trace{nil}, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tables[0].TrainingQueries != 0 {
		t.Fatal("nil trace should leave the table untrained")
	}
	_ = traces
}

// TestTrainTurnsPrefetchingOffWhenTunerSaysOff: when every candidate
// threshold loses to no-prefetch, Train must serve prefetch-free exactly as
// AdaptNow does — Prefetching false, so no block read walks its members —
// instead of an admit-nothing policy that still does. A hot set under a
// one-touch scan is also the demand threshold's textbook case, so the policy
// that stays installed is the gate alone.
func TestTrainTurnsPrefetchingOffWhenTunerSaysOff(t *testing.T) {
	// Each query names one of 64 hot vectors (the multiples of 32) and two
	// of a scan that touches every other vector once. No two hot vectors are
	// asked for together, so no layout SHP finds packs them into a few
	// blocks: a block read offers mostly once-accessed neighbours, and
	// admitting them (count > 0) flushes the hot set out of the small cache.
	const vectors, hot = 2048, 64
	tables, _ := buildTestTables(t, 1, vectors, 1)
	tr := &trace.Trace{TableName: tables[0].Name, NumVectors: vectors}
	rng := rand.New(rand.NewSource(1))
	cold := uint32(0)
	for q := 0; q < 900; q++ {
		query := trace.Query{uint32(rng.Intn(hot)) * 32}
		for k := 0; k < 2; k++ {
			cold++
			if cold%32 == 0 {
				cold++
			}
			query = append(query, cold%vectors)
		}
		tr.Queries = append(tr.Queries, query)
	}

	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 96, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Train([]*trace.Trace{tr}, TrainOptions{MiniCacheSampling: 1, Thresholds: []uint32{0}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tables[0].Threshold != sim.DisablePrefetch {
		t.Fatalf("tuner chose threshold %d (gain %.3f); the trace was built so prefetching loses",
			rep.Tables[0].Threshold, rep.Tables[0].MiniatureGain)
	}
	for _, q := range tr.Queries {
		if _, err := s.LookupBatch(0, q); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()[0]
	if st.Prefetching || st.PrefetchAdds != 0 {
		t.Fatalf("prefetching must be off: Prefetching=%v PrefetchAdds=%d", st.Prefetching, st.PrefetchAdds)
	}
	if st.DemandThreshold == 0 || st.DemandThreshold != rep.Tables[0].DemandThreshold || st.ProbationFills == 0 || st.Policy == "" {
		t.Fatalf("the scan should be gated: DemandThreshold=%d (report %d) ProbationFills=%d Policy=%q",
			st.DemandThreshold, rep.Tables[0].DemandThreshold, st.ProbationFills, st.Policy)
	}
	if st.PredictedHitRate <= 0 || st.PredictedLookupsPerBlockRead < 1 {
		t.Fatalf("the no-prefetch prediction should be kept: %.3f / %.3f", st.PredictedHitRate, st.PredictedLookupsPerBlockRead)
	}
}

func TestUpdateVectorWriteThrough(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 1024, 10)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, Seed: 6}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Prime the cache with the old value.
	if _, err := s.Lookup(0, 7); err != nil {
		t.Fatal(err)
	}
	newVec := make([]float32, 64)
	for i := range newVec {
		newVec[i] = float32(i) * 0.5
	}
	if err := s.UpdateVector(0, 7, newVec); err != nil {
		t.Fatal(err)
	}
	got, err := s.Lookup(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for d := range newVec {
		if math.Abs(float64(got[d]-newVec[d])) > 0.01 {
			t.Fatalf("updated vector not visible: element %d = %g want %g", d, got[d], newVec[d])
		}
	}
	if err := s.UpdateVector(0, 7, []float32{1}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
	if err := s.UpdateVector(9, 7, newVec); err == nil {
		t.Fatal("bad table index should error")
	}
	if err := s.UpdateVector(0, 99999, newVec); err == nil {
		t.Fatal("bad vector id should error")
	}
	// Endurance accounting moved.
	if s.DeviceStats().BlocksWritten == 0 {
		t.Fatal("update should write to the device")
	}
}

func TestConcurrentLookups(t *testing.T) {
	tables, _ := buildTestTables(t, 2, 2048, 10)
	s, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: 300, Seed: 7}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := uint32((i*13 + w*997) % 2048)
				if _, err := s.Lookup(w%2, id); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stats := s.Stats()
	if stats[0].Lookups+stats[1].Lookups != 4000 {
		t.Fatalf("lookups = %d", stats[0].Lookups+stats[1].Lookups)
	}
}

func TestOpenWithProvidedDevice(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 1024, 5)
	// Too small a device must be rejected.
	small := nvm.NewDevice(nvm.DeviceConfig{NumBlocks: 2, Seed: 1})
	if _, err := Open(Config{Tables: tables, Device: small}); err == nil {
		t.Fatal("undersized device should be rejected")
	}
	big := nvm.NewDevice(nvm.DeviceConfig{NumBlocks: 64, Seed: 1})
	s, err := Open(Config{Tables: tables, Device: big})
	if err != nil {
		t.Fatal(err)
	}
	if s.Device() != big {
		t.Fatal("store should adopt the provided device")
	}
	s.Close() // must not close the provided device
	buf := make([]byte, nvm.BlockSize)
	if _, err := big.ReadBlock(0, buf); err != nil {
		t.Fatal("provided device should remain usable after store.Close")
	}
	big.Close()
}

func TestStatsAndReset(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 1024, 5)
	s, err := Open(Config{Tables: tables, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Lookup(0, 1)
	s.Lookup(0, 1)
	st := s.Stats()[0]
	if st.Lookups != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.HitRate != 0.5 {
		t.Fatalf("hit rate = %g", st.HitRate)
	}
	if st.Latency.Count != 1 {
		t.Fatalf("latency observations = %d", st.Latency.Count)
	}
	if st.EffectiveBandwidth <= 0 {
		t.Fatalf("effective bandwidth should be positive")
	}
	s.ResetStats()
	if s.Stats()[0].Lookups != 0 {
		t.Fatal("reset failed")
	}
}

// TestStageStatsPerTable pins how a table's stage snapshots relate to the
// store's histograms: Count and Mean are the table's own, so Count×Mean sums
// over tables to the store's total, while the quantiles are the store's.
// Untraced single-id probes are sampled one in probeSampleEvery, each sample
// standing for that many, so the probe Count still tracks the batch count.
func TestStageStatsPerTable(t *testing.T) {
	tables, traces := buildTestTables(t, 2, 1024, 50)
	s, err := Open(Config{Tables: tables, Seed: 8, DRAMBudgetVectors: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, q := range traces[0].Queries {
		if _, err := s.LookupBatch(0, q); err != nil {
			t.Fatal(err)
		}
	}
	const singles = 100 * probeSampleEvery
	for i := range singles {
		if _, err := s.Lookup(1, uint32(i%1024)); err != nil {
			t.Fatal(err)
		}
	}
	st, stages := s.Stats(), s.StageLatency()
	for i, ts := range st {
		if ts.Lookups != ts.Hits+ts.Misses {
			t.Fatalf("table %d: %d lookups, %d hits + %d misses", i, ts.Lookups, ts.Hits, ts.Misses)
		}
	}
	if got, want := st[0].ProbeLatency.Count, int64(len(traces[0].Queries)); got != want {
		t.Fatalf("table 0 probe count %d, want one per batch: %d", got, want)
	}
	if n := st[1].ProbeLatency.Count; n%probeSampleEvery != 0 || n < singles*2/5 || n > singles*8/5 {
		t.Fatalf("table 1 probe count %d after %d single-id lookups, want a multiple of %d near %d", n, singles, probeSampleEvery, singles)
	}
	if st[1].DecodeLatency.Count != 0 || st[0].DecodeLatency.Count != int64(len(traces[0].Queries)) {
		t.Fatalf("decode counts %d / %d: untraced single lookups are not timed, batches are",
			st[0].DecodeLatency.Count, st[1].DecodeLatency.Count)
	}
	for _, c := range []struct {
		name  string
		store metrics.Snapshot
		table func(TableStats) metrics.Snapshot
	}{
		{"service", stages.Service, func(ts TableStats) metrics.Snapshot { return ts.Latency }},
		{"decode", stages.Decode, func(ts TableStats) metrics.Snapshot { return ts.DecodeLatency }},
	} {
		var count int64
		var sum float64
		for _, ts := range st {
			snap := c.table(ts)
			count += snap.Count
			sum += snap.Mean * float64(snap.Count)
			if snap.P50 != c.store.P50 || snap.P99 != c.store.P99 || snap.Max != c.store.Max {
				t.Fatalf("%s: a table's quantiles %+v are not the store's %+v", c.name, snap, c.store)
			}
		}
		// The tables keep whole nanoseconds: half of one per sample at most.
		storeSum := c.store.Mean * float64(c.store.Count)
		if count != c.store.Count || math.Abs(sum-storeSum) > 0.5e-3*float64(count)+1e-9*storeSum {
			t.Fatalf("%s: tables sum to %d samples, %.3f us; the store has %d, %.3f us", c.name, count, sum, c.store.Count, storeSum)
		}
	}

	var tr StageTrace
	if _, err := s.LookupBatchTraced(1, []uint32{7}, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.ProbeUS <= 0 {
		t.Fatal("a traced single-id lookup did not time its probe")
	}
	s.ResetStats()
	if st, stages := s.Stats()[0], s.StageLatency(); st.ProbeLatency.Count != 0 || stages.Probe.Count != 0 {
		t.Fatalf("after ResetStats: table probe count %d, store's %d", st.ProbeLatency.Count, stages.Probe.Count)
	}
}

func BenchmarkStoreLookup(b *testing.B) {
	p := trace.Profile{Name: "bench", NumVectors: 8192, AvgLookups: 20, CompulsoryMissFrac: 0.08,
		Locality: 0.9, CommunitySize: 64, ReuseSkew: 3, Seed: 1}
	tbl := table.Generate("bench", table.GenerateOptions{NumVectors: 8192, Dim: 64, NumClusters: 128, Seed: 1})
	s, err := Open(Config{Tables: []*table.Table{tbl.Table}, DRAMBudgetVectors: 1024, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tr := trace.GenerateTable(p, 200)
	flat := make([]uint32, 0)
	for _, q := range tr.Queries {
		flat = append(flat, q...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lookup(0, flat[i%len(flat)])
	}
}
