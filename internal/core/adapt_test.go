package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"bandana/internal/alloc"
	"bandana/internal/nvm"
	"bandana/internal/table"
	"bandana/internal/trace"
)

// driftTestTables builds a two-table drift workload with very different
// cacheability, so the DRAM allocator has a real decision to make: table
// "hot" is small, local and skewed (a small cache captures most of it),
// table "cold" is large with weak locality (extra DRAM buys little).
func driftTestTables(queries, rotateEvery int) ([]*table.Table, []*trace.Trace) {
	profiles := []trace.Profile{
		{
			Name: "hot", NumVectors: 4096, AvgLookups: 25,
			CompulsoryMissFrac: 0.02, Locality: 0.95, CommunitySize: 64,
			ReuseSkew: 1.0, Seed: 11, HotSetRotation: rotateEvery,
		},
		{
			Name: "cold", NumVectors: 8192, AvgLookups: 25,
			CompulsoryMissFrac: 0.60, Locality: 0.10, CommunitySize: 64,
			ReuseSkew: 1.0, Seed: 12, HotSetRotation: rotateEvery,
		},
	}
	tables := make([]*table.Table, len(profiles))
	traces := make([]*trace.Trace, len(profiles))
	for i, p := range profiles {
		traces[i] = trace.GenerateTable(p, queries)
		tables[i] = table.Generate(p.Name, table.GenerateOptions{
			NumVectors:  p.NumVectors,
			Dim:         64,
			NumClusters: p.NumVectors / 64,
			Seed:        int64(i),
			Assignments: trace.CommunityAssignment(p),
		}).Table
	}
	return tables, traces
}

func servePhase(t *testing.T, s *Store, traces []*trace.Trace, from, to int) {
	t.Helper()
	for ti, tr := range traces {
		for q := from; q < to && q < len(tr.Queries); q++ {
			if len(tr.Queries[q]) == 0 {
				continue
			}
			if _, err := s.LookupBatch(ti, tr.Queries[q]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func aggregateHitRate(s *Store) (float64, int64) {
	var lookups, hits int64
	for _, st := range s.Stats() {
		lookups += st.Lookups
		hits += st.Hits
	}
	if lookups == 0 {
		return 0, 0
	}
	return float64(hits) / float64(lookups), lookups
}

// TestAdaptationBeatsStaticEvenSplitOnDrift is the acceptance scenario: a
// server started UNTRAINED on a drifting workload converges without a
// restart — after a few adaptation epochs its aggregate hit ratio is
// strictly better than the static even-split baseline serving the identical
// stream.
func TestAdaptationBeatsStaticEvenSplitOnDrift(t *testing.T) {
	const (
		epochQ    = 150 // queries served between adaptation epochs
		epochs    = 8
		rotate    = 2 * epochQ // drift phase length (the hot set rotates every 2 epochs)
		warmupEps = 4
		budget    = 600
	)
	tables, traces := driftTestTables(epochQ*epochs, rotate)
	tables2, _ := driftTestTables(epochQ*epochs, rotate) // fresh copies for the baseline store

	adaptive, err := Open(testBackendConfig(t, Config{Tables: tables, DRAMBudgetVectors: budget, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	defer adaptive.Close()
	static, err := Open(Config{Tables: tables2, DRAMBudgetVectors: budget, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()

	if err := adaptive.StartAdaptation(AdaptOptions{
		MinQueries:      32,
		RelayoutEvery:   2,
		RelayoutMinGain: 0.02,
		SHPIterations:   8,
	}); err != nil {
		t.Fatal(err)
	}

	for epoch := 0; epoch < epochs; epoch++ {
		servePhase(t, adaptive, traces, epoch*epochQ, (epoch+1)*epochQ)
		servePhase(t, static, traces, epoch*epochQ, (epoch+1)*epochQ)
		if _, err := adaptive.AdaptNow(); err != nil {
			t.Fatal(err)
		}
		if epoch == warmupEps-1 {
			// Converged enough: measure both stores on the remaining
			// (still drifting) epochs only.
			adaptive.ResetStats()
			static.ResetStats()
		}
	}

	adaptRate, adaptN := aggregateHitRate(adaptive)
	staticRate, staticN := aggregateHitRate(static)
	if adaptN == 0 || staticN == 0 {
		t.Fatal("no post-warmup lookups measured")
	}
	t.Logf("post-warmup aggregate hit ratio: adaptive %.4f (%d lookups) vs static even-split %.4f (%d lookups)",
		adaptRate, adaptN, staticRate, staticN)
	if adaptRate <= staticRate {
		t.Fatalf("adaptation did not beat the static even split: %.4f <= %.4f", adaptRate, staticRate)
	}

	stats := adaptive.AdaptationStats()
	if stats.EpochsCompleted != epochs {
		t.Fatalf("EpochsCompleted = %d, want %d", stats.EpochsCompleted, epochs)
	}
	// The allocator should have moved DRAM toward the cacheable table.
	var hotCap, coldCap int
	for _, ts := range stats.Tables {
		switch ts.Name {
		case "hot":
			hotCap = ts.CacheVectors
		case "cold":
			coldCap = ts.CacheVectors
		}
	}
	if hotCap <= coldCap {
		t.Errorf("expected the hot table to win DRAM: hot=%d cold=%d", hotCap, coldCap)
	}
}

func TestAdaptNowRequiresStart(t *testing.T) {
	tables, _ := buildTestTables(t, 1, 1024, 10)
	s, err := Open(Config{Tables: tables, DRAMBudgetVectors: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AdaptNow(); err == nil {
		t.Fatal("AdaptNow without StartAdaptation should error")
	}
	st := s.AdaptationStats()
	if st.Enabled {
		t.Fatal("AdaptationStats.Enabled should be false before StartAdaptation")
	}
}

func TestStartAdaptationLifecycle(t *testing.T) {
	tables, traces := buildTestTables(t, 2, 1024, 120)
	s, err := Open(Config{Tables: tables, DRAMBudgetVectors: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.StartAdaptation(AdaptOptions{
		MinQueries:      16,
		RelayoutEvery:   1,
		RelayoutMinGain: 0.01,
		MinPrefetchGain: 0.01,
		SHPIterations:   8,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.StartAdaptation(AdaptOptions{}); err == nil {
		t.Fatal("double StartAdaptation should error")
	}

	// Two epochs: the first re-partitions the tables, the second tunes
	// thresholds against the partitioned layout (where prefetching pays).
	var rep *AdaptEpochReport
	var err2 error
	for e := 0; e < 2; e++ {
		servePhase(t, s, traces, 0, 120)
		rep, err2 = s.AdaptNow()
		if err2 != nil {
			t.Fatal(err2)
		}
	}
	for _, tr := range rep.Tables {
		if !tr.Adapted {
			t.Fatalf("table %s not adapted despite %d recorded queries", tr.Name, tr.RecordedQueries)
		}
		if tr.CacheVectors <= 0 {
			t.Fatalf("table %s: no cache allocation reported", tr.Name)
		}
	}
	stats := s.AdaptationStats()
	if !stats.Enabled || stats.Background {
		t.Fatalf("manual-mode stats: Enabled=%v Background=%v", stats.Enabled, stats.Background)
	}
	if stats.EpochsCompleted != 2 || stats.LastEpochDuration <= 0 {
		t.Fatalf("epoch accounting: %d epochs, %v duration", stats.EpochsCompleted, stats.LastEpochDuration)
	}

	// Prefetching must now be live with the tuned threshold policy.
	found := false
	for _, ts := range s.Stats() {
		if ts.Prefetching && ts.Policy == "threshold-admit" {
			found = true
		}
	}
	if !found {
		t.Fatal("no table ended up with a live threshold-admit policy")
	}

	s.StopAdaptation()
	s.StopAdaptation() // idempotent
	if s.AdaptationStats().Enabled {
		t.Fatal("stats still enabled after stop")
	}
	if _, err := s.AdaptNow(); err == nil {
		t.Fatal("AdaptNow after StopAdaptation should error")
	}
	// Restartable.
	if err := s.StartAdaptation(AdaptOptions{MinQueries: 16}); err != nil {
		t.Fatal(err)
	}
}

func TestBackgroundAdaptationLoop(t *testing.T) {
	tables, traces := buildTestTables(t, 1, 1024, 200)
	s, err := Open(Config{Tables: tables, DRAMBudgetVectors: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StartAdaptation(AdaptOptions{Interval: 10 * time.Millisecond, MinQueries: 16}); err != nil {
		t.Fatal(err)
	}
	if !s.AdaptationStats().Background {
		t.Fatal("background loop not reported")
	}
	servePhase(t, s, traces, 0, 200)
	deadline := time.Now().Add(5 * time.Second)
	for s.AdaptationStats().EpochsCompleted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background loop never completed an epoch")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.StopAdaptation()
	if got := s.AdaptationStats(); got.Enabled {
		t.Fatalf("adaptation still enabled after stop: %+v", got)
	}
}

// TestTrainAndAdaptationSplitDRAMAlike holds Train and an adaptation epoch
// to one DRAM allocation rule: each divides its budget through splitDRAM, and
// each installs, per table, what alloc.Allocate with the lookahead returns
// for the demands it passed. The fixture is one where the split without the
// lookahead differs, so a Train that allocated without it fails here either
// way: by not calling splitDRAM, or by a split that is not the lookahead's.
func TestTrainAndAdaptationSplitDRAMAlike(t *testing.T) {
	type split struct {
		demands []alloc.TableDemand
		budget  int
	}
	var splits []split
	splitDRAMHook = func(demands []alloc.TableDemand, budget int) {
		splits = append(splits, split{slices.Clone(demands), budget})
	}
	defer func() { splitDRAMHook = nil }()
	// The split each call of splitDRAM must have made, after checking that
	// the lookahead matters to it.
	lookahead := func(phase string) []int {
		t.Helper()
		if len(splits) != 1 {
			t.Fatalf("%s split DRAM through splitDRAM %d times, want once", phase, len(splits))
		}
		sp := splits[0]
		splits = nil
		with, err := alloc.Allocate(sp.demands, alloc.Options{TotalVectors: sp.budget, LookaheadVectors: sp.budget / 16})
		if err != nil {
			t.Fatal(err)
		}
		without, err := alloc.Allocate(sp.demands, alloc.Options{TotalVectors: sp.budget})
		if err != nil {
			t.Fatal(err)
		}
		if phase == "Train" && slices.Equal(with.Vectors, without.Vectors) {
			t.Fatalf("%s: the split is %v with and without the lookahead: the fixture cannot tell them apart", phase, with.Vectors)
		}
		return with.Vectors
	}

	tables, traces := driftTestTables(400, 0)
	s, err := Open(Config{Tables: tables, DRAMBudgetVectors: 600, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	train := make([]*trace.Trace, len(traces))
	for i, tr := range traces {
		train[i] = &trace.Trace{TableName: tr.TableName, NumVectors: tr.NumVectors, Queries: tr.Queries[:200]}
	}
	rep, err := s.Train(train, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := lookahead("Train")
	for i, tr := range rep.Tables {
		if tr.CacheVectors != want[i] {
			t.Fatalf("Train gave table %s %d vectors, the lookahead split %v", tr.Name, tr.CacheVectors, want)
		}
	}

	if err := s.StartAdaptation(AdaptOptions{MinQueries: 32}); err != nil {
		t.Fatal(err)
	}
	servePhase(t, s, traces, 200, 400)
	arep, err := s.AdaptNow()
	if err != nil {
		t.Fatal(err)
	}
	want = lookahead("AdaptNow")
	for i, tr := range arep.Tables {
		if tr.CacheVectors != max(want[i], 1) {
			t.Fatalf("AdaptNow gave table %s %d vectors, the lookahead split %v", tr.Name, tr.CacheVectors, want)
		}
	}
}

// TestAdaptationResizeKeepsWorkingSet verifies live rebalancing does not
// drop the cache: after an epoch shrinks a table's cache, previously hot
// vectors still hit.
func TestAdaptationResizeKeepsWorkingSet(t *testing.T) {
	tables, traces := driftTestTables(400, 0)
	s, err := Open(Config{Tables: tables, DRAMBudgetVectors: 600, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StartAdaptation(AdaptOptions{MinQueries: 32}); err != nil {
		t.Fatal(err)
	}
	servePhase(t, s, traces, 0, 400)
	before := s.Stats()
	if _, err := s.AdaptNow(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	for i := range after {
		if after[i].CacheVectors < before[i].CacheVectors && after[i].CacheUsed == 0 {
			t.Fatalf("table %s: shrink emptied the cache (incremental eviction expected)", after[i].Name)
		}
	}
}

// TestFloatHitAllocs pins what the float API pays over the raw path on cache
// hits, with the adaptation recorder off and on: a Lookup allocates exactly
// the vector it returns (its id array stays on the stack, the views are the
// pooled lease's and Record copies the ids it samples into its own ring),
// and a 64-id LookupBatch two slices — one backing array for all its
// vectors, not one each, and the result slice of windows into it. CI's
// alloc gate runs it without -race.
func TestFloatHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	tables, _ := buildTestTables(t, 1, 1024, 10)
	s, err := Open(Config{Tables: tables, DRAMBudgetVectors: 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batch := make([]uint32, 64)
	for i := range batch {
		batch[i] = uint32(3 * i)
	}
	check := func(recording string) {
		t.Helper()
		lookup := func() {
			if _, err := s.Lookup(0, 7); err != nil {
				t.Fatal(err)
			}
		}
		lookupBatch := func() {
			if _, err := s.LookupBatch(0, batch); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ { // warm the cache and every recorder ring slot
			lookup()
			lookupBatch()
		}
		before := s.Stats()[0].Misses
		one := testing.AllocsPerRun(1000, lookup)
		many := testing.AllocsPerRun(100, lookupBatch)
		if missed := s.Stats()[0].Misses - before; missed != 0 {
			t.Fatalf("recording %s: %d misses on the hit path under test", recording, missed)
		}
		if one != 1 {
			t.Fatalf("recording %s: cache-hit Lookup allocates %.0f times per op, want 1", recording, one)
		}
		if many > 2 {
			t.Fatalf("recording %s: all-hit 64-id LookupBatch allocates %.0f times per op, want <= 2", recording, many)
		}
	}
	check("off")
	// A small recorder ring so the warmup touches every slot: each ring slot
	// heap-allocates its reusable ID buffer on FIRST use (bounded by ring
	// capacity, amortized to zero).
	if err := s.StartAdaptation(AdaptOptions{MinQueries: 16, RecorderQueries: 64, RecorderStripes: 4}); err != nil {
		t.Fatal(err)
	}
	check("on")
}

// TestFailedEpochAfterRelayoutMovesSeq: an epoch re-lays tables out one
// install at a time, so one that fails on the second table has already
// changed the image. The snapshot seq must move and the update-log window
// reset exactly as after a completed epoch — a follower tailing vector
// records across the re-layout would otherwise keep an image the primary no
// longer has — and both tables keep serving every vector. No table is left
// half-adapted: the first serves its new layout with the cache size and the
// policy the epoch tuned for it (those a twin store, alike but for the
// failure, publishes), and the second keeps its pre-epoch layout, cache size
// and policy. The two cache sizes then no longer sum to the configured
// budget; the next epoch splits the budget itself again, not that sum.
func TestFailedEpochAfterRelayoutMovesSeq(t *testing.T) {
	tables, traces := buildTestTables(t, 2, 1024, 120)
	twinTables, _ := buildTestTables(t, 2, 1024, 120)
	blocks := 0
	for _, tbl := range tables {
		blocks += tbl.SizeBytes() / nvm.BlockSize
	}
	open := func(tables []*table.Table, fs *readFailStore) *Store {
		s, err := Open(Config{Tables: tables, DRAMBudgetVectors: 128, Seed: 1,
			Device: nvm.NewDevice(nvm.DeviceConfig{Store: fs})})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if err := s.StartAdaptation(AdaptOptions{
			MinQueries: 16, RelayoutEvery: 1, RelayoutMinGain: 0.01, SHPIterations: 8,
		}); err != nil {
			t.Fatal(err)
		}
		servePhase(t, s, traces, 0, 120)
		return s
	}
	fs := &readFailStore{MemStore: nvm.NewMemStore(blocks)}
	s := open(tables, fs)
	twin := open(twinTables, &readFailStore{MemStore: nvm.NewMemStore(blocks)})
	rep, err := twin.AdaptNow()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Tables[0].Relayout || !rep.Tables[1].Relayout {
		t.Fatalf("the twin's epoch re-laid out %v/%v, want both tables", rep.Tables[0].Relayout, rep.Tables[1].Relayout)
	}
	oldLayout := s.tables[0].loadState().layout
	pre := *s.tables[1].loadState()
	oldSeq := s.SnapshotSeq()
	if _, _, ok := s.UpdatesSince(oldSeq, 0, 0); !ok {
		t.Fatal("the update-log window does not reach the current seq before the epoch")
	}

	fs.failFrom.Store(int64(s.tables[1].blockBase)) // table 2's render cannot read its blocks
	_, err = s.AdaptNow()
	fs.failFrom.Store(0)
	if err == nil || !strings.Contains(err.Error(), "injected read failure") {
		t.Fatalf("AdaptNow = %v, want the injected render failure", err)
	}
	if s.tables[0].loadState().layout == oldLayout {
		t.Fatal("table 0 was not re-laid out before the failure; the test exercises nothing")
	}
	if s.SnapshotSeq() <= oldSeq {
		t.Fatalf("snapshot seq stayed at %d although table 0's re-layout committed", oldSeq)
	}
	if _, _, ok := s.UpdatesSince(oldSeq, 0, 0); ok {
		t.Fatal("the update-log window still spans a committed re-layout")
	}
	got, want := s.tables[0].loadState(), twin.tables[0].loadState()
	if !slices.Equal(got.layout.Order(), want.layout.Order()) || got.cacheCap != want.cacheCap ||
		got.threshold != want.threshold || got.demandThreshold != want.demandThreshold ||
		got.prefetch != want.prefetch || !reflect.DeepEqual(got.admit, want.admit) {
		t.Fatalf("table 0 serves cache %d, threshold %d, demand threshold %d, prefetch %v; the epoch tuned %d, %d, %d, %v for its new layout",
			got.cacheCap, got.threshold, got.demandThreshold, got.prefetch,
			want.cacheCap, want.threshold, want.demandThreshold, want.prefetch)
	}
	if post := s.tables[1].loadState(); post.layout != pre.layout || post.cacheCap != pre.cacheCap ||
		post.threshold != pre.threshold || post.demandThreshold != pre.demandThreshold ||
		post.prefetch != pre.prefetch || post.admit != pre.admit {
		t.Fatalf("table 1's install failed but it serves cache %d, threshold %d, demand threshold %d (before the epoch: %d, %d, %d)",
			post.cacheCap, post.threshold, post.demandThreshold, pre.cacheCap, pre.threshold, pre.demandThreshold)
	}
	verifyStoreMatchesTables(t, s, tables)

	caps := func() int { return s.tables[0].loadState().cacheCap + s.tables[1].loadState().cacheCap }
	if caps() == 128 {
		t.Fatal("the failed epoch left the cache sizes summing to the budget: the test exercises no shift")
	}
	servePhase(t, s, traces, 0, 120)
	if _, err := s.AdaptNow(); err != nil {
		t.Fatal(err)
	}
	if got := caps(); got != 128 {
		t.Fatalf("the epoch after the failed one split %d vectors of DRAM, the configured budget is 128", got)
	}
}

// TestDemandGateUnderDrift bounds what the demand threshold costs when the
// counts it reads go stale, and shows one adaptation epoch repairs it. Two
// stores are trained alike on phase 0 of a drifting workload (the hot
// communities rotate at the phase boundary); one then has its demand
// threshold stripped, which is the only difference between them (it keeps
// the prefetch verdict the tuner reached with the gate in hand). Serving
// phase 1 with phase-0 counts, the gated store may read at most 6% more
// blocks than the ungated one; after one AdaptNow over that traffic (the
// ungated store is adapted too and stripped again) it reads no more.
func TestDemandGateUnderDrift(t *testing.T) {
	const phase = 800 // queries per drift phase
	profiles := trace.DriftProfiles(0.001, phase)[:2]
	traces := make([]*trace.Trace, len(profiles))
	trains := make([]*trace.Trace, len(profiles))
	for i, p := range profiles {
		traces[i] = trace.GenerateTable(p, 2*phase)
		trains[i] = traces[i].Prefix(phase)
	}
	open := func(gated bool) *Store {
		tables := make([]*table.Table, len(profiles))
		for i, p := range profiles {
			tables[i] = table.Generate(p.Name, table.GenerateOptions{
				NumVectors: p.NumVectors, Dim: 64, NumClusters: p.NumVectors / 64,
				Seed: int64(i), Assignments: trace.CommunityAssignment(p),
			}).Table
		}
		cfg := Config{Tables: tables, DRAMBudgetVectors: 1200, Seed: 1}
		if gated {
			cfg = testBackendConfig(t, cfg)
		}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if _, err := s.Train(trains, TrainOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := s.StartAdaptation(AdaptOptions{MinQueries: 32}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	strip := func(s *Store) {
		for _, st := range s.tables {
			forceDemandThreshold(st, 0)
		}
	}
	blockReads := func(s *Store) (reads, probation int64) {
		for _, st := range s.Stats() {
			reads += st.BlockReads
			probation += st.ProbationFills
		}
		return reads, probation
	}
	gated, ungated := open(true), open(false)
	strip(ungated)
	gates := 0
	for _, st := range gated.Stats() {
		if st.DemandThreshold > 0 {
			gates++
		}
	}
	if gates == 0 {
		t.Fatal("training gated no table: nothing to bound")
	}

	// Phase 1, first half, on phase-0 counts.
	for _, s := range []*Store{gated, ungated} {
		s.ResetStats()
		servePhase(t, s, traces, phase, phase+phase/2)
	}
	stale, probation := blockReads(gated)
	plain, _ := blockReads(ungated)
	t.Logf("stale counts: gated %d block reads (%d probation fills), ungated %d (%+.1f%%)",
		stale, probation, plain, 100*(float64(stale)/float64(plain)-1))
	if probation == 0 {
		t.Fatal("the gate put nothing on probation")
	}
	if float64(stale) > 1.06*float64(plain) {
		t.Errorf("stale counts cost the gated store %d block reads, over 1.06 x the ungated store's %d", stale, plain)
	}

	// One epoch over that traffic refreshes the counts the gate reads.
	for _, s := range []*Store{gated, ungated} {
		if _, err := s.AdaptNow(); err != nil {
			t.Fatal(err)
		}
	}
	strip(ungated)
	for _, s := range []*Store{gated, ungated} {
		s.ResetStats()
		servePhase(t, s, traces, phase+phase/2, 2*phase)
	}
	fresh, _ := blockReads(gated)
	plain, _ = blockReads(ungated)
	t.Logf("after AdaptNow: gated %d block reads, ungated %d (%+.1f%%)", fresh, plain, 100*(float64(fresh)/float64(plain)-1))
	if fresh > plain {
		t.Errorf("after one adaptation epoch the gated store reads %d blocks, the ungated one %d", fresh, plain)
	}
}
