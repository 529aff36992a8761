package sim

import (
	"math/rand"
	"slices"
	"testing"

	"bandana/internal/cache"
	"bandana/internal/layout"
	"bandana/internal/mrc"
	"bandana/internal/shp"
	"bandana/internal/trace"
)

// testTrace builds a high-locality synthetic trace plus a small table size
// suitable for fast unit tests.
func testTrace(t *testing.T, numVectors, queries int, locality float64, seed int64) *trace.Trace {
	t.Helper()
	p := trace.Profile{
		Name:               "simtest",
		NumVectors:         numVectors,
		AvgLookups:         24,
		CompulsoryMissFrac: 0.08,
		Locality:           locality,
		CommunitySize:      64,
		ReuseSkew:          3,
		Seed:               seed,
	}
	return trace.GenerateTable(p, queries)
}

// shpLayout trains SHP on the trace and returns the resulting layout.
func shpLayout(t *testing.T, tr *trace.Trace) *layout.Layout {
	t.Helper()
	queries := make([][]uint32, len(tr.Queries))
	for i, q := range tr.Queries {
		queries[i] = q
	}
	res, err := shp.Partition(tr.NumVectors, queries, shp.Options{BlockVectors: 32, Iterations: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := layout.FromOrder(res.Order, 32)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestReplayBaselineCountsBlocksPerQuery(t *testing.T) {
	tr := &trace.Trace{
		TableName:  "t",
		NumVectors: 128,
		Queries:    []trace.Query{{0, 1, 2}, {0, 1, 2}, {64, 65}},
	}
	l := layout.Identity(128, 32)
	res := ReplayBaseline(tr, l, 0, nil)
	if res.Lookups != 8 {
		t.Fatalf("lookups = %d", res.Lookups)
	}
	// Unlimited cache: misses = unique vectors = 5 — the paper's baseline of
	// one block read per missed vector — while the batch path reads each
	// query's distinct blocks once: 2 block reads, prefetching or not.
	if res.Misses != 5 || res.BlockReads != 2 {
		t.Fatalf("misses=%d blockReads=%d, want 5/2", res.Misses, res.BlockReads)
	}
	if res.Hits != 3 {
		t.Fatalf("hits = %d", res.Hits)
	}
	if res.HitRate <= 0 || res.VectorsPerBlockRead <= 0 {
		t.Fatalf("derived stats missing: %+v", res)
	}
}

func TestReplayWithPrefetchUnlimitedCacheReadsFewerBlocks(t *testing.T) {
	// All lookups hit vectors 0..31 which share one block under identity
	// layout: with prefetching the whole trace costs exactly 1 block read.
	tr := &trace.Trace{
		TableName:  "t",
		NumVectors: 64,
		Queries:    []trace.Query{{0, 5, 9}, {12, 14}, {3, 31}},
	}
	l := layout.Identity(64, 32)
	with := Replay(tr, Config{Layout: l, CacheVectors: 0, Policy: cache.AlwaysAdmit{}})
	if with.BlockReads != 1 {
		t.Fatalf("block reads = %d, want 1", with.BlockReads)
	}
	// Prefetching off: one read per query (each query stays in one block),
	// and 7 misses — the paper's per-vector baseline.
	base := ReplayBaseline(tr, l, 0, nil)
	if base.BlockReads != 3 || base.Misses != 7 {
		t.Fatalf("baseline blockReads=%d misses=%d, want 3/7 (queries/unique vectors)", base.BlockReads, base.Misses)
	}
	if inc := EffectiveBandwidthIncrease(with, base); inc != 2 {
		t.Fatalf("effective bandwidth increase = %.2f, want 2", inc)
	}
	if with.PrefetchesAdmitted != 29 {
		t.Fatalf("prefetches admitted = %d, want 29 (the block minus the 3 requested ids)", with.PrefetchesAdmitted)
	}
	if with.PrefetchHits != 4 {
		t.Fatalf("prefetch hits = %d, want 4", with.PrefetchHits)
	}
}

// TestReplayBatchSemantics pins the corners of the batch algorithm the replay
// shares with the store's serveBatch, on an identity layout of 32-vector
// blocks.
func TestReplayBatchSemantics(t *testing.T) {
	even := func(id uint32) bool { return id%2 == 0 }
	// Training saw ids 0 and 1 ten times and nothing else; scan is two
	// blocks' worth of ids nobody asks for twice, between two reads of 0, 1.
	hotCounts := make([]uint32, 128)
	hotCounts[0], hotCounts[1] = 10, 10
	scan := []trace.Query{{0, 1}, nil, nil, {0, 1}}
	for id := uint32(32); id < 64; id++ {
		scan[1] = append(scan[1], id)
		scan[2] = append(scan[2], id+32)
	}
	cases := []struct {
		name    string
		queries []trace.Query
		cache   int
		policy  cache.AdmissionPolicy
		filter  func(uint32) bool
		want    Result
	}{
		{
			// Repeats inherit the class of the unique probe: three misses of 5
			// in the first query (no second probe finds it cached), hits in
			// the second.
			name:    "repeated ids in a query",
			queries: []trace.Query{{5, 5, 7, 5}, {5, 5, 40}},
			want:    Result{Lookups: 7, Hits: 2, Misses: 5, BlockReads: 2},
		},
		{
			// The requested ids of a block read are not prefetch candidates:
			// 30 admissions, and re-reading 0 and 1 are plain hits while 2 is
			// a prefetch hit, once.
			name:    "requested id is also a prefetch candidate",
			queries: []trace.Query{{0, 1}, {0, 1, 2}, {2}},
			policy:  cache.AlwaysAdmit{},
			want:    Result{Lookups: 6, Hits: 4, Misses: 2, BlockReads: 1, PrefetchesAdmitted: 30, PrefetchHits: 1},
		},
		{
			// A 2-vector cache: the block's prefetches evict its own requested
			// ids, which still must not come back as prefetches of that read.
			name:    "requested id evicted by its own block's prefetches",
			queries: []trace.Query{{0, 1}},
			cache:   2,
			policy:  cache.AlwaysAdmit{},
			want:    Result{Lookups: 2, Misses: 2, BlockReads: 1, PrefetchesAdmitted: 30},
		},
		{
			// The filter drops the odd half of the block: odd lookups are
			// skipped and odd members are never admitted.
			name:    "filter drops part of a block",
			queries: []trace.Query{{0, 1, 2}, {4, 3}},
			policy:  cache.AlwaysAdmit{},
			filter:  even,
			want:    Result{Lookups: 3, Hits: 1, Misses: 2, BlockReads: 1, PrefetchesAdmitted: 14, PrefetchHits: 1},
		},
		{
			// Two blocks missed by one query cost two reads however the ids
			// interleave; the second query's misses share one.
			name:    "misses grouped by block",
			queries: []trace.Query{{33, 0, 34, 1}, {70, 71, 72}},
			want:    Result{Lookups: 7, Misses: 7, BlockReads: 3},
		},
		{
			// A 32-vector cache under the scan, gated: the 64 cold ids enter
			// at the head of the last segment and evict one another from its
			// tail, 0 and 1 stay where they were and hit.
			name:    "cold scan on probation leaves the hot ids resident",
			queries: scan,
			cache:   32,
			policy:  cache.ThresholdAdmit{Counts: hotCounts, Threshold: DisablePrefetch, DemandThreshold: 1},
			want:    Result{Lookups: 68, Hits: 2, Misses: 66, BlockReads: 3, ProbationFills: 64},
		},
		{
			// The same without the gate: 64 fills at the MRU end push 0 and 1
			// out and the last query pays a fourth block read.
			name:    "cold scan at MRU evicts the hot ids",
			queries: scan,
			cache:   32,
			policy:  cache.ThresholdAdmit{Counts: hotCounts, Threshold: DisablePrefetch},
			want:    Result{Lookups: 68, Misses: 68, BlockReads: 4},
		},
	}
	l := layout.Identity(128, 32)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := &trace.Trace{TableName: "t", NumVectors: 128, Queries: tc.queries}
			got := Replay(tr, Config{Layout: l, CacheVectors: tc.cache, Policy: tc.policy, Filter: tc.filter})
			got.Policy, got.HitRate, got.VectorsPerBlockRead = "", 0, 0
			if got != tc.want {
				t.Fatalf("got  %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

func TestEffectiveBandwidthIncreaseDegenerate(t *testing.T) {
	if EffectiveBandwidthIncrease(Result{}, Result{}) != 0 {
		t.Fatal("degenerate inputs should yield 0")
	}
	if EffectiveBandwidthIncrease(Result{BlockReads: 10}, Result{}) != 0 {
		t.Fatal("zero baseline should yield 0")
	}
}

func TestSHPFanoutGainBeatsIdentityLayout(t *testing.T) {
	tr := testTrace(t, 8192, 1500, 0.95, 3)
	train, eval := tr.Split(0.5)
	shpL := shpLayout(t, train)
	idL := layout.Identity(tr.NumVectors, 32)

	shpGain := FanoutGain(eval, shpL)
	idGain := FanoutGain(eval, idL)
	if shpGain <= idGain {
		t.Fatalf("SHP layout fanout gain (%.2f) should beat identity layout (%.2f)", shpGain, idGain)
	}
	if shpGain < 0.3 {
		t.Fatalf("SHP should provide a substantial fanout gain, got %.2f", shpGain)
	}
}

func TestFanoutGainEmptyTrace(t *testing.T) {
	tr := &trace.Trace{TableName: "empty", NumVectors: 64}
	if g := FanoutGain(tr, layout.Identity(64, 32)); g != 0 {
		t.Fatalf("empty trace should have 0 gain, got %g", g)
	}
}

func TestSHPBeatsIdentityWithLimitedCacheAndThreshold(t *testing.T) {
	tr := testTrace(t, 8192, 2000, 0.95, 17)
	train, eval := tr.Split(0.5)
	shpL := shpLayout(t, train)
	idL := layout.Identity(tr.NumVectors, 32)
	counts := train.AccessCounts()
	cacheSize := 400

	shpCmp := Compare(eval, Config{Layout: shpL, CacheVectors: cacheSize,
		Policy: cache.ThresholdAdmit{Counts: counts, Threshold: 1}})
	idCmp := Compare(eval, Config{Layout: idL, CacheVectors: cacheSize,
		Policy: cache.ThresholdAdmit{Counts: counts, Threshold: 1}})
	if shpCmp.EffectiveBandwidthIncrease <= idCmp.EffectiveBandwidthIncrease {
		t.Fatalf("SHP layout (%.2f) should beat identity layout (%.2f) with a limited cache",
			shpCmp.EffectiveBandwidthIncrease, idCmp.EffectiveBandwidthIncrease)
	}
}

func TestNaivePrefetchHurtsWithSmallCache(t *testing.T) {
	// Figure 10's observation: with a small cache, admitting all 32
	// prefetched vectors at the MRU end evicts useful vectors and performs
	// worse than no prefetching at all — on an unpartitioned (identity)
	// layout.
	tr := testTrace(t, 8192, 1200, 0.6, 5)
	idL := layout.Identity(tr.NumVectors, 32)
	cacheSize := 256
	cmp := Compare(tr, Config{Layout: idL, CacheVectors: cacheSize, Policy: cache.AlwaysAdmit{}})
	if cmp.EffectiveBandwidthIncrease > 0.05 {
		t.Fatalf("naive prefetching on an unpartitioned layout with a small cache should not help, got %.2f",
			cmp.EffectiveBandwidthIncrease)
	}
}

func TestThresholdAdmissionBeatsNaiveOnPartitionedLayout(t *testing.T) {
	tr := testTrace(t, 8192, 2000, 0.9, 7)
	train, eval := tr.Split(0.5)
	l := shpLayout(t, train)
	counts := train.AccessCounts()
	cacheSize := 400

	naive := Compare(eval, Config{Layout: l, CacheVectors: cacheSize, Policy: cache.AlwaysAdmit{}})
	thresh := Compare(eval, Config{Layout: l, CacheVectors: cacheSize,
		Policy: cache.ThresholdAdmit{Counts: counts, Threshold: 5}})

	if thresh.EffectiveBandwidthIncrease <= naive.EffectiveBandwidthIncrease {
		t.Fatalf("threshold admission (%.2f) should beat naive admission (%.2f) at small cache sizes",
			thresh.EffectiveBandwidthIncrease, naive.EffectiveBandwidthIncrease)
	}
}

func TestReplayWithFilterSkipsUnsampledLookups(t *testing.T) {
	tr := testTrace(t, 4096, 300, 0.9, 9)
	l := layout.Identity(tr.NumVectors, 32)
	full := ReplayBaseline(tr, l, 100, nil)
	filter := mrc.SampleFilter(0.25)
	sampled := ReplayBaseline(tr, l, 25, filter)
	if sampled.Lookups >= full.Lookups {
		t.Fatalf("sampled lookups %d should be well below full %d", sampled.Lookups, full.Lookups)
	}
	frac := float64(sampled.Lookups) / float64(full.Lookups)
	if frac < 0.05 || frac > 0.6 {
		t.Fatalf("sampled fraction %.2f implausible for 25%% spatial sampling", frac)
	}
}

func TestTuneThresholdErrors(t *testing.T) {
	tr := testTrace(t, 2048, 50, 0.9, 1)
	l := layout.Identity(tr.NumVectors, 32)
	if _, err := TuneThreshold(tr, TunerConfig{Layout: nil, CacheVectors: 10}); err == nil {
		t.Fatal("nil layout should error")
	}
	if _, err := TuneThreshold(tr, TunerConfig{Layout: l, CacheVectors: 0}); err == nil {
		t.Fatal("unlimited cache should error")
	}
}

func TestTuneThresholdPicksBestCandidate(t *testing.T) {
	tr := testTrace(t, 8192, 2000, 0.9, 11)
	train, eval := tr.Split(0.5)
	l := shpLayout(t, train)
	counts := train.AccessCounts()
	cacheSize := 400

	// Full-cache (oracle) tuning: sampling rate 1.
	choice, err := TuneThreshold(eval, TunerConfig{
		Layout: l, Counts: counts, CacheVectors: cacheSize, SamplingRate: 1,
		Thresholds: []uint32{0, 5, 10, 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(choice.PerThreshold) != 4 {
		t.Fatalf("expected 4 candidate results, got %d", len(choice.PerThreshold))
	}
	// The chosen threshold must be the argmax of the recorded gains.
	for th, gain := range choice.PerThreshold {
		if gain > choice.MiniatureGain {
			t.Fatalf("threshold %d has gain %.3f above the chosen %.3f", th, gain, choice.MiniatureGain)
		}
	}
	// Evaluating the chosen threshold on the full cache should not be worse
	// than the worst candidate.
	worst := choice.MiniatureGain
	for _, g := range choice.PerThreshold {
		if g < worst {
			worst = g
		}
	}
	if choice.MiniatureGain < worst {
		t.Fatalf("chosen gain below worst candidate")
	}
}

func TestTuneThresholdSampledTracksOracle(t *testing.T) {
	tr := testTrace(t, 16384, 2500, 0.9, 13)
	train, eval := tr.Split(0.4)
	l := shpLayout(t, train)
	counts := train.AccessCounts()
	cacheSize := 800

	oracle, err := TuneThreshold(eval, TunerConfig{Layout: l, Counts: counts, CacheVectors: cacheSize, SamplingRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	mini, err := TuneThreshold(eval, TunerConfig{Layout: l, Counts: counts, CacheVectors: cacheSize, SamplingRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if mini.SampledLookups >= oracle.SampledLookups {
		t.Fatalf("sampled tuner should see fewer lookups")
	}
	// The miniature tuner's chosen threshold, evaluated at full scale, must
	// achieve a gain close to the oracle's best (the paper's Table 2 shows
	// modest degradation at 0.1% sampling; we allow half at 10% sampling on
	// this much smaller workload).
	base := ReplayBaseline(eval, l, cacheSize, nil)
	evalAt := func(th uint32) float64 {
		res := Replay(eval, Config{Layout: l, CacheVectors: cacheSize,
			Policy: cache.ThresholdAdmit{Counts: counts, Threshold: th}})
		return EffectiveBandwidthIncrease(res, base)
	}
	oracleGain := evalAt(oracle.Threshold)
	miniGain := evalAt(mini.Threshold)
	if oracleGain > 0 && miniGain < oracleGain*0.5 {
		t.Fatalf("miniature-cache threshold %d achieves %.3f, oracle threshold %d achieves %.3f",
			mini.Threshold, miniGain, oracle.Threshold, oracleGain)
	}
}

// TestSampledTraceReplaysLikeTheFilter: the tuner replays the block-sampled
// trace it builds once with no Filter, where it used to replay the whole trace
// through the block filter. Every policy it replays must measure the same
// either way, field for field: the baseline, each prefetch threshold ungated,
// each demand threshold with prefetching off, and each pair of the two.
func TestSampledTraceReplaysLikeTheFilter(t *testing.T) {
	tr := testTrace(t, 8192, 1500, 0.9, 21)
	train, eval := tr.Split(0.5)
	l := shpLayout(t, train)
	counts := train.AccessCounts()
	const cacheVectors = 1200
	var policies []cache.AdmissionPolicy
	policies = append(policies, cache.NoPrefetch{})
	demands := DemandThresholds(counts, cacheVectors)
	for _, d := range demands {
		policies = append(policies, cache.ThresholdAdmit{Counts: counts, Threshold: DisablePrefetch, DemandThreshold: d})
	}
	for _, th := range AdaptiveThresholds(counts) {
		policies = append(policies, cache.ThresholdAdmit{Counts: counts, Threshold: th})
		for _, d := range demands {
			policies = append(policies, cache.ThresholdAdmit{Counts: counts, Threshold: th, DemandThreshold: d})
		}
	}
	policies = append(policies, cache.NewPinnedAdmit(cache.NewThresholdAdmit(counts, 3, 2), cache.HottestIDs(counts, cacheVectors, nil)))
	for _, rate := range []float64{0.05, 0.2, 1} {
		blockFilter := mrc.SampleFilter(rate)
		filter := func(id uint32) bool { return blockFilter(uint32(l.BlockOf(id))) }
		mini := sampleBlocks(eval, l, sampledBlocks(l, rate))
		miniCache := max(int(cacheVectors*rate), 1)
		for _, q := range mini.Queries {
			if len(q) == 0 {
				t.Fatalf("rate %g: the sampled trace keeps an empty query", rate)
			}
		}
		for _, p := range policies {
			want := Replay(eval, Config{Layout: l, CacheVectors: miniCache, Policy: p, Filter: filter})
			got := Replay(mini, Config{Layout: l, CacheVectors: miniCache, Policy: p})
			if got != want {
				t.Fatalf("rate %g, %+v: the sampled trace replays to\n%+v\nthe filtered one to\n%+v", rate, p, got, want)
			}
			if want.Lookups == 0 || want.BlockReads == 0 {
				t.Fatalf("rate %g: the sample is empty: %+v", rate, want)
			}
		}
		t.Logf("rate %g: %d of %d queries, %d policies", rate, len(mini.Queries), len(eval.Queries), len(policies))
	}
}

// TestDemandThresholds: the candidates are one more than the training count
// of the id ranked 0.5x, 1x and 2x the cache size, without repeats, and a
// rank beyond the table is its coldest id.
func TestDemandThresholds(t *testing.T) {
	counts := []uint32{7, 0, 50, 3, 3, 20, 0, 9} // descending: 50 20 9 7 3 3 0 0
	for _, tc := range []struct {
		cache int
		want  []uint32
	}{
		{2, []uint32{21, 10, 4}}, // ranks 1, 2, 4
		{4, []uint32{10, 4, 1}},  // ranks 2, 4, 8 (clamped to 7)
		{8, []uint32{4, 1}},      // ranks 4, 8, 16: the last two are the same id
	} {
		if got := DemandThresholds(counts, tc.cache); !slices.Equal(got, tc.want) {
			t.Errorf("cache of %d: candidates %v, want %v", tc.cache, got, tc.want)
		}
	}
	if got := DemandThresholds(nil, 4); got != nil {
		t.Errorf("no counts: candidates %v, want none", got)
	}
}

// scanTrace is a hot set of `hot` ids read three at a time plus a scan that
// touches two fresh ids per query, once each, over an identity layout where
// every hot id has a block to itself: nothing a block read brings along is
// worth keeping, and every scan fill at the MRU end pushes a hot id out.
func scanTrace(vectors, hot, queries int, seed int64) *trace.Trace {
	tr := &trace.Trace{TableName: "scan", NumVectors: vectors}
	rng := rand.New(rand.NewSource(seed))
	cold := uint32(0)
	for q := 0; q < queries; q++ {
		query := trace.Query{uint32(rng.Intn(hot)) * 32, uint32(rng.Intn(hot)) * 32, uint32(rng.Intn(hot)) * 32}
		for k := 0; k < 2; k++ {
			cold++
			if cold%32 == 0 {
				cold++
			}
			query = append(query, cold%uint32(vectors))
		}
		tr.Queries = append(tr.Queries, query)
	}
	return tr
}

// TestTuneThresholdFindsTheDemandGate: on a hot set under a one-touch scan
// the tuner turns prefetching off and the gate on, predicts exactly what a
// replay of that pair measures, and reports the gate's share of the gain —
// all of it, prefetching earning none.
func TestTuneThresholdFindsTheDemandGate(t *testing.T) {
	tr := scanTrace(2048, 64, 900, 1)
	l := layout.Identity(tr.NumVectors, 32)
	counts := tr.AccessCounts()
	choice, err := TuneThreshold(tr, TunerConfig{Layout: l, Counts: counts, CacheVectors: 96, SamplingRate: 1, Thresholds: []uint32{0}})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Threshold != DisablePrefetch || choice.DemandThreshold == 0 {
		t.Fatalf("chose prefetch threshold %d, demand threshold %d; want prefetching off and a gate", choice.Threshold, choice.DemandThreshold)
	}
	if choice.NoPrefetchDemandThreshold != choice.DemandThreshold || choice.NoPrefetch != choice.Predicted {
		t.Fatalf("with prefetching off the chosen pair is the prefetch-free one: %+v", choice)
	}
	if choice.MiniatureGain <= 0.2 || choice.PrefetchGain != 0 {
		t.Fatalf("gain %.3f, of which prefetching %.3f; want the gate to earn over 20%% and prefetching nothing", choice.MiniatureGain, choice.PrefetchGain)
	}
	full := Replay(tr, Config{Layout: l, CacheVectors: 96,
		Policy: cache.ThresholdAdmit{Counts: counts, Threshold: choice.Threshold, DemandThreshold: choice.DemandThreshold}})
	if got := predictionOf(full); got != choice.Predicted {
		t.Fatalf("predicted %+v, the pair replays to %+v", choice.Predicted, got)
	}
	plain := ReplayBaseline(tr, l, 96, nil)
	if got := EffectiveBandwidthIncrease(full, plain); got != choice.MiniatureGain {
		t.Fatalf("MiniatureGain %.4f, the pair's gain over the plain replay %.4f", choice.MiniatureGain, got)
	}
}

// TestTuneThresholdKeepsNoGateWhereItDoesNotHelp: every id is read exactly
// twice, 50 other ids apart, and training counted them all alike, so the one
// candidate gate puts every fill on probation. Plain LRU serves every second
// read from a 200-vector cache; on probation the promoted, never-read-again
// ids fill the upper segments and the second read comes too late. The choice
// must then be exactly what the prefetch sweep alone decides (here over one
// threshold no count passes, so block neighbours do not blur the picture) —
// and a cache that holds the whole table must not be offered a gate at all.
func TestTuneThresholdKeepsNoGateWhereItDoesNotHelp(t *testing.T) {
	tr := &trace.Trace{TableName: "twice", NumVectors: 4096}
	for i := uint32(0); i < 3000; i++ {
		tr.Queries = append(tr.Queries, trace.Query{i})
		if i >= 50 {
			tr.Queries = append(tr.Queries, trace.Query{i - 50})
		}
	}
	l := layout.Random(tr.NumVectors, 32, 1)
	uniform := make([]uint32, tr.NumVectors)
	for i := range uniform {
		uniform[i] = 2
	}
	gated := Replay(tr, Config{Layout: l, CacheVectors: 200, Policy: cache.ThresholdAdmit{Counts: uniform, Threshold: DisablePrefetch, DemandThreshold: 3}})
	if plain := ReplayBaseline(tr, l, 200, nil); gated.BlockReads <= plain.BlockReads {
		t.Fatalf("the trace was built so the gate loses: %d block reads gated, %d plain", gated.BlockReads, plain.BlockReads)
	}
	if got := DemandThresholds(uniform, 200); !slices.Equal(got, []uint32{3}) {
		t.Fatalf("candidate gates %v, want [3]", got)
	}
	for _, cacheVectors := range []int{200, tr.NumVectors} {
		choice, err := TuneThreshold(tr, TunerConfig{Layout: l, Counts: uniform, CacheVectors: cacheVectors, SamplingRate: 1, Thresholds: []uint32{5}})
		if err != nil {
			t.Fatal(err)
		}
		if choice.DemandThreshold != 0 || choice.NoPrefetchDemandThreshold != 0 {
			t.Fatalf("cache of %d: demand thresholds %d/%d, want none", cacheVectors, choice.DemandThreshold, choice.NoPrefetchDemandThreshold)
		}
		if choice.Pinned {
			t.Fatalf("cache of %d: pinned ids every one of which training saw equally often", cacheVectors)
		}
		base := ReplayBaseline(tr, l, cacheVectors, nil)
		best, bestGain := DisablePrefetch, 0.0
		for _, th := range []uint32{5} {
			res := Replay(tr, Config{Layout: l, CacheVectors: cacheVectors, Policy: cache.ThresholdAdmit{Counts: uniform, Threshold: th}})
			if g := EffectiveBandwidthIncrease(res, base); g != choice.PerThreshold[th] {
				t.Fatalf("cache of %d: PerThreshold[%d] = %v, replay says %v", cacheVectors, th, choice.PerThreshold[th], g)
			} else if g >= 0 && (best == DisablePrefetch || g > bestGain) {
				best, bestGain = th, g
			}
		}
		if choice.Threshold != best || choice.MiniatureGain != bestGain || choice.PrefetchGain != bestGain {
			t.Fatalf("cache of %d: chose threshold %d at gain %v (prefetch %v), the ungated sweep says %d at %v",
				cacheVectors, choice.Threshold, choice.MiniatureGain, choice.PrefetchGain, best, bestGain)
		}
	}
}

func TestDefaultThresholds(t *testing.T) {
	th := DefaultThresholds()
	if len(th) == 0 || th[0] != 0 {
		t.Fatalf("unexpected default thresholds %v", th)
	}
}

// TestReplayUnlimitedCacheKeepsEverything: CacheVectors 0 is a cache that
// never evicts, wherever the policy fills: every vector filled on probation
// in a first pass hits in the second.
func TestReplayUnlimitedCacheKeepsEverything(t *testing.T) {
	tr := &trace.Trace{TableName: "t", NumVectors: 1024}
	for pass := 0; pass < 2; pass++ {
		for id := uint32(0); id < 1024; id++ {
			tr.Queries = append(tr.Queries, trace.Query{id})
		}
	}
	cold := cache.ThresholdAdmit{Counts: make([]uint32, 1024), Threshold: DisablePrefetch, DemandThreshold: 1}
	got := Replay(tr, Config{Layout: layout.Identity(1024, 32), Policy: cold})
	if got.Misses != 1024 || got.Hits != 1024 || got.ProbationFills != 1024 {
		t.Fatalf("two passes over 1,024 vectors: %d misses, %d hits, %d probation fills; want 1,024 each", got.Misses, got.Hits, got.ProbationFills)
	}
}

// benchTrace is BenchmarkReplay's trace: 2,000 queries of 24 lookups on
// average over 16,384 vectors.
func benchTrace() *trace.Trace {
	p := trace.Profile{Name: "b", NumVectors: 16384, AvgLookups: 24, CompulsoryMissFrac: 0.08,
		Locality: 0.9, CommunitySize: 64, ReuseSkew: 3, Seed: 1}
	return trace.GenerateTable(p, 2000)
}

// TestReplayAllocsFlatInTrace: a replay allocates its cache, its per-id
// stamps and a few scratch slices that grow to the largest query, and
// nothing per query, hit or fill — the tuner runs a dozen replays per table.
func TestReplayAllocsFlatInTrace(t *testing.T) {
	tr := benchTrace()
	l := layout.Identity(tr.NumVectors, 32)
	allocs := func(queries int) float64 {
		return testing.AllocsPerRun(1, func() {
			Replay(tr.Prefix(queries), Config{Layout: l, CacheVectors: 1000, Policy: cache.AlwaysAdmit{}})
		})
	}
	short, long := allocs(100), allocs(200)
	t.Logf("allocations per replay: %.0f over 100 queries, %.0f over 200", short, long)
	if short > 40 || long > short+2 || long < short-2 {
		t.Fatalf("replay allocates %.0f times over 100 queries and %.0f over 200; want <= 40 and flat within 2", short, long)
	}
}

func BenchmarkReplay(b *testing.B) {
	tr := benchTrace()
	l := layout.Identity(tr.NumVectors, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Replay(tr, Config{Layout: l, CacheVectors: 1000, Policy: cache.AlwaysAdmit{}})
	}
}

// TestReplayKeepsThePinnedIDs: under the pin verdict a pinned id, once read,
// is never evicted, so the second pass over the same queries hits every
// lookup of a pinned id and misses only others. A full-table cache is never
// offered the pin.
func TestReplayKeepsThePinnedIDs(t *testing.T) {
	tr := benchTrace().Prefix(400)
	l := layout.Identity(tr.NumVectors, 32)
	counts := tr.AccessCounts()
	pair := cache.NewThresholdAdmit(counts, 2, 0)
	p := cache.NewPinnedAdmit(pair, cache.HottestIDs(counts, 500, nil))
	twice := &trace.Trace{TableName: tr.TableName, NumVectors: tr.NumVectors, Queries: append(slices.Clone(tr.Queries), tr.Queries...)}
	once := Replay(tr, Config{Layout: l, CacheVectors: 500, Policy: p})
	both := Replay(twice, Config{Layout: l, CacheVectors: 500, Policy: p})
	var pinnedLookups int64
	for _, q := range tr.Queries {
		for _, id := range q {
			if p.Pins(id) {
				pinnedLookups++
			}
		}
	}
	if misses := both.Misses - once.Misses; misses > once.Lookups-pinnedLookups || once.PrefetchesAdmitted == 0 {
		t.Fatalf("second pass missed %d times, more than the %d lookups of unpinned ids; %d prefetches admitted",
			misses, once.Lookups-pinnedLookups, once.PrefetchesAdmitted)
	}
	choice, err := TuneThreshold(tr, TunerConfig{Layout: l, Counts: counts, CacheVectors: tr.NumVectors, SamplingRate: 1})
	if err != nil || choice.Pinned {
		t.Fatalf("a full-table cache was pinned (err %v)", err)
	}
}

// TestTuneThresholdPinsWhereItReadsFewer: on a skewed trace with a small
// cache the tuner pins the hottest ids on top of its pair, because that
// replays to fewer block reads than the pair alone, and its prediction and
// gain are the pinned pair's replay from the cache the store serves it
// from: warm, its pinned ids filled in warm order, which reads no more.
func TestTuneThresholdPinsWhereItReadsFewer(t *testing.T) {
	tr := benchTrace().Prefix(400)
	l := layout.Identity(tr.NumVectors, 32)
	counts := tr.AccessCounts()
	choice, err := TuneThreshold(tr, TunerConfig{Layout: l, Counts: counts, CacheVectors: 300, SamplingRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	pairPolicy := cache.NewThresholdAdmit(counts, choice.Threshold, choice.DemandThreshold)
	pair := Replay(tr, Config{Layout: l, CacheVectors: 300, Policy: pairPolicy})
	pinPolicy := cache.NewPinnedAdmit(pairPolicy, cache.HottestIDs(counts, 300, nil))
	pinned := Replay(tr, Config{Layout: l, CacheVectors: 300, Policy: pinPolicy})
	if !choice.Pinned || pinned.BlockReads >= pair.BlockReads {
		t.Fatalf("pinned %v: the pinned pair reads %d blocks, the pair %d", choice.Pinned, pinned.BlockReads, pair.BlockReads)
	}
	warm := Replay(tr, Config{Layout: l, CacheVectors: 300, Policy: pinPolicy, Warm: pinPolicy.WarmOrder()})
	if warm.BlockReads > pinned.BlockReads {
		t.Fatalf("the warm pinned pair reads %d blocks, from an empty cache %d", warm.BlockReads, pinned.BlockReads)
	}
	if got := predictionOf(warm); got != choice.Predicted {
		t.Fatalf("predicted %+v, the warm pinned pair replays to %+v", choice.Predicted, got)
	}
	if g := EffectiveBandwidthIncrease(warm, ReplayBaseline(tr, l, 300, nil)); g != choice.MiniatureGain {
		t.Fatalf("MiniatureGain %.4f, the pinned pair's gain over the plain replay %.4f", choice.MiniatureGain, g)
	}
}
