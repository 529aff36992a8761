// Package sim replays embedding lookup traces against a physical layout, a
// DRAM cache and an admission policy, and reports the metric the whole paper
// is built around: the number of 4 KB NVM block reads needed to serve the
// trace, expressed as an *effective bandwidth increase* over the same replay
// with prefetching off.
//
// The replay is the store's batch algorithm (core's serveBatch), step for
// step, so what it predicts is what the store serves:
//
//   - One trace query is one batch (Store.LookupBatch; a one-id query is
//     Store.Lookup). Every id counts as a lookup and reaches the policy's
//     OnAccess; each unique id probes the cache once and repeats inherit its
//     hit/miss class.
//   - The batch's misses are grouped by block and cost one block read per
//     distinct block — same-batch co-location is free with or without
//     prefetching. Per block, in ascending block order: the requested ids
//     enter in batch order at the policy's demand position (the MRU end
//     unless the policy gates cold ids to probation), then the block's other
//     members, in slot order, are offered to the admission policy and the
//     admitted non-resident ones enter at the policy's position.
//   - The cache is the store's own: a one-shard vcache without payloads,
//     driven by the three calls serveBatch makes — GetBatch for the probe of
//     the query's unique ids (a hit promotes and reports a first hit on a
//     prefetched entry) and AddAtGuard for a demand fill and for a prefetch
//     fill, which refuses an id already resident. Under a
//     cache.PinnedAdmit the cache is built holding its set as the
//     store's is (vcache's Options.Pinned), at a capacity of the set's size.
//   - A replay starts from an empty cache. A store starts warm after a
//     layout install: the install fills a pin verdict's ids from the image
//     it wrote, unrequested at the cold end of the list (core's
//     warmPinned), so its first request of each is a hit where the replay
//     reads a block. Against a store with one cache shard (Config.CacheShards:
//     1) whose cache starts empty too, serving the same queries one at a
//     time, BlockReads, Hits, Misses, ProbationFills, PrefetchesAdmitted and
//     PrefetchHits are equal through every read API (core's
//     TestReplayIsTheStore holds the two together); a warm store reads no
//     more blocks (TestRoutedHalfReadsNoMoreThanReplay). A store with more
//     shards splits the capacity into per-shard LRU queues; that split is
//     the only other difference between simulated and served counters.
//
// The paper's own baseline — one block read per missed vector, no
// prefetching — is the no-prefetch replay's Misses (see ReplayBaseline).
//
// The same replay engine, fed with a spatially sampled subset of the
// vectors and a proportionally scaled-down cache, implements the
// "miniature caches" of §4.3.3 that pick the per-table admission thresholds.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"bandana/internal/cache"
	"bandana/internal/layout"
	"bandana/internal/mrc"
	"bandana/internal/trace"
	"bandana/internal/vcache"
)

// Config describes one simulation run.
type Config struct {
	// Layout maps vectors to NVM blocks.
	Layout *layout.Layout
	// CacheVectors is the DRAM cache capacity in vectors; 0 means
	// unlimited (a cache as large as the layout, which never evicts).
	CacheVectors int
	// Policy decides admission of prefetched vectors and the position
	// requested ones fill at. Nil means cache.NoPrefetch (prefetching off,
	// every fill at the MRU end).
	Policy cache.AdmissionPolicy
	// Filter, when non-nil, restricts the simulation to the sampled subset
	// of vectors for which it returns true (miniature caches). Lookups to
	// unsampled vectors are skipped entirely and prefetch candidates that
	// are not sampled are ignored.
	Filter func(id uint32) bool
	// Warm, when non-nil, is filled into the cache before the first query,
	// in order, as a layout install fills a store's pinned set: each id
	// unrequested at cache.ProbationPosition, into room the cache has free
	// (vcache's Warm). nil: the replay starts from an empty cache.
	Warm []uint32
}

// Result summarises one simulation run.
type Result struct {
	Policy  string
	Lookups int64
	Hits    int64
	// Misses counts lookups that were not served from the cache. With
	// prefetching off it is also the paper's baseline cost: one block read
	// per missed vector.
	Misses int64
	// BlockReads counts distinct blocks read per query, summed over the
	// trace — what the store's batch path issues.
	BlockReads int64
	// ProbationFills counts requested vectors cached below the MRU end on
	// the policy's verdict.
	ProbationFills     int64
	PrefetchesAdmitted int64
	PrefetchHits       int64
	HitRate            float64
	// VectorsPerBlockRead is the average number of lookups served per 4 KB
	// block read; it is a direct measure of effective bandwidth.
	VectorsPerBlockRead float64
}

// missRef is one unique id of the current query that missed the cache.
type missRef struct {
	id    uint32
	block int
}

// Replay runs the simulation over the trace and returns its result. See the
// package comment for the algorithm and its equivalence with the store.
func Replay(tr *trace.Trace, cfg Config) Result {
	policy := cfg.Policy
	if policy == nil {
		policy = cache.NoPrefetch{}
	}
	l := cfg.Layout
	capacity := cfg.CacheVectors
	if capacity <= 0 {
		capacity = l.NumVectors()
	}
	opts := vcache.Options{Capacity: capacity}
	if p, ok := policy.(cache.PinnedAdmit); ok {
		opts.Pinned = p.Set
	}
	c := vcache.New(opts)
	c.Warm(cfg.Warm, func(uint32) []byte { return nil }, cache.ProbationPosition, nil, 0)
	res := Result{Policy: policy.Name()}

	// Per-id state, indexed by id so a query costs no map or set allocation.
	// seen[id] is 2*q once id has occurred in query number q (1-based), and
	// 2*q+1 once its probe missed, anything smaller when id has not occurred
	// in the current query.
	seen := make([]uint32, l.NumVectors())

	longest := 0
	for _, q := range tr.Queries {
		longest = max(longest, len(q))
	}
	kept, uniq := make([]uint32, 0, longest), make([]uint32, 0, longest)
	missed := make([]missRef, 0, longest)
	var members []uint32
	var missStamp uint32
	onMiss := func(i int) []byte {
		id := uniq[i]
		seen[id] = missStamp
		missed = append(missed, missRef{id: id, block: l.BlockOf(id)})
		return nil
	}
	for qi, q := range tr.Queries {
		seenStamp := 2 * uint32(qi+1)
		missStamp = seenStamp + 1

		// Pass 1: count, probe each unique id once, collect the misses.
		kept, uniq, missed = kept[:0], uniq[:0], missed[:0]
		for _, id := range q {
			if cfg.Filter != nil && !cfg.Filter(id) {
				continue
			}
			kept = append(kept, id)
			policy.OnAccess(id)
			if seen[id] != seenStamp {
				seen[id] = seenStamp
				uniq = append(uniq, id)
			}
		}
		res.PrefetchHits += int64(c.GetBatch(uniq, nil, onMiss))
		res.Lookups += int64(len(kept))
		for _, id := range kept {
			if seen[id] == missStamp {
				res.Misses++
			} else {
				res.Hits++
			}
		}

		// Pass 2: one read per distinct missed block, ascending; a block's
		// requested ids fill in batch order (the sort is stable).
		slices.SortStableFunc(missed, func(a, b missRef) int { return cmp.Compare(a.block, b.block) })
		for lo := 0; lo < len(missed); {
			block := missed[lo].block
			res.BlockReads++
			for ; lo < len(missed) && missed[lo].block == block; lo++ {
				pos := policy.DemandPosition(missed[lo].id)
				if c.AddAtGuard(missed[lo].id, nil, pos, false, nil, 0) && pos > 0 {
					res.ProbationFills++
				}
			}
			members = l.BlockMembers(block, members[:0])
			for _, other := range members {
				admit, pos := policy.AdmitPrefetch(other)
				if !admit || seen[other] == missStamp {
					continue // rejected, or one of this read's requested ids
				}
				if cfg.Filter != nil && !cfg.Filter(other) {
					continue
				}
				if c.AddAtGuard(other, nil, pos, true, nil, 0) {
					res.PrefetchesAdmitted++
				}
			}
		}
	}
	if res.Lookups > 0 {
		res.HitRate = float64(res.Hits) / float64(res.Lookups)
	}
	if res.BlockReads > 0 {
		res.VectorsPerBlockRead = float64(res.Lookups) / float64(res.BlockReads)
	}
	return res
}

// ReplayBaseline replays with prefetching off — the store before Train, and
// what a tuner verdict of DisablePrefetch must be compared with — at the
// same layout, cache size and filter. Its Misses
// is the paper's baseline: one block read per missed vector.
func ReplayBaseline(tr *trace.Trace, l *layout.Layout, cacheVectors int, filter func(uint32) bool) Result {
	return Replay(tr, Config{Layout: l, CacheVectors: cacheVectors, Policy: cache.NoPrefetch{}, Filter: filter})
}

// EffectiveBandwidthIncrease returns the relative reduction in block reads
// of `policy` over `baseline`: baseline.BlockReads/policy.BlockReads - 1.
// Positive values mean the policy reads fewer blocks for the same workload
// (higher effective bandwidth); negative values mean it reads more.
func EffectiveBandwidthIncrease(policy, baseline Result) float64 {
	if policy.BlockReads == 0 || baseline.BlockReads == 0 {
		return 0
	}
	return float64(baseline.BlockReads)/float64(policy.BlockReads) - 1
}

// Comparison bundles a policy run with its baseline and derived metrics.
type Comparison struct {
	Policy   Result
	Baseline Result
	// EffectiveBandwidthIncrease is the headline metric (e.g. +1.3 = +130%).
	EffectiveBandwidthIncrease float64
}

// Compare runs both the configured policy and the baseline (same cache
// size, no prefetching) and returns the comparison.
func Compare(tr *trace.Trace, cfg Config) Comparison {
	policyRes := Replay(tr, cfg)
	baseRes := ReplayBaseline(tr, cfg.Layout, cfg.CacheVectors, cfg.Filter)
	return Comparison{
		Policy:                     policyRes,
		Baseline:                   baseRes,
		EffectiveBandwidthIncrease: EffectiveBandwidthIncrease(policyRes, baseRes),
	}
}

// FanoutGain computes the effective bandwidth increase of a layout under the
// paper's §4.2 spatial-locality model (Figures 6, 8 and 9): the baseline
// policy issues one 4 KB block read per vector lookup, while the partitioned
// system reads each distinct block only once per query — vectors co-located
// with an already-read vector of the same query are served from the
// prefetched block. The returned value is
//
//	totalLookups / totalFanout - 1,
//
// where fanout is the number of distinct blocks a query touches (Equation 3
// in the paper). This isolates the benefit of physical placement from the
// cross-query caching studied in §4.3.
func FanoutGain(tr *trace.Trace, l *layout.Layout) float64 {
	var lookups, fanout int64
	for _, q := range tr.Queries {
		lookups += int64(len(q))
		fanout += int64(l.Fanout(q))
	}
	if fanout == 0 {
		return 0
	}
	return float64(lookups)/float64(fanout) - 1
}

// TunerConfig configures the miniature-cache threshold search for one table.
type TunerConfig struct {
	Layout *layout.Layout
	// Counts are the per-vector access counts from the SHP training run.
	Counts []uint32
	// CacheVectors is the full cache size being tuned for.
	CacheVectors int
	// SamplingRate is the miniature cache scale (the paper finds 0.001
	// sufficient). A rate >= 1 simulates the full cache (the oracle of
	// Figure 14).
	SamplingRate float64
	// Thresholds are the candidate admission thresholds; defaults to
	// AdaptiveThresholds(Counts).
	Thresholds []uint32
}

// Prediction is what a miniature cache expects the store to measure: the
// live counterparts are hits/lookups and lookups/block reads of the table's
// serving counters.
type Prediction struct {
	HitRate             float64
	LookupsPerBlockRead float64
}

func predictionOf(r Result) Prediction {
	return Prediction{HitRate: r.HitRate, LookupsPerBlockRead: r.VectorsPerBlockRead}
}

// ThresholdChoice is the outcome of a miniature-cache tuning run: the two
// thresholds of one cache.ThresholdAdmit.
type ThresholdChoice struct {
	// Threshold is the prefetch-admission threshold (DisablePrefetch: none
	// beat not prefetching) and DemandThreshold the demand threshold found
	// to go with it (0: no gate beat filling every requested vector at MRU).
	Threshold       uint32
	DemandThreshold uint32
	// Pinned is the third verdict: pinning the table's hottest ids on top
	// of the pair above (cache.PinnedAdmit over cache.HottestIDs at the
	// cache's size) read strictly fewer blocks in the miniature than the
	// pair alone.
	Pinned bool
	// MiniatureGain is the effective bandwidth increase observed in the
	// miniature simulation at the chosen verdict (the pair, or the pinned
	// pair from a warm cache), over the plain replay: no prefetching, every
	// fill at the MRU end.
	// PrefetchGain is the share of the pair's gain prefetching earns — the
	// pair over the best prefetch-free one (NoPrefetch below); 0 when the
	// pair does not prefetch.
	MiniatureGain float64
	PrefetchGain  float64
	// PerThreshold records the miniature gain of every candidate prefetch
	// threshold, ungated.
	PerThreshold map[uint32]float64
	// SampledLookups is the number of lookups that survived sampling.
	SampledLookups int64
	// Predicted is the miniature simulation's outcome at the chosen verdict.
	// NoPrefetch is its outcome with prefetching off and the demand
	// threshold that serves best then, NoPrefetchDemandThreshold (the two
	// predictions are equal when Threshold is DisablePrefetch). A caller that
	// overrules the choice and serves prefetch-free should install that
	// demand threshold and expect NoPrefetch.
	Predicted                 Prediction
	NoPrefetch                Prediction
	NoPrefetchDemandThreshold uint32
}

// DefaultThresholds are the candidate admission thresholds explored by the
// tuner, matching the range the paper sweeps in Figure 12 and Table 2.
func DefaultThresholds() []uint32 { return []uint32{0, 5, 10, 15, 20} }

// AdaptiveThresholds derives candidate admission thresholds from the
// distribution of training-time access counts: 0 plus the 50th, 75th, 90th
// and 95th percentiles of the non-zero counts. At the paper's production
// scale these land close to the fixed {5,10,15,20} sweep of Figure 12; at
// smaller scales they stay meaningful instead of filtering out everything.
func AdaptiveThresholds(counts []uint32) []uint32 {
	nonzero := make([]uint32, 0, len(counts))
	for _, c := range counts {
		if c > 0 {
			nonzero = append(nonzero, c)
		}
	}
	if len(nonzero) == 0 {
		return DefaultThresholds()
	}
	sort.Slice(nonzero, func(i, j int) bool { return nonzero[i] < nonzero[j] })
	pick := func(q float64) uint32 {
		idx := int(q * float64(len(nonzero)-1))
		return nonzero[idx]
	}
	cand := []uint32{0, pick(0.50), pick(0.75), pick(0.90), pick(0.95)}
	// Deduplicate while preserving order.
	out := cand[:0]
	seen := make(map[uint32]bool, len(cand))
	for _, c := range cand {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// DisablePrefetch is the threshold value the tuner returns when every
// candidate threshold performs worse than not prefetching at all: no access
// count can exceed it, so prefetching is effectively off.
const DisablePrefetch = ^uint32(0)

// DemandThresholds derives the candidate demand thresholds for a cache of
// cacheVectors from the training-time access counts: one more than the count
// of the id ranked 0.5x, 1x and 2x the cache size by count, so a cache that
// could hold exactly the hottest ids of training gates the ones beyond them,
// with one looser and one stricter alternative.
func DemandThresholds(counts []uint32, cacheVectors int) []uint32 {
	if len(counts) == 0 {
		return nil
	}
	desc := slices.Clone(counts)
	slices.SortFunc(desc, func(a, b uint32) int { return cmp.Compare(b, a) })
	var out []uint32
	for _, rank := range []int{cacheVectors / 2, cacheVectors, 2 * cacheVectors} {
		t := desc[min(rank, len(desc)-1)] + 1
		if !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	return out
}

// minMiniCacheVectors is the smallest miniature cache the tuner will
// simulate; below this the simulation is too small to rank thresholds, so
// the sampling rate is raised (up to running the full cache). A probation
// entry lives in the last sixteenth of the queue, which at 64 vectors is four
// entries. 128 reads the fewest blocks on the benchmark's held-out cold_bwp
// traffic, with admitted prefetches entering mid-queue: at seeds 1 and
// 501–504 a 64-vector floor reads 0.17–0.39% more per thousand lookups than
// 128, 256 reads 1.65–1.98% more and 512 0.90–1.35% more (seed 1: 363.32,
// 362.33, 368.32 and 365.61), so a larger floor buys no reads. It also costs
// Train time: in October 2026 (a 2-vCPU Xeon VM, medians of 9 Trains of the
// four tables) Train took 0.73, 0.88, 1.34 and 2.37 s at floors 64, 128, 256
// and 512.
const minMiniCacheVectors = 128

// sampledBlocks reports, per block of l, whether mrc.SampleFilter(rate)
// selects it for the miniature cache.
func sampledBlocks(l *layout.Layout, rate float64) []bool {
	blockFilter := mrc.SampleFilter(rate)
	sampled := make([]bool, l.NumBlocks())
	for b := range sampled {
		sampled[b] = blockFilter(uint32(b))
	}
	return sampled
}

// sampleBlocks is the miniature cache's trace: tr restricted to the vectors
// whose block under l is sampled, with the queries this leaves empty
// dropped. The tuner samples whole *blocks* rather than
// individual vectors, which keeps the intra-block composition — and therefore
// the prefetch dynamics the thresholds are being tuned for — intact while
// shrinking the lookup stream and the cache by the sampling rate.
//
// Replaying the result with no Filter is exactly replaying tr with the
// equivalent per-vector Filter, so the tuner filters once, not once per
// candidate. Pass 1 sees the same ids in the same order, and an empty query
// does nothing there. Pass 2's filter never rejects a candidate: a block read
// is a sampled id's block, so every member of it is sampled too.
func sampleBlocks(tr *trace.Trace, l *layout.Layout, sampled []bool) *trace.Trace {
	var ids []uint32
	var ends []int
	for _, q := range tr.Queries {
		start := len(ids)
		for _, id := range q {
			if sampled[l.BlockOf(id)] {
				ids = append(ids, id)
			}
		}
		if len(ids) > start {
			ends = append(ends, len(ids))
		}
	}
	out := &trace.Trace{TableName: tr.TableName, NumVectors: tr.NumVectors, Queries: make([]trace.Query, len(ends))}
	start := 0
	for i, end := range ends {
		out.Queries[i] = ids[start:end:end]
		start = end
	}
	return out
}

// tuned is one replayed candidate of the tuner.
type tuned struct {
	threshold, demand uint32
	res               Result
}

// TuneThreshold picks the two thresholds of the deployed cache.ThresholdAdmit
// (cache.NewThresholdAdmit: admitted prefetches enter at
// cache.PrefetchPosition) by miniature-cache simulation, in two steps. First
// one replay per candidate prefetch threshold, ungated: the one with the
// highest effective bandwidth increase wins, or DisablePrefetch if every
// candidate loses to the no-prefetch baseline. Then one replay per candidate
// demand threshold (DemandThresholds) at that winner and one with prefetching
// off; a gate is kept only where it reads strictly fewer blocks than no gate,
// so a table it does not help is tuned exactly as if the gate did not exist.
// Last, one replay of the pin verdict: the chosen pair, in a miniature cache
// that never evicts its capacity's worth of the hottest sampled ids. It is
// kept only where it reads strictly fewer blocks than the pair alone, and
// then replayed once more from the cache the store serves it from, its
// pinned ids filled in warm order (Config.Warm), for the forecast
// (Predicted, MiniatureGain). A cache that holds the whole table evicts
// nothing and skips the last two steps.
func TuneThreshold(tr *trace.Trace, cfg TunerConfig) (ThresholdChoice, error) {
	if cfg.Layout == nil {
		return ThresholdChoice{}, fmt.Errorf("sim: tuner requires a layout")
	}
	if cfg.CacheVectors <= 0 {
		return ThresholdChoice{}, fmt.Errorf("sim: tuner requires a finite cache size")
	}
	thresholds := cfg.Thresholds
	if len(thresholds) == 0 {
		thresholds = AdaptiveThresholds(cfg.Counts)
	}
	rate := cfg.SamplingRate
	if rate <= 0 {
		rate = 0.001
	}
	// Guard against degenerate miniature caches at small scale: raise the
	// sampling rate until the miniature cache holds at least
	// minMiniCacheVectors vectors (or becomes the full cache).
	if rate < 1 && float64(cfg.CacheVectors)*rate < minMiniCacheVectors {
		rate = float64(minMiniCacheVectors) / float64(cfg.CacheVectors)
		if rate > 1 {
			rate = 1
		}
	}
	miniTrace, miniCache := tr, cfg.CacheVectors
	var inMiniature func(id uint32) bool // nil: every id
	if rate < 1 {
		sampled := sampledBlocks(cfg.Layout, rate)
		miniTrace = sampleBlocks(tr, cfg.Layout, sampled)
		miniCache = max(int(float64(cfg.CacheVectors)*rate), 1)
		inMiniature = func(id uint32) bool { return sampled[cfg.Layout.BlockOf(id)] }
	}
	replayPolicy := func(policy cache.AdmissionPolicy) Result {
		return Replay(miniTrace, Config{Layout: cfg.Layout, CacheVectors: miniCache, Policy: policy})
	}
	replay := func(threshold, demand uint32) tuned {
		var policy cache.AdmissionPolicy = cache.NoPrefetch{}
		if threshold != DisablePrefetch || demand != 0 {
			policy = cache.NewThresholdAdmit(cfg.Counts, threshold, demand)
		}
		return tuned{threshold, demand, replayPolicy(policy)}
	}

	baseline := replay(DisablePrefetch, 0)
	choice := ThresholdChoice{
		PerThreshold:   make(map[uint32]float64, len(thresholds)),
		SampledLookups: baseline.res.Lookups,
	}
	off, on := baseline, baseline
	for i, t := range thresholds {
		cand := replay(t, 0)
		choice.PerThreshold[t] = EffectiveBandwidthIncrease(cand.res, baseline.res)
		if i == 0 || cand.res.BlockReads < on.res.BlockReads {
			on = cand
		}
	}
	if on.res.BlockReads > off.res.BlockReads {
		on = off
	}
	partial := cfg.CacheVectors < cfg.Layout.NumVectors()
	if partial {
		for _, d := range DemandThresholds(cfg.Counts, cfg.CacheVectors) {
			if cand := replay(DisablePrefetch, d); cand.res.BlockReads < off.res.BlockReads {
				off = cand
			}
			if on.threshold == DisablePrefetch {
				continue
			}
			if cand := replay(on.threshold, d); cand.res.BlockReads < on.res.BlockReads {
				on = cand
			}
		}
	}
	if on.res.BlockReads > off.res.BlockReads || on.threshold == DisablePrefetch {
		on = off
	}
	choice.Threshold, choice.DemandThreshold = on.threshold, on.demand
	chosen := on.res
	if partial {
		p := cache.NewPinnedAdmit(cache.NewThresholdAdmit(cfg.Counts, on.threshold, on.demand), cache.HottestIDs(cfg.Counts, miniCache, inMiniature))
		if pin := replayPolicy(p); pin.BlockReads < chosen.BlockReads {
			// The verdict is taken from an empty cache, like every other
			// step, but the store serves it warm: the install that
			// publishes it fills the pinned set first.
			choice.Pinned = true
			chosen = Replay(miniTrace, Config{Layout: cfg.Layout, CacheVectors: miniCache, Policy: p, Warm: p.WarmOrder()})
		}
	}
	choice.MiniatureGain = EffectiveBandwidthIncrease(chosen, baseline.res)
	choice.PrefetchGain = EffectiveBandwidthIncrease(on.res, off.res)
	choice.Predicted = predictionOf(chosen)
	choice.NoPrefetch, choice.NoPrefetchDemandThreshold = predictionOf(off.res), off.demand
	return choice, nil
}
