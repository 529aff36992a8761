package bandana

import (
	"bandana/internal/alloc"
	"bandana/internal/cache"
	"bandana/internal/kmeans"
	"bandana/internal/layout"
	"bandana/internal/mrc"
	"bandana/internal/shp"
	"bandana/internal/sim"
)

// This file exposes the analysis and tuning toolkit that powers the store:
// physical placement (SHP, K-means), hit-rate curves, cache simulation and
// DRAM allocation. Store.Train drives all of it automatically; these entry
// points exist for capacity planning, offline studies and the examples/
// programs.

// Layout maps vectors to physical NVM blocks.
type Layout = layout.Layout

// DefaultBlockVectors is the number of 128 B vectors per 4 KB NVM block.
const DefaultBlockVectors = layout.DefaultBlockVectors

// IdentityLayout places vectors in ID order.
func IdentityLayout(numVectors, blockVectors int) *Layout {
	return layout.Identity(numVectors, blockVectors)
}

// LayoutFromOrder builds a layout from a placement permutation.
func LayoutFromOrder(order []uint32, blockVectors int) (*Layout, error) {
	return layout.FromOrder(order, blockVectors)
}

// SHPOptions configures PartitionSHP.
type SHPOptions = shp.Options

// SHPResult is the outcome of PartitionSHP.
type SHPResult = shp.Result

// PartitionSHP partitions a table's vectors into NVM blocks by recursively
// bisecting the lookup hypergraph (Social Hash Partitioner), minimising the
// average number of blocks each query touches.
func PartitionSHP(numVectors int, queries []Query, opts SHPOptions) (*SHPResult, error) {
	qs := make([][]uint32, len(queries))
	for i, q := range queries {
		qs[i] = q
	}
	return shp.Partition(numVectors, qs, opts)
}

// KMeansOptions configures ClusterTable.
type KMeansOptions = kmeans.Options

// KMeansResult is the outcome of ClusterTable.
type KMeansResult = kmeans.Result

// ClusterTable clusters a table's embedding vectors by Euclidean distance
// (the semantic-partitioning baseline of the paper).
func ClusterTable(t *Table, opts KMeansOptions) (*KMeansResult, error) {
	return kmeans.Cluster(kmeans.TableDataset{Table: t}, opts)
}

// OrderByCluster turns a cluster assignment into a placement order (vectors
// grouped by cluster).
func OrderByCluster(assignments []int32) []uint32 { return kmeans.OrderByCluster(assignments) }

// HitRateCurve is the hit rate of an LRU cache as a function of its size.
type HitRateCurve = mrc.HRC

// HitRateCurveOf computes a table's hit-rate curve from a trace using exact
// Mattson stack distances (samplingRate 1) or SHARDS-style spatial sampling
// (samplingRate < 1).
func HitRateCurveOf(tr *Trace, samplingRate float64) *HitRateCurve {
	var flat []uint32
	for _, q := range tr.Queries {
		flat = append(flat, q...)
	}
	return mrc.SampledStackDistances(flat, samplingRate).HitRateCurve()
}

// TableDemand describes one table's appetite for DRAM when splitting a
// budget across tables.
type TableDemand = alloc.TableDemand

// AllocateOptions configures AllocateDRAM.
type AllocateOptions = alloc.Options

// AllocateResult is the outcome of AllocateDRAM.
type AllocateResult = alloc.Result

// AllocateDRAM splits a DRAM budget (in vectors) across tables by greedy
// marginal utility over their hit-rate curves.
func AllocateDRAM(demands []TableDemand, opts AllocateOptions) (*AllocateResult, error) {
	return alloc.Allocate(demands, opts)
}

// EvenSplitDRAM divides the budget equally across tables (baseline for
// capacity planning comparisons).
func EvenSplitDRAM(demands []TableDemand, totalVectors int) *AllocateResult {
	return alloc.EvenSplit(demands, totalVectors)
}

// AdmissionPolicy decides whether (and where in the eviction queue) a
// prefetched vector is cached, and where a requested one is. The same implementations drive both the
// trace simulator (SimulateCache) and the live serving path: install one on
// a running store with Store.SetAdmissionPolicy. Implementations must be
// safe for concurrent use.
type AdmissionPolicy = cache.AdmissionPolicy

// NewNoPrefetch returns the baseline policy that never admits prefetched
// vectors.
func NewNoPrefetch() AdmissionPolicy { return cache.NoPrefetch{} }

// NewAlwaysAdmit returns a policy that admits every prefetched vector at the
// given eviction-queue position (0 = most-recently-used end).
func NewAlwaysAdmit(position float64) AdmissionPolicy { return cache.AlwaysAdmit{Position: position} }

// NewShadowAdmission returns a policy that admits a prefetched vector only
// if it appears in a keys-only shadow cache of the true access stream.
func NewShadowAdmission(shadowVectors int, position float64) AdmissionPolicy {
	return cache.NewShadowAdmit(shadowVectors, position)
}

// NewThresholdAdmission returns the policy Bandana deploys, with its demand
// gate off: admit a prefetched vector only if its training-time access count
// exceeds the threshold. Store.Train tunes and installs it, both thresholds,
// automatically.
func NewThresholdAdmission(counts []uint32, threshold uint32) AdmissionPolicy {
	return cache.ThresholdAdmit{Counts: counts, Threshold: threshold}
}

// NewShadowPositionAdmission returns a policy that admits every prefetched
// vector, placing shadow-cache hits at the MRU end and shadow misses at
// altPosition (Figure 11c of the paper).
func NewShadowPositionAdmission(shadowVectors int, altPosition float64) AdmissionPolicy {
	return cache.NewShadowPosition(shadowVectors, altPosition)
}

// SimulationConfig configures SimulateCache.
type SimulationConfig = sim.Config

// SimulationResult is the outcome of one cache simulation.
type SimulationResult = sim.Result

// SimulationComparison bundles a policy simulation with its no-prefetch
// baseline.
type SimulationComparison = sim.Comparison

// SimulateCache replays a trace against a layout, cache size and admission
// policy, counting NVM block reads. The replay is the store's batch
// algorithm: one trace query is one LookupBatch (misses cost one block read
// per distinct block), and against a store with Config.CacheShards 1 its
// counters equal the store's Stats.
func SimulateCache(tr *Trace, cfg SimulationConfig) SimulationResult { return sim.Replay(tr, cfg) }

// CompareToBaseline runs both the configured policy and the same replay with
// prefetching off and reports the effective bandwidth increase.
func CompareToBaseline(tr *Trace, cfg SimulationConfig) SimulationComparison {
	return sim.Compare(tr, cfg)
}

// FanoutGain measures the effective bandwidth increase of a physical layout
// under the paper's unlimited-cache (per-query fanout) model.
func FanoutGain(tr *Trace, l *Layout) float64 { return sim.FanoutGain(tr, l) }
