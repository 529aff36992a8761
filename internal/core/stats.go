package core

import (
	"bandana/internal/cache"
	"bandana/internal/metrics"
	"bandana/internal/nvm"
)

// TableStats is a snapshot of one table's serving counters.
type TableStats struct {
	Name    string
	Lookups int64
	Hits    int64
	// DeltaHits is the subset of Hits served from the delta overlay (updated
	// vectors not yet compacted into the block image). Always 0 without an
	// update log.
	DeltaHits int64
	// OverlayEntries is the number of vectors currently overlaid.
	OverlayEntries int
	Misses         int64
	HitRate        float64
	BlockReads     int64
	// CoalescedReads counts misses served by another miss's device read
	// (I/O scheduler singleflight): the lookup paid a miss but the device
	// did not pay a block read.
	CoalescedReads int64
	PrefetchAdds   int64
	PrefetchHits   int64
	// ProbationFills counts requested vectors the demand threshold cached on
	// probation instead of at the MRU end.
	ProbationFills int64
	CacheVectors   int
	CacheUsed      int
	CacheShards    int
	// Byte accounting of the table's arena cache (internal/vcache):
	// CacheBytesResident is the exact fp16 payload bytes of resident
	// entries, CacheArenaBytes the allocated slab bytes,
	// CacheArenaUtilization their ratio. CacheFreeSlots are arena slots
	// ready for reuse, CacheLimboSlots evicted slots waiting out the leases
	// that may still read them; limbo that keeps growing means leases are
	// not being released.
	CacheBytesResident    int64
	CacheArenaBytes       int64
	CacheArenaUtilization float64
	CacheSlabs            int
	CacheFreeSlots        int
	CacheLimboSlots       int
	// DRAM attributes the table's resident heap to the structures that hold
	// it, computed from their lengths.
	DRAM TableDRAM
	// Threshold and DemandThreshold are the two thresholds on a vector's
	// training count: a prefetched vector is admitted when its count exceeds
	// Threshold (while Prefetching), a requested one enters the cache on
	// probation when its count is below DemandThreshold (0: no gate).
	Threshold       uint32
	DemandThreshold uint32
	Prefetching     bool
	// PinnedVectors is the number of ids the table's pin verdict holds: the
	// cache never evicts one of them, and the thresholds above serve every
	// other id in the room they leave (0 when the table is not pinned; see
	// cache.PinnedAdmit). A cache that covers its table is pinned whole
	// without a verdict: it shows here as 0, and as CacheVectors ≥ the
	// table's vectors.
	PinnedVectors int
	// LayoutInstalls counts the layout installs this table completed (one
	// per Train or LoadState that covered it, one per adaptation re-layout).
	LayoutInstalls int64
	// PredictedHitRate and PredictedLookupsPerBlockRead are what the
	// miniature cache that chose Threshold/DemandThreshold/Prefetching
	// expected of exactly that configuration (0 until a tuner has run). The
	// tuner replays the store's own batch algorithm, so a gap to the observed HitRate and Lookups/BlockReads
	// means the workload drifted from the tuning trace (or, below a few
	// hundred cached vectors, miniature-cache noise), not that the model
	// differs from the store.
	PredictedHitRate             float64
	PredictedLookupsPerBlockRead float64
	// Policy names the installed admission policy (empty when prefetching
	// is off and no demand gate is set).
	Policy string
	// EffectiveBandwidth is the fraction of NVM-read bytes delivered to the
	// application: lookups served from NVM reads (misses + prefetch hits)
	// times the vector size over block reads times the block size.
	EffectiveBandwidth float64
	// Latency summarises the NVM block read latency observed by this
	// table's misses (microseconds) — the device-service component of the
	// stage decomposition below.
	Latency metrics.Snapshot
	// Stage latency decomposition (all microseconds). ProbeLatency is the
	// DRAM cache/overlay probe, timed once per batch and observed as
	// microseconds per distinct id probed; an untraced batch of one id is
	// timed one time in 64, and its sample counts 64 times in Count and Mean.
	// QueueWaitLatency is time miss reads spent waiting for an I/O scheduler
	// issue slot. DecodeLatency is requested-vector fp16 decode time
	// (prefetch admission decodes excluded).
	//
	// In these four snapshots and Latency, Count and Mean are this table's
	// own (a sum and count it keeps per stage), so Count×Mean sums over
	// tables to the store's total; P50–P999, Min and Max are the store's,
	// over every table's samples (see Store.StageLatency). The histograms
	// are per store so that what a table costs does not include them.
	ProbeLatency     metrics.Snapshot
	QueueWaitLatency metrics.Snapshot
	DecodeLatency    metrics.Snapshot
}

// TableDRAM is the heap one table keeps resident, by component, in bytes.
// The vectors themselves are not among them: they live on the device.
type TableDRAM struct {
	// Layout is the placement: the order and its inverse for the positions
	// training placed (the head), packed at ⌈log₂ n⌉ and ⌈log₂ head⌉ bits per
	// entry, and for the untrained tail after them, whose ids ascend, a bit
	// per vector and a 4 B rank per 64 vectors (1.5 bits per vector). A
	// layout whose tail is too short to pay for that stores both directions
	// whole: ≤ 4 B per vector up to 2^16 vectors.
	Layout int64
	// AdmitBits is the threshold policy's verdicts, two bits per vector in
	// layout order: a quarter byte per vector, 0 when the table has no
	// policy (prefetching off, no demand gate). A pin verdict adds its
	// pinned set, a bit per vector, and its warm order, 4 B per pinned id.
	AdmitBits int64
	// Overlay is the payloads and entries of updates not yet compacted, and
	// the overlay's 512 B membership filter once the table took an update.
	Overlay int64
	// CacheArena is the cache's slabs: its shards mint slots from one
	// frontier into slabs of at least 8 KiB (or of a smaller cache's whole
	// capacity), so it is the slabs the minted slots start, and exceeds the
	// resident payload by the free and limbo slots and less than one slab.
	// CacheIndex is the rest of the cache, as allocated: the recency lists'
	// slot records and probe tables, sized to the room they have, plus, for
	// a pinned cache, a slot word per pinned id and a rank per 64 ids of the
	// table (a pin verdict's set is AdmitBits'), or, for a cache pinned
	// whole, a slot word per vector of the table (4 B) and nothing else.
	CacheArena int64
	CacheIndex int64
	// Recorder is the adaptation engine's access window (0 while it is off).
	Recorder int64
	// Metrics is the serving counters' stripes, which hold the table's sum
	// and count of each stage too; the stage histograms are the store's
	// (StoreDRAM.Metrics).
	Metrics int64
}

// Stats returns per-table serving statistics.
func (s *Store) Stats() []TableStats {
	out := make([]TableStats, len(s.tables))
	stages := s.StageLatency()
	for i, st := range s.tables {
		state := st.loadState()
		ts := TableStats{
			Name:             st.name,
			Hits:             st.counters.Value(ctrHits),
			DeltaHits:        st.counters.Value(ctrDeltaHits),
			Misses:           st.counters.Value(ctrMisses),
			BlockReads:       st.counters.Value(ctrBlockReads),
			CoalescedReads:   st.counters.Value(ctrCoalescedReads),
			PrefetchAdds:     st.counters.Value(ctrPrefetchAdds),
			PrefetchHits:     st.counters.Value(ctrPrefetchHits),
			ProbationFills:   st.counters.Value(ctrProbationFills),
			CacheVectors:     state.cacheCap,
			Threshold:        state.threshold,
			DemandThreshold:  state.demandThreshold,
			Prefetching:      state.prefetch,
			PinnedVectors:    state.admit.pinnedVectors(),
			LayoutInstalls:   st.layoutInstalls.Load(),
			Latency:          st.stageSnapshot(stageService, stages.Service),
			ProbeLatency:     st.stageSnapshot(stageProbe, stages.Probe),
			QueueWaitLatency: st.stageSnapshot(stageQueueWait, stages.QueueWait),
			DecodeLatency:    st.stageSnapshot(stageDecode, stages.Decode),
		}
		ts.Lookups = ts.Hits + ts.Misses
		ts.PredictedHitRate = state.predicted.HitRate
		ts.PredictedLookupsPerBlockRead = state.predicted.LookupsPerBlockRead
		cs := state.cache.Stats()
		ts.CacheUsed = cs.Entries
		ts.CacheShards = cs.Shards
		ts.CacheBytesResident = cs.BytesResident
		ts.CacheArenaBytes = cs.ArenaBytes
		ts.CacheArenaUtilization = cs.Utilization
		ts.CacheSlabs = cs.Slabs
		ts.CacheFreeSlots = cs.FreeSlots
		ts.CacheLimboSlots = cs.LimboSlots
		ts.OverlayEntries = st.overlay.size()
		ts.DRAM = TableDRAM{
			Layout:     state.layout.SizeBytes(),
			AdmitBits:  state.admit.sizeBytes(),
			Overlay:    st.overlay.sizeBytes(st.vecBytes),
			CacheArena: cs.ArenaBytes,
			CacheIndex: cs.MetaBytes + cs.IndexBytes,
			Metrics:    st.counters.SizeBytes(),
		}
		if r := st.recorder.Load(); r != nil {
			ts.DRAM.Recorder = r.SizeBytes()
		}
		if state.admit != nil {
			ts.Policy = cache.ThresholdAdmit{}.Name()
		}
		if ts.Lookups > 0 {
			ts.HitRate = float64(ts.Hits) / float64(ts.Lookups)
		}
		if ts.BlockReads > 0 {
			useful := float64(ts.Misses+ts.PrefetchHits) * float64(st.vecBytes)
			ts.EffectiveBandwidth = useful / (float64(ts.BlockReads) * float64(nvm.BlockSize))
		}
		out[i] = ts
	}
	return out
}

// stageSnapshot is the table's view of stage s: the store's snapshot of it,
// with the table's own sample count and mean.
func (st *storeTable) stageSnapshot(s stage, store metrics.Snapshot) metrics.Snapshot {
	store.Count, store.Mean = st.counters.Value(stageSum[s]+1), 0
	if store.Count > 0 {
		store.Mean = float64(st.counters.Value(stageSum[s])) / 1e3 / float64(store.Count)
	}
	return store
}

// StageStats is a store's stage latency decomposition over all its tables,
// in microseconds (see TableStats for what each stage times).
type StageStats struct {
	Service, Probe, QueueWait, Decode metrics.Snapshot
}

// StageLatency returns the store's stage latency histograms' snapshots.
func (s *Store) StageLatency() StageStats {
	return StageStats{
		Service:   s.stages[stageService].Snapshot(),
		Probe:     s.stages[stageProbe].Snapshot(),
		QueueWait: s.stages[stageQueueWait].Snapshot(),
		Decode:    s.stages[stageDecode].Snapshot(),
	}
}

// ResetStats clears all per-table counters (layouts, thresholds and cache
// contents are preserved). Counters are atomic, so no lock is needed; a
// reset concurrent with serving simply starts counting from the reset
// point.
func (s *Store) ResetStats() {
	for _, st := range s.tables {
		st.counters.Reset()
	}
	for _, h := range s.stages {
		h.Reset()
	}
}

// StoreDRAM is the heap a store keeps resident beside its tables' (see
// TableDRAM), by component, in bytes.
type StoreDRAM struct {
	// Metrics is the four stage histograms every table records into, the
	// device's read-latency histogram and the I/O scheduler's queue-wait and
	// service histograms.
	Metrics int64
	// Blocks is the device's blocks when they are heap memory: every block
	// of a mem-backend device, 4 KiB each (the data itself, tables and all);
	// 0 on the file backend, whose blocks are on disk (or in the page cache,
	// outside the heap).
	Blocks int64
}

// DRAM returns the store-wide holders that no table's TableDRAM covers.
func (s *Store) DRAM() StoreDRAM {
	return StoreDRAM{
		Metrics: s.stages.sizeBytes() + s.device.MetricsBytes() + s.sched.MetricsBytes(),
		Blocks:  s.device.HeapBlockBytes(),
	}
}

// DeviceStats returns the underlying NVM device counters.
func (s *Store) DeviceStats() nvm.Stats { return s.device.Stats() }
