// Package core implements the Bandana store: embedding tables resident on a
// (simulated) block NVM device, fronted by small per-table DRAM caches, with
// SHP-partitioned physical placement and miniature-cache-tuned prefetch
// admission — the system described in the paper.
//
// Lifecycle:
//
//  1. Open lays the tables out on NVM in their original (ID) order and
//     serves lookups with per-table LRU caches and no prefetching — the
//     baseline policy.
//  2. Train consumes a training workload: it partitions each table with
//     SHP, rewrites the NVM blocks in the new order, computes per-vector
//     access counts, splits the DRAM budget across tables using their
//     hit-rate curves, and picks each table's prefetch-admission threshold
//     with miniature-cache simulations.
//  3. Lookup / LookupBatch serve embedding reads: cache hits are free,
//     misses read one 4 KB NVM block — in place when the device's blocks are
//     memory (the mem backend, a buffered file store's mapping), else
//     through the I/O scheduler, which coalesces concurrent misses of a
//     block and lets independent ones overlap up to the device's saturation
//     queue depth — and admit co-located vectors whose training-time access
//     count exceeds the table's threshold.
//  4. UpdateVector appends one record to the update log and parks the new
//     bytes in a DRAM overlay served ahead of the block image; a background
//     compactor folds the overlay into the image (the device's write
//     counters move then; CompactDeltas forces it) and trims the log.
//  5. Close stops the compactor — a goroutine every store runs, so every
//     Open needs one — and drains the I/O scheduler of O_DIRECT misses.
package core

import (
	"fmt"
	"runtime"

	"bandana/internal/nvm"
	"bandana/internal/table"
)

// Backend names for Config.Backend.
const (
	// BackendMem keeps blocks in RAM (the default); nothing survives the
	// process.
	BackendMem = "mem"
	// BackendFile stores blocks in a durable block file under
	// Config.DataDir; vectors and trained state survive restarts.
	BackendFile = "file"
)

// Config configures a Store.
type Config struct {
	// Tables are the embedding tables to store. Open copies their contents
	// onto the NVM device and keeps no reference to them: the caller may
	// drop or reuse them afterwards, and updates never touch them. Must be
	// nil when reopening an already initialized DataDir: the vectors are
	// already on disk, and reopen restores only the tables' geometry.
	Tables []*table.Table
	// Backend selects the block store backing the NVM device when Device is
	// nil: BackendMem (default) or BackendFile.
	Backend string
	// DataDir is the directory holding the file backend's block file,
	// manifest and trained state (required for BackendFile). Opening an
	// initialized directory restores geometry, placement and caching from
	// disk without reading a data block or retraining.
	DataDir string
	// Sync selects the file backend's durability mode (nvm.SyncNone,
	// nvm.SyncPeriodic or nvm.SyncAlways).
	Sync nvm.SyncMode
	// Direct requests O_DIRECT (unbuffered) I/O for the file backend's block
	// file, bypassing the page cache so reads and writes hit the device with
	// honest NVM latencies. Negotiated at open: filesystems that reject
	// O_DIRECT (e.g. tmpfs) silently fall back to buffered I/O — check the
	// device's BackendStats().DirectIO for the outcome. Ignored by
	// BackendMem.
	Direct bool
	// DRAMBudgetVectors is the total number of vectors that may be cached
	// in DRAM across all tables. Defaults to 5% of the total vector count.
	DRAMBudgetVectors int
	// Device optionally supplies the NVM device; Open creates a RAM-backed
	// simulated device of the right size when nil.
	Device *nvm.Device
	// Seed drives the deterministic parts of training (SHP splits, device
	// latency sampling when the device is created internally).
	Seed int64
	// CacheShards is the number of lock shards per table cache. Lookups of
	// vectors in different shards proceed in parallel; more shards mean
	// less lock contention at a small cost in LRU fidelity. Defaults to
	// DefaultCacheShards (derived from GOMAXPROCS).
	CacheShards int
	// ReadOnly opens the store in read-only mode: every mutator of the
	// servable image (UpdateVector, Train, LoadState, Persist, the
	// adaptation engine) fails with ErrReadOnly, while serving and cache
	// fills work normally. This is how a replica serves a snapshot it
	// bootstrapped from a primary — the next re-sync replaces the whole
	// store, so local mutations would only be lost or, worse, diverge.
	ReadOnly bool
	// InitialSnapshotSeq overrides the store's starting snapshot sequence
	// number (see Store.SnapshotSeq). Zero uses the boot-stamped default. A
	// replica sets it to the seq of the snapshot it imported, so the seq it
	// reports downstream is the primary's, not its own boot time.
	InitialSnapshotSeq uint64
	// IOSched tunes the block I/O scheduler (internal/iosched) the misses
	// of an O_DIRECT file store go through.
	IOSched IOSchedOptions
	// UpdateLog tunes the update path (delta overlay + append-only update
	// log, see deltalog.go).
	UpdateLog UpdateLogOptions
}

// IOSchedOptions tunes the store's block I/O scheduler. The misses of a
// device whose blocks are not memory (an O_DIRECT file store) go through a
// per-device scheduler that coalesces concurrent reads of the same block
// into one device read and lets up to QueueDepth callers — the queue depth
// at which NVM delivers its bandwidth — issue their reads at once, granting
// waiting callers a slot in arrival order.
type IOSchedOptions struct {
	// QueueDepth is the number of concurrent issuers and the most blocks one
	// device call carries; 0 uses the iosched default (8, the paper's device
	// saturation depth).
	QueueDepth int
}

// DefaultCacheShards returns the default shard count for table caches: the
// smallest power of two >= 4*GOMAXPROCS, capped at 256. Oversharding
// relative to the core count keeps the probability of two concurrent
// lookups colliding on a shard lock low.
func DefaultCacheShards() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n > 256 {
		n = 256
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	return shards
}

// geometry validates Config.Tables and returns their shapes placed on the
// device (see placeTables) plus the device size in blocks.
func (c *Config) geometry() ([]tableGeom, int, error) {
	geoms := make([]tableGeom, len(c.Tables))
	for i, t := range c.Tables {
		if t == nil {
			return nil, 0, fmt.Errorf("core: table %d is nil", i)
		}
		geoms[i] = tableGeom{name: t.Name, dim: t.Dim, numVectors: t.NumVectors()}
	}
	total, err := placeTables(geoms)
	return geoms, total, err
}

// hrcSampling is the SHARDS spatial sampling rate Train and the adaptation
// loop use when estimating a table's hit-rate curve for DRAM allocation.
const hrcSampling = 0.1

// trainParallelism and adaptParallelism bound how many tables Train and an
// adaptation epoch analyse and tune concurrently.
const (
	trainParallelism = 8
	adaptParallelism = 4
)

// TrainOptions configures Store.Train.
type TrainOptions struct {
	// SHPIterations is the number of refinement iterations per bisection
	// level (the paper uses 16).
	SHPIterations int
	// BlockVectors overrides the number of vectors per block; by default it
	// is derived from the vector size (nvm.BlockSize / vectorBytes).
	BlockVectors int
	// Thresholds are the candidate prefetch-admission thresholds evaluated
	// by the miniature caches. Nil derives them per table from the training
	// trace's access counts (sim.AdaptiveThresholds: 0 and the 50th, 75th,
	// 90th and 95th percentiles of the non-zero counts).
	Thresholds []uint32
	// MiniCacheSampling is the miniature-cache sampling rate. The paper
	// uses 0.001 at production scale; the default here is 0.01 which suits
	// the scaled-down tables used in tests and examples.
	MiniCacheSampling float64
	// SkipPartitioning keeps the existing (identity) layout and only tunes
	// caching. Used by ablation experiments.
	SkipPartitioning bool
	// SkipThresholdTuning keeps the default threshold (admit nothing) and
	// only re-partitions.
	SkipThresholdTuning bool
}

func (o *TrainOptions) defaults() {
	if o.SHPIterations <= 0 {
		o.SHPIterations = 16
	}
	if o.MiniCacheSampling <= 0 {
		o.MiniCacheSampling = 0.01
	}
}
