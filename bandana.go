// Package bandana is the public API of the Bandana embedding store — a
// reproduction of "Bandana: Using Non-volatile Memory for Storing Deep
// Learning Models" (Eisenman et al., MLSys 2019).
//
// Bandana keeps recommender-system embedding tables on block-addressable NVM
// and uses a small DRAM cache in front of it. Because NVM must be read in
// 4 KB blocks while embedding vectors are only 64-256 B, the system's job is
// to make every block read count:
//
//   - vectors that are accessed by the same requests are stored in the same
//     physical block (Social Hash Partitioning of the lookup hypergraph), so
//     that one block read prefetches useful neighbours, and
//   - prefetched vectors are admitted to the DRAM cache only when their
//     access count during training exceeds a per-table threshold that is
//     tuned automatically by simulating dozens of miniature caches.
//
// # Quick start
//
//	tables  := []*bandana.Table{ ... }            // embedding tables
//	store, _ := bandana.Open(bandana.Config{Tables: tables})
//	defer store.Close()
//
//	// Optional: train placement + caching from a historical trace.
//	store.Train(traces, bandana.TrainOptions{})
//
//	vec, _ := store.Lookup(0, 12345)              // one embedding vector
//
// # Concurrency model
//
// The serving path is built to scale with GOMAXPROCS:
//
//   - Lookup, LookupBatch and ServeRequest are safe to call from any number
//     of goroutines. Each table's DRAM cache is split into lock shards by
//     vector-ID hash, so lookups of different vectors rarely contend.
//   - The trained state (placement, admission policy, cache allocation) is
//     published through an atomic pointer: readers take no lock, and Train,
//     LoadState or SetAdmissionPolicy can run while the store serves.
//   - Serving counters are striped across cache lines and aggregated on
//     Stats; NVM block reads are issued outside all locks, through an I/O
//     scheduler that coalesces concurrent misses of one block and lets up
//     to the device's saturation queue depth of callers read at once.
//   - Returned vectors are copies the caller owns; the cache keeps fp16
//     payloads in pointer-free arenas and decodes on the way out.
//   - UpdateVector is safe to call concurrently with lookups; updates to
//     the same table serialize with each other.
//
// # Update lifecycle
//
// A vector changes one way: UpdateVector appends one record to the update
// log and parks the new bytes in a DRAM overlay that serving consults ahead
// of the block image. A background compactor folds the overlay into the
// image — one in-place block write per dirty block, however many of its
// vectors changed — and trims the log; the device's write counters move
// then, not at the update (CompactDeltas forces it). Every store therefore
// runs a goroutine, the compactor, and every Open needs a Close to stop it
// and to drain the I/O scheduler.
//
// # Layout changes
//
// A table's placement changes one way, whoever asks — Train, LoadState or the
// adaptation engine's background re-layout: the new placement and everything
// tuned for it are computed first, against the serving store but without
// touching it, and then each table is installed on its own. On a file-backed
// store an install stages the table's new block image and a redo record
// before it overwrites a block, so a process killed at any instant reopens
// with every table on exactly its old or its new placement, every vector and
// every acknowledged update intact; a failure while computing leaves the
// store untouched. Lookups are served throughout.
//
// # Admission policies
//
// The admission policies of §4.3 (always, shadow-cache, shadow-position and
// threshold admission) are a single set of implementations, in
// internal/cache, shared by the trace simulator and the live store. Train
// installs the tuned threshold policy automatically — a prefetch threshold
// for a block's neighbours and a demand threshold below which a requested
// vector is cached on probation instead of at the MRU end;
// SetAdmissionPolicy swaps in any other policy at runtime.
//
// The subpackages under internal/ implement the substrates (NVM device
// model, trace generation, partitioners, cache simulation); this package
// re-exports the types a downstream application needs.
package bandana

import (
	"bandana/internal/core"
	"bandana/internal/nvm"
	"bandana/internal/table"
	"bandana/internal/trace"
)

// Version is the library version.
const Version = "1.0.0"

// BlockSize is the NVM read granularity in bytes (4 KB).
const BlockSize = nvm.BlockSize

// Store is a Bandana embedding store. See the package documentation for the
// lifecycle (Open -> Train -> Lookup) and for what Train, LoadState and
// Persist leave on disk when the process dies in the middle of one.
type Store = core.Store

// Config configures Open.
type Config = core.Config

// IOSchedOptions tunes the block I/O scheduler (Config.IOSched): miss-path
// reads are coalesced per block and up to QueueDepth callers issue theirs at
// once, with waiting demand reads granted a slot before background ones.
type IOSchedOptions = core.IOSchedOptions

// TrainOptions configures Store.Train.
type TrainOptions = core.TrainOptions

// TrainReport describes the decisions made by Store.Train.
type TrainReport = core.TrainReport

// TableTrainReport is the per-table part of a TrainReport.
type TableTrainReport = core.TableTrainReport

// TableStats is a snapshot of one table's serving counters.
type TableStats = core.TableStats

// Request is one recommendation request: vector IDs to look up per table.
type Request = core.Request

// AdaptOptions configures the online adaptation engine
// (Store.StartAdaptation): runtime trace recording, periodic DRAM
// rebalancing, miniature-cache threshold re-tuning and zero-downtime
// background re-layout.
type AdaptOptions = core.AdaptOptions

// AdaptEpochReport summarises one adaptation epoch (Store.AdaptNow).
type AdaptEpochReport = core.AdaptEpochReport

// TableAdaptReport is the per-table part of an AdaptEpochReport.
type TableAdaptReport = core.TableAdaptReport

// AdaptationStats is the adaptation engine's observability snapshot
// (Store.AdaptationStats).
type AdaptationStats = core.AdaptationStats

// TableAdaptationStats is the per-table part of AdaptationStats.
type TableAdaptationStats = core.TableAdaptationStats

// Open creates a Store from a Config: it sizes the NVM device, writes every
// table to it and starts serving lookups with per-table LRU caches (no
// prefetching until Train is called). The store does not retain
// Config.Tables. With Config.Backend == BackendFile the blocks live in a
// durable block file under Config.DataDir and reopening the directory
// (Tables nil) serves the same vectors and trained state without retraining.
func Open(cfg Config) (*Store, error) { return core.Open(cfg) }

// Backend selection for Config.Backend.
const (
	// BackendMem keeps blocks in RAM (the default).
	BackendMem = core.BackendMem
	// BackendFile stores blocks in a durable block file under
	// Config.DataDir.
	BackendFile = core.BackendFile
)

// SyncMode selects the file backend's durability mode (Config.Sync).
type SyncMode = nvm.SyncMode

// File backend durability modes.
const (
	SyncNone     = nvm.SyncNone
	SyncPeriodic = nvm.SyncPeriodic
	SyncAlways   = nvm.SyncAlways
)

// ParseSyncMode parses "none", "periodic" or "always".
func ParseSyncMode(s string) (SyncMode, error) { return nvm.ParseSyncMode(s) }

// DirInitialized reports whether dir holds an initialized file-backed store
// that Open can restore without tables or retraining.
func DirInitialized(dir string) bool { return core.DirInitialized(dir) }

// DefaultCacheShards is the default number of lock shards per table cache,
// derived from GOMAXPROCS. Override with Config.CacheShards.
func DefaultCacheShards() int { return core.DefaultCacheShards() }

// Table is an embedding table: a dense collection of fp16 vectors addressed
// by 32-bit vector IDs.
type Table = table.Table

// TableGenerateOptions configures GenerateTable.
type TableGenerateOptions = table.GenerateOptions

// GeneratedTable bundles a synthetic table with its ground-truth cluster
// assignment.
type GeneratedTable = table.Generated

// NewTable creates an empty (all-zero) embedding table.
func NewTable(name string, numVectors, dim int) *Table { return table.New(name, numVectors, dim) }

// GenerateTable creates a synthetic embedding table drawn from a Gaussian
// mixture; see TableGenerateOptions.
func GenerateTable(name string, opts TableGenerateOptions) *GeneratedTable {
	return table.Generate(name, opts)
}

// Trace is a sequence of queries (per-request vector ID sets) against one
// table; it is both the SHP training input and the cache workload.
type Trace = trace.Trace

// Query is the set of vector IDs one request reads from one table.
type Query = trace.Query

// Profile describes the statistical shape of one table's lookup stream.
type Profile = trace.Profile

// Workload is a set of per-table traces generated from one request stream.
type Workload = trace.Workload

// TraceStats summarises a trace (Table 1 of the paper).
type TraceStats = trace.Stats

// DefaultProfiles returns the 8 user-embedding-table profiles of the paper's
// Table 1, scaled by the given factor (1.0 = the paper's 10-20 M vectors).
func DefaultProfiles(scale float64) []Profile { return trace.DefaultProfiles(scale) }

// GenerateWorkload produces synthetic traces for every profile over a shared
// request stream.
func GenerateWorkload(profiles []Profile, numRequests int) *Workload {
	return trace.GenerateWorkload(profiles, numRequests)
}

// Device is a simulated block-NVM device.
type Device = nvm.Device

// DeviceConfig configures NewDevice.
type DeviceConfig = nvm.DeviceConfig

// DeviceStats is a snapshot of device counters.
type DeviceStats = nvm.Stats

// PerformanceModel converts device load into latency and bandwidth.
type PerformanceModel = nvm.PerformanceModel

// NewDevice creates a simulated NVM device.
func NewDevice(cfg DeviceConfig) *Device { return nvm.NewDevice(cfg) }

// NewPerformanceModel builds a device performance model from calibration
// points (nil uses the paper's Figure 2 calibration).
func NewPerformanceModel(points []nvm.CalibrationPoint) *PerformanceModel {
	return nvm.NewPerformanceModel(points)
}
