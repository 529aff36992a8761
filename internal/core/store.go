package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bandana/internal/cache"
	"bandana/internal/fp16"
	"bandana/internal/iosched"
	"bandana/internal/layout"
	"bandana/internal/metrics"
	"bandana/internal/nvm"
	"bandana/internal/sim"
	"bandana/internal/table"
	"bandana/internal/trace"
	"bandana/internal/vcache"
)

// Store is a Bandana embedding store: NVM-resident tables with DRAM caches.
//
// The serving path (Lookup, LookupBatch, ServeRequest) is safe for
// concurrent use and scales with GOMAXPROCS: each table's cache is sharded
// by vector-ID hash with per-shard locks, the trained state is published
// through an atomic pointer (reads take no lock at all), serving counters
// are striped across cache lines, and NVM block reads take only shared
// locks. Returned vectors are copies the caller owns.
type Store struct {
	device     *nvm.Device
	ownsDevice bool
	// sched is the block I/O scheduler the miss-path reads of a device whose
	// blocks are not memory (an O_DIRECT file store) are submitted to.
	sched  *iosched.Scheduler
	tables []*storeTable
	byName map[string]int
	seed   int64
	// dataDir is the persistence directory of a file-backed store ("" for
	// the mem backend); Persist writes the trained state there.
	dataDir string
	// recoveredMigration names the table whose committed layout install the
	// previous process did not finish and this reopen redid ("" when none).
	recoveredMigration string
	// lastInstallNS is how long the most recent layout install took, from
	// staging the rendered image to clearing the migration record.
	lastInstallNS atomic.Int64
	// readOnly rejects every mutator of the servable image (Config.ReadOnly;
	// how a replica serves a bootstrapped snapshot).
	readOnly bool
	// snapSeq identifies the store's current servable image for snapshot
	// replication; it advances after every committed mutation (see
	// snapshot.go).
	snapSeq atomic.Uint64
	// mutateMu serializes whole-store mutators (Train, LoadState, AdaptNow
	// and the layout installs they drive) against each other — they rewrite
	// tables and share the migration / state-file commit protocol, which is
	// not reentrant. Serving never takes it.
	mutateMu sync.Mutex
	// adapt is the online adaptation engine; nil until StartAdaptation.
	adapt atomic.Pointer[adapter]
	// migrationPoisoned disables further layout installs after one whose
	// copy and rollback both failed, or whose state persist failed: the
	// pending migration record is the repair and must not be disturbed
	// before the next open.
	migrationPoisoned atomic.Bool
	// deltaLog is the append-only update log every vector update goes
	// through (see deltalog.go).
	deltaLog *deltaLog
	// compactMu serializes compactions (the background worker and direct
	// CompactDeltas calls); compactCh/compactStop/compactDone run the worker.
	compactMu   sync.Mutex
	compactCh   chan struct{}
	compactStop chan struct{}
	compactDone chan struct{}
	// closeOnce makes Close idempotent; closeErr is what the first call
	// returned.
	closeOnce sync.Once
	closeErr  error
}

// RecoveredMigration reports whether opening this store redid a layout
// install (Train, LoadState or a background re-layout) interrupted by a crash
// of the previous process; RecoveredMigrationTable names the table.
func (s *Store) RecoveredMigration() bool        { return s.recoveredMigration != "" }
func (s *Store) RecoveredMigrationTable() string { return s.recoveredMigration }

// LastLayoutInstall is how long the most recent layout install took, from
// staging the rendered image to clearing the migration record (0 before the
// first).
func (s *Store) LastLayoutInstall() time.Duration {
	return time.Duration(s.lastInstallNS.Load())
}

// getBlockBuf / putBlockBuf recycle 4 KB block buffers (shared with
// internal/nvm's pool) so the miss path does not allocate one per NVM read.
func getBlockBuf() *[]byte  { return nvm.GetBlockBuf() }
func putBlockBuf(b *[]byte) { nvm.PutBlockBuf(b) }

// hashID is the hash that routes a lookup to its cache shard (vcache.Hash);
// it picks the lookup's counter stripe too.
func hashID(id uint32) uint64 { return vcache.Hash(id) }

// newTableCache builds one table's DRAM cache: capacity fp16 vectors of
// vecBytes each.
func newTableCache(capacity, shards, vecBytes int) *vcache.Cache {
	return vcache.New(vcache.Options{Capacity: capacity, SlotBytes: vecBytes, Shards: shards})
}

// counterStripes is the stripe count of a table's serving counters: 64
// stripes of one two-line block holding all nine, 8 KB per table.
const counterStripes = 64

// A table's serving counters, one index each into its StripedCounters.
const (
	ctrLookups = iota
	ctrHits
	ctrDeltaHits
	ctrMisses
	ctrBlockReads
	ctrCoalescedReads
	ctrPrefetchAdds
	ctrPrefetchHits
	ctrProbationFills
	numCounters
)

// newStageHistogram builds the layout used by the per-stage latency
// histograms (probe, queue wait, device service, decode): the sub-microsecond
// stages, an in-place block read among them, need
// finer resolution than the device-latency layout, so buckets start at 10 ns
// (0.01 us) and run to 1 s with the usual ~5% relative bucket error.
func newStageHistogram() *metrics.Histogram {
	return metrics.NewHistogram(0.01, 1.05, 1e6)
}

// tableState is the trained state of one table. It is immutable once
// published: mutators build a modified copy and atomically swap the pointer,
// so the serving path reads a consistent snapshot with a single atomic load.
type tableState struct {
	layout    *layout.Layout
	threshold uint32 // prefetch admission threshold (a training count must exceed it)
	prefetch  bool   // whether prefetching is enabled (set by Train)
	// demandThreshold gates requested vectors: one whose training count is
	// below it is cached on probation instead of at the MRU end (0: no gate).
	demandThreshold uint32
	// policy is nil when it has nothing to decide: prefetching off and no
	// demand gate. A threshold policy is always held as its compiled
	// verdicts (*cache.ThresholdVerdicts, two bits per id); the training
	// counts it was compiled from are not kept.
	policy cache.AdmissionPolicy
	// admit is policy's verdicts permuted into layout order when policy is a
	// *cache.ThresholdVerdicts, nil otherwise (see publish).
	admit *admitBits
	// predicted is what the miniature cache that chose threshold/prefetch
	// expects this table to serve (zero until a tuner has run); the live
	// counterparts are hits/lookups and lookups/blockReads.
	predicted sim.Prediction
	cache     *vcache.Cache
	cacheCap  int
}

// storeTable is the per-table state.
type storeTable struct {
	// Immutable after Open.
	index        int
	name         string
	numVectors   int
	dim          int
	vecBytes     int
	blockVectors int
	blockBase    int // first device block of this table
	numBlocks    int
	shards       int

	// state is the published trained state; the serving path loads it once
	// per operation. stateMu serializes mutators (installImage,
	// resizeCacheLive, SetAdmissionPolicy), never readers.
	state   atomic.Pointer[tableState]
	stateMu sync.Mutex

	// updateMu serializes vector updates and excludes them from whole-table
	// rewrites, re-layouts and snapshot exports, which hold it from the
	// overlay snapshot they render from until the image is in place.
	updateMu sync.Mutex
	// rewriteMu guards the invariant that the published layout matches the
	// bytes on NVM: installImage holds it exclusively while copying a new
	// image into place and publishing its layout; the miss path and the
	// compactor hold it shared while reading a block and decoding or
	// patching slots in it. Cache hits and state snapshots never touch it.
	rewriteMu sync.RWMutex
	// epoch is bumped by every NVM mutation (compaction, installImage)
	// so that an in-flight miss does not cache a vector decoded from a
	// block read before the mutation. Delta updates bump it too (the block
	// image goes stale relative to the overlay).
	epoch atomic.Uint64
	// overlay shadows the block image with the raw bytes of updates not yet
	// compacted into it.
	overlay *deltaOverlay

	// recorder captures a sampled window of the live access stream for the
	// adaptation engine; nil (one atomic load on the serving path) while
	// adaptation is off.
	recorder atomic.Pointer[trace.Recorder]

	// sched mirrors Store.sched so the per-table serving paths can submit
	// reads without reaching back to the store.
	sched *iosched.Scheduler
	// inPlace is the device when its blocks are memory (the mem backend, a
	// buffered file store's mapping): serveBatch then reads missed blocks in
	// place instead of through sched. nil otherwise. Chosen once, at Open.
	inPlace *nvm.Device

	// counters are the serving counters (indexed by the ctr constants),
	// striped so concurrent lookups on different vectors do not contend;
	// the stripe is chosen by the same hash that picks the cache shard (a
	// batch's lookup, hit and miss counts move once, on the one block of
	// the stripe of its first id).
	counters *metrics.StripedCounters
	// lookupLatency is the device-service component of miss reads (the
	// historical "lookup latency"), always wall time: an in-place read's
	// visit, or a scheduled read's time less its own queue wait. The
	// histograms below decompose the rest of a lookup's time. probeLatency
	// takes one sample per batch, the probe's microseconds per distinct id
	// probed; queueWaitLatency is the scheduler's queue wait of miss reads
	// (in-place reads have no queue and take no sample), and decodeLatency
	// covers requested-vector fp16 decodes.
	lookupLatency    *metrics.Histogram
	probeLatency     *metrics.Histogram
	queueWaitLatency *metrics.Histogram
	decodeLatency    *metrics.Histogram

	// layoutInstalls counts completed installLayout calls.
	layoutInstalls atomic.Int64
}

// loadState returns the current trained-state snapshot.
func (st *storeTable) loadState() *tableState { return st.state.Load() }

// mutateState applies fn to a copy of the current state and atomically
// publishes the result. In-flight serving operations keep using the
// snapshot they loaded; subsequent operations see the new state.
func (st *storeTable) mutateState(fn func(*tableState)) {
	st.stateMu.Lock()
	next := *st.state.Load()
	fn(&next)
	st.publish(&next)
	st.stateMu.Unlock()
}

// publish makes ts the table's state, permuting its admission verdicts into
// its layout's order first. Every publish does, whatever it changed: a
// re-layout moves the vectors under the bits without touching the policy.
func (st *storeTable) publish(ts *tableState) {
	ts.admit = compileAdmission(ts.policy, ts.layout)
	st.state.Store(ts)
}

// admitBits is a table's *cache.ThresholdVerdicts permuted into layout order,
// one bit per layout position, so a missed block's admission reads the words
// covering its range instead of asking the policy for each member at a
// random id. Immutable once published.
type admitBits struct {
	prefetch  []uint64 // bit p: VectorAt(p)'s prefetch is admitted
	probation []uint64 // bit p: VectorAt(p) fills on probation, not at the MRU end
	// position is where an admitted prefetch enters the queue: the policy
	// returns the same one for every id.
	position float64
}

// compileAdmission permutes p's verdicts into l's order when p is a
// *cache.ThresholdVerdicts; it returns nil for any other policy. Those keep
// the per-member walk: the shadow policies' verdicts change with every
// access, so no bit can hold them.
func compileAdmission(p cache.AdmissionPolicy, l *layout.Layout) *admitBits {
	v, ok := p.(*cache.ThresholdVerdicts)
	if !ok {
		return nil
	}
	words := (l.NumVectors() + 63) / 64
	b := &admitBits{prefetch: make([]uint64, words), probation: make([]uint64, words), position: v.Position()}
	members := make([]uint32, 0, l.BlockVectors())
	for blk := range l.NumBlocks() {
		members = l.BlockMembers(blk, members[:0])
		for slot, id := range members {
			pos := blk*l.BlockVectors() + slot
			if v.Prefetches(id) {
				b.prefetch[pos/64] |= 1 << (pos % 64)
			}
			if v.OnProbation(id) {
				b.probation[pos/64] |= 1 << (pos % 64)
			}
		}
	}
	return b
}

// sizeBytes is the heap the bits hold.
func (b *admitBits) sizeBytes() int64 {
	if b == nil {
		return 0
	}
	return 8 * int64(len(b.prefetch)+len(b.probation))
}

// tableGeom is one table's shape and block span: what the manifest records,
// and all a store keeps of a table besides its blocks on the device.
type tableGeom struct {
	name         string
	dim          int
	numVectors   int
	blockVectors int
	numBlocks    int
	blockBase    int
}

func (g tableGeom) vecBytes() int { return g.dim * fp16.ByteSize }

// placeTables validates the tables' shapes (name, dim, numVectors) and lays
// them out as contiguous block ranges, filling in each span; it returns the
// total device size in blocks. The placement is a pure function of the
// shapes, so a reopened file-backed store derives identical spans from its
// manifest.
func placeTables(geoms []tableGeom) (int, error) {
	if len(geoms) == 0 {
		return 0, fmt.Errorf("core: no tables configured")
	}
	seen := make(map[string]bool, len(geoms))
	next := 0
	for i := range geoms {
		g := &geoms[i]
		if g.numVectors <= 0 || g.dim <= 0 {
			return 0, fmt.Errorf("core: table %q is empty", g.name)
		}
		if g.vecBytes() > nvm.BlockSize {
			return 0, fmt.Errorf("core: table %q vector size %d exceeds NVM block size %d",
				g.name, g.vecBytes(), nvm.BlockSize)
		}
		if seen[g.name] {
			return 0, fmt.Errorf("core: duplicate table name %q", g.name)
		}
		seen[g.name] = true
		g.blockVectors = nvm.BlockSize / g.vecBytes()
		g.numBlocks = (g.numVectors + g.blockVectors - 1) / g.blockVectors
		g.blockBase = next
		next += g.numBlocks
	}
	return next, nil
}

// Open creates a Store, sizes (or adopts) the NVM device, writes every table
// to NVM in its original order and sets up per-table caches with an even
// split of the DRAM budget. Prefetching is disabled until Train is called.
// The store keeps no reference to Config.Tables: once Open returns, the block
// image on the device (plus the overlay of not-yet-compacted updates) is the
// only copy of a vector it holds.
//
// With Config.Backend == BackendFile the blocks live in a durable block file
// under Config.DataDir: the first Open writes the tables to disk, and
// later Opens of the same directory restore geometry, placement and trained
// state without reading, rewriting or retraining anything (see Persist).
func Open(cfg Config) (*Store, error) {
	switch cfg.Backend {
	case "", BackendMem:
		if cfg.DataDir != "" {
			return nil, fmt.Errorf("core: DataDir requires Backend %q", BackendFile)
		}
		return openMem(cfg)
	case BackendFile:
		return openFileBacked(cfg)
	default:
		return nil, fmt.Errorf("core: unknown backend %q (want %q or %q)", cfg.Backend, BackendMem, BackendFile)
	}
}

// openMem is the RAM-backed (or caller-supplied-device) open path.
func openMem(cfg Config) (*Store, error) {
	geoms, totalBlocks, err := cfg.geometry()
	if err != nil {
		return nil, err
	}
	device := cfg.Device
	owns := false
	if device == nil {
		device = nvm.NewDevice(nvm.DeviceConfig{NumBlocks: totalBlocks, Seed: cfg.Seed})
		owns = true
	} else if device.NumBlocks() < totalBlocks {
		return nil, fmt.Errorf("core: device has %d blocks, need %d", device.NumBlocks(), totalBlocks)
	}
	s, err := buildStore(cfg, device, owns, geoms, nil)
	if err != nil {
		if owns {
			device.Close()
		}
		return nil, err
	}
	if err := s.writeTables(cfg.Tables); err != nil {
		// Close the store, not just the device: the compactor must stop
		// too. A caller-supplied device stays open (Close only closes owned
		// devices).
		s.Close()
		return nil, err
	}
	return s, nil
}

// writeTables streams the caller's tables onto the device in ID order — the
// identity layout buildStore publishes for a new store. It is the first of
// the two producers of block images (renderImage is the other) and the only
// place the store reads vectors from Config.Tables. Bulk path: the manifest
// (file backend) or Open's return (mem) is the commit point, and an
// interrupted load is redone from scratch.
func (s *Store) writeTables(tables []*table.Table) error {
	bufp := getBlockBuf()
	defer putBlockBuf(bufp)
	buf := *bufp
	for i, st := range s.tables {
		for b := 0; b < st.numBlocks; b++ {
			clear(buf)
			first := b * st.blockVectors
			for slot := 0; slot < st.blockVectors && first+slot < st.numVectors; slot++ {
				raw, err := tables[i].Raw(uint32(first + slot))
				if err != nil {
					return fmt.Errorf("core: table %q: %w", st.name, err)
				}
				copy(buf[slot*st.vecBytes:], raw)
			}
			if err := s.device.WriteBlocks(st.blockBase+b, buf); err != nil {
				return fmt.Errorf("core: table %q block %d: %w", st.name, b, err)
			}
		}
	}
	return nil
}

// buildStore assembles the Store skeleton (per-table state, caches,
// counters) over an existing device without touching the device contents.
// layouts[i] is the placement table i's blocks already hold; nil means every
// table is in ID order (a new store).
func buildStore(cfg Config, device *nvm.Device, owns bool, geoms []tableGeom, layouts []*layout.Layout) (*Store, error) {
	totalVectors := 0
	for _, g := range geoms {
		totalVectors += g.numVectors
	}
	budget := cfg.DRAMBudgetVectors
	if budget <= 0 {
		budget = totalVectors / 20
		if budget < len(geoms) {
			budget = len(geoms)
		}
	}
	shards := cfg.CacheShards
	if shards <= 0 {
		shards = DefaultCacheShards()
	}

	s := &Store{
		device:     device,
		ownsDevice: owns,
		byName:     make(map[string]int, len(geoms)),
		seed:       cfg.Seed,
		dataDir:    cfg.DataDir,
		readOnly:   cfg.ReadOnly,
	}
	sched, err := iosched.New(device, iosched.Config{QueueDepth: cfg.IOSched.QueueDepth})
	if err != nil {
		return nil, err
	}
	s.sched = sched
	var inPlace *nvm.Device
	if device.ReadsInPlace() {
		inPlace = device
	}
	s.snapSeq.Store(initialSnapshotSeq(cfg.InitialSnapshotSeq))
	// The log window anchors at the initial seq: the first update gets seq
	// base+1, so a follower that bootstrapped the image at `base` can tail
	// from there. A file-backed store mirrors the log on disk for crash
	// recovery (reopen replays and removes any previous log before reaching
	// this point).
	s.deltaLog, err = newDeltaLog(cfg.UpdateLog, s.snapSeq.Load(), cfg.DataDir, cfg.Sync == nvm.SyncAlways)
	if err != nil {
		sched.Close()
		return nil, err
	}
	// placeTables rejected an empty table list, so the split cannot divide
	// by zero.
	perTable := budget / len(geoms)
	if perTable < 1 {
		perTable = 1
	}
	for i, g := range geoms {
		st := &storeTable{
			index:            i,
			name:             g.name,
			numVectors:       g.numVectors,
			dim:              g.dim,
			vecBytes:         g.vecBytes(),
			blockVectors:     g.blockVectors,
			blockBase:        g.blockBase,
			numBlocks:        g.numBlocks,
			shards:           shards,
			counters:         metrics.NewStripedCounters(counterStripes, numCounters),
			lookupLatency:    newStageHistogram(),
			probeLatency:     newStageHistogram(),
			queueWaitLatency: newStageHistogram(),
			decodeLatency:    newStageHistogram(),
			sched:            s.sched,
			inPlace:          inPlace,
			overlay:          newDeltaOverlay(),
		}
		var l *layout.Layout
		if layouts != nil {
			l = layouts[i]
		} else {
			l = layout.Identity(g.numVectors, g.blockVectors)
		}
		st.publish(&tableState{
			layout:   l,
			cacheCap: perTable,
			cache:    newTableCache(perTable, shards, st.vecBytes),
		})
		s.tables = append(s.tables, st)
		s.byName[g.name] = i
	}
	s.compactCh = make(chan struct{}, 1)
	s.compactStop = make(chan struct{})
	s.compactDone = make(chan struct{})
	go s.compactLoop()
	return s, nil
}

// Close stops the adaptation engine (if running) and the background
// compactor, drains the I/O scheduler, and releases the store's resources
// (and the device if the store created it). Every Open needs one Close: the
// compactor is a goroutine every store runs. Calling it again is harmless
// and returns the first call's error.
func (s *Store) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.close() })
	return s.closeErr
}

func (s *Store) close() error {
	s.StopAdaptation()
	// The compactor uses the device; it must be fully stopped before the
	// device goes away.
	close(s.compactStop)
	<-s.compactDone
	// Drain the scheduled (O_DIRECT) misses before the device goes away:
	// queued reads complete, late submitters get ErrClosed instead of racing
	// a closed device. In-place misses never enter the scheduler: the file
	// store's Close unmaps only under every stripe lock, so a visit in flight
	// finishes first and a later one fails with nvm.ErrNotMapped; a MemStore's
	// memory outlives its Close.
	s.sched.Close()
	logErr := s.deltaLog.close()
	if s.ownsDevice {
		if err := s.device.Close(); err != nil {
			return err
		}
	}
	return logErr
}

// Device exposes the underlying NVM device (for stats and experiments).
func (s *Store) Device() *nvm.Device { return s.device }

// IOSchedStats returns a snapshot of the I/O scheduler's counters. ok is
// always true — every store has a scheduler; the second result survives only
// because bench/ (which this repo's PRs may not edit outside a benchmark PR)
// compiles against it.
func (s *Store) IOSchedStats() (st iosched.Stats, ok bool) {
	return s.sched.Stats(), true
}

// NumTables returns the number of tables in the store.
func (s *Store) NumTables() int { return len(s.tables) }

// TableNames returns the table names in index order.
func (s *Store) TableNames() []string {
	names := make([]string, len(s.tables))
	for i, t := range s.tables {
		names[i] = t.name
	}
	return names
}

// TableIndex resolves a table name to its index.
func (s *Store) TableIndex(name string) (int, error) {
	i, ok := s.byName[name]
	if !ok {
		return 0, fmt.Errorf("core: unknown table %q", name)
	}
	return i, nil
}

// SetAdmissionPolicy installs a prefetch-admission policy for one table and
// enables prefetching; a nil policy disables prefetching. The same policy
// implementations drive the trace simulator (internal/sim), so a policy
// evaluated there behaves identically here. A cache.ThresholdAdmit is
// compiled to its verdicts over the table's ids and installed as those (its
// Counts are not kept), with its thresholds as the table's; a
// *cache.ThresholdVerdicts must have been compiled for the table's size.
func (s *Store) SetAdmissionPolicy(tableIdx int, p cache.AdmissionPolicy) error {
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return err
	}
	if ta, ok := p.(cache.ThresholdAdmit); ok {
		p = cache.CompileThreshold(ta, st.numVectors)
	}
	v, compiled := p.(*cache.ThresholdVerdicts)
	if compiled && v.Len() != st.numVectors {
		return fmt.Errorf("core: table %q: verdicts cover %d ids, table has %d", st.name, v.Len(), st.numVectors)
	}
	st.mutateState(func(ts *tableState) {
		ts.policy = p
		ts.prefetch = p != nil
		ts.demandThreshold = 0 // the tuned gate went with the tuned policy
		if compiled {
			ts.threshold, ts.demandThreshold = v.Thresholds()
		}
		ts.predicted = sim.Prediction{} // no tuner vouched for p
	})
	return nil
}

func (s *Store) tableAt(i int) (*storeTable, error) {
	if i < 0 || i >= len(s.tables) {
		return nil, fmt.Errorf("core: table index %d out of range [0,%d)", i, len(s.tables))
	}
	return s.tables[i], nil
}

// thresholdCountsHook, when non-nil, sees the access counts every threshold
// policy is compiled from, just before they are dropped: tests use it to
// rebuild the reference cache.ThresholdAdmit of a table's verdicts.
var thresholdCountsHook func(st *storeTable, counts []uint32)

// setThresholdPolicy installs, compiled to its verdicts over the table's ids,
// the cache.ThresholdAdmit that counts and ts's threshold, prefetch and
// demandThreshold describe — the policy the miniature caches replayed through
// the store's own batch algorithm (see package sim), so serving behaves
// exactly as simulated — or no policy at all when it would decide nothing, so
// a block read skips admission altogether. counts is not kept.
func (st *storeTable) setThresholdPolicy(ts *tableState, counts []uint32) {
	if thresholdCountsHook != nil {
		thresholdCountsHook(st, counts)
	}
	ts.policy = nil
	if ts.prefetch || ts.demandThreshold > 0 {
		ts.policy = cache.CompileThreshold(cache.ThresholdAdmit{
			Counts: counts, Threshold: ts.threshold, DemandThreshold: ts.demandThreshold,
		}, st.numVectors)
	}
}

// freshCache gives ts a new, empty cache of the given capacity.
func (st *storeTable) freshCache(ts *tableState, capacity int) {
	ts.cacheCap = capacity
	ts.cache = newTableCache(capacity, st.shards, st.vecBytes)
}

// resizeCacheLive changes the table's cache capacity in place with
// incremental per-shard eviction: the working set survives the resize, so
// the adaptation engine can rebalance DRAM across tables without the hit
// ratio collapsing to zero and re-warming. The shared cache object is
// mutated (not swapped), so in-flight operations holding an older state
// snapshot keep hitting the same cache.
//
// The recorded cacheCap is the *requested* capacity, even though the
// sharded cache clamps its real capacity to one item per shard: the
// adaptation engine re-derives each epoch's budget from the cacheCap sum,
// and accounting the clamped value would compound the clamp slack into
// unbounded budget growth across epochs. Returns the recorded capacity.
func (st *storeTable) resizeCacheLive(capacity int) int {
	if capacity < 1 {
		capacity = 1
	}
	st.stateMu.Lock()
	defer st.stateMu.Unlock()
	cur := st.state.Load()
	cur.cache.Resize(capacity)
	next := *cur
	next.cacheCap = capacity
	st.state.Store(&next) // layout and policy unchanged: the admission bits still hold
	return capacity
}
