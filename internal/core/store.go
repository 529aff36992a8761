package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bandana/internal/cache"
	"bandana/internal/datadir"
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
// The serving path (Lookup and the LookupBatch calls) is safe for
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
	sched *iosched.Scheduler
	// stages are the stage latency histograms of every table's lookups.
	stages *stageHistograms
	tables []*storeTable
	byName map[string]int
	seed   int64
	// dramBudget is the DRAM budget in vectors every table's cache shares
	// (Config.DRAMBudgetVectors, or its default), resolved once at open: a
	// plan splits it less the caches of the tables it leaves alone.
	dramBudget int
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
// stripes of one two-line block holding all sixteen, 8 KB per table.
const counterStripes = 64

// A table's serving counters, one index each into its StripedCounters. The
// first cache line of a stripe holds what a cache-hit batch moves, the second
// what the miss path does. A table's lookups are its hits plus its misses
// (storeTable.lookups), so they take no counter of their own. Each stage keeps the
// table's share of its time as a pair: the sum of its samples in
// nanoseconds, then their count (stageSum).
const (
	ctrHits = iota
	ctrDeltaHits
	ctrMisses
	ctrPrefetchHits
	ctrProbeNS
	ctrProbeSamples
	ctrDecodeNS
	ctrDecodeSamples
	ctrBlockReads
	ctrCoalescedReads
	ctrPrefetchAdds
	ctrProbationFills
	ctrServiceNS
	ctrServiceSamples
	ctrQueueWaitNS
	ctrQueueWaitSamples
	numCounters
)

// stage names a component of a lookup's time.
type stage int

const (
	// stageService is the device-service component of miss reads (the
	// historical "lookup latency"), always wall time: an in-place read's
	// visit, or a scheduled read's time less its own queue wait.
	stageService stage = iota
	// stageProbe is the DRAM cache/overlay probe: one sample per batch, the
	// probe's microseconds per distinct id probed.
	stageProbe
	// stageQueueWait is the scheduler's queue wait of miss reads (in-place
	// reads have no queue and take no sample).
	stageQueueWait
	// stageDecode covers requested-vector fp16 decodes.
	stageDecode
	numStages
)

// stageSum is the counter holding a stage's nanosecond sum; its sample count
// is the counter after it.
var stageSum = [numStages]int{
	stageService:   ctrServiceNS,
	stageProbe:     ctrProbeNS,
	stageQueueWait: ctrQueueWaitNS,
	stageDecode:    ctrDecodeNS,
}

// stageHistograms are a store's stage latency distributions, one per stage,
// shared by its tables: a table keeps only its sum and count of each (in its
// counters), so what it costs does not grow with the number of tables.
type stageHistograms [numStages]*metrics.Histogram

// newStageHistograms builds the layout used by the per-stage latency
// histograms: the sub-microsecond stages, an in-place block read among them,
// need finer resolution than the device-latency layout, so buckets start at
// 10 ns (0.01 us) and run to 1 s with the usual ~5% relative bucket error.
func newStageHistograms() *stageHistograms {
	var h stageHistograms
	for i := range h {
		h[i] = metrics.NewHistogram(0.01, 1.05, 1e6)
	}
	return &h
}

// sizeBytes is the heap the histograms hold.
func (h *stageHistograms) sizeBytes() int64 {
	var n int64
	for _, x := range h {
		n += x.SizeBytes()
	}
	return n
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
	// admit is the table's admission policy: the cache.ThresholdAdmit of
	// the training counts and the two thresholds above, or its pin verdict,
	// held as its verdicts in layout order (see compileAdmission); the
	// counts are not kept. nil when it has nothing to decide: prefetching
	// off and no demand gate.
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
	// per operation. stateMu serializes mutators (installImage, a committed
	// plan), never readers.
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
	// batch's hit and miss counts move once, on the one block of the stripe
	// of its first id).
	counters *metrics.StripedCounters
	// stages mirrors Store.stages: a stage sample goes to the store's
	// histogram for the stage and to the table's sum and count (observe).
	stages *stageHistograms

	// layoutInstalls counts completed installLayout calls.
	layoutInstalls atomic.Int64
}

// loadState returns the current trained-state snapshot.
func (st *storeTable) loadState() *tableState { return st.state.Load() }

// observe records a sample of stage s, us microseconds: once in the store's
// histogram for the stage, and weight times in the table's sum and count on
// counter stripe c (a sample that stands for weight samples not taken).
func (st *storeTable) observe(c []atomic.Int64, s stage, us float64, weight int64) {
	st.stages[s].Observe(us)
	c[stageSum[s]].Add(weight * int64(math.Round(us*1e3)))
	c[stageSum[s]+1].Add(weight)
}

// lookups is the table's lookup count: every lookup is a hit or a miss.
func (st *storeTable) lookups() int64 {
	return st.counters.Value(ctrHits) + st.counters.Value(ctrMisses)
}

// mutateState applies fn to a copy of the current state and atomically
// publishes the result. In-flight serving operations keep using the
// snapshot they loaded; subsequent operations see the new state.
func (st *storeTable) mutateState(fn func(*tableState)) {
	st.stateMu.Lock()
	next := *st.state.Load()
	fn(&next)
	st.state.Store(&next)
	st.stateMu.Unlock()
}

// admitBits is a table's threshold policy compiled to its verdicts, one bit
// each per layout position, so a missed block's admission reads the words
// covering its range instead of asking the policy for each member at a
// random id. Immutable once published.
type admitBits struct {
	prefetch  []uint64 // bit p: VectorAt(p)'s prefetch is admitted
	probation []uint64 // bit p: VectorAt(p) fills on probation, not at the MRU end
	// position is where an admitted prefetch enters the queue: the policy
	// returns the same one for every id.
	position float64
	// pinned is set for the pin verdict (cache.PinnedAdmit), nil otherwise:
	// the pinned set in id order, bit id of word id/64 — the very words the
	// table's cache holds as its pinned set (see vcache's Pin), so neither
	// may write them. The two bitsets above hold the verdicts of the
	// thresholds the pin is over, no pinned id on probation.
	pinned []uint64
	// warm is a pin verdict's ids in the order an install fills them into
	// the cache (see warmPinned): ascending training count, ties in id
	// order — id order alone for a verdict from a state file older than
	// version 7. nil for any other policy.
	warm []uint32
}

// bit reports whether bit p of words is set.
func bit(words []uint64, p int) bool { return words[p/64]&(1<<(p%64)) != 0 }

// verdicts is what compileAdmission asks of a policy: a cache.ThresholdAdmit
// or a cache.PinnedAdmit.
type verdicts interface {
	Prefetches(id uint32) bool
	OnProbation(id uint32) bool
	AdmitPrefetch(id uint32) (bool, float64)
}

// compileAdmission evaluates p, through its own Prefetches and OnProbation,
// at the vector of every position of l: the one way a table's admission bits
// are made (Train, adaptation, a version-4 state file). The verdicts
// sim.Replay asks of the policy are those two; a pin verdict needs only the
// first.
func compileAdmission(p verdicts, l *layout.Layout) *admitBits {
	n := l.NumVectors()
	_, position := p.AdmitPrefetch(0)
	words := (n + 63) / 64
	b := &admitBits{prefetch: make([]uint64, words), probation: make([]uint64, words), position: position}
	if pa, ok := p.(cache.PinnedAdmit); ok {
		b.pinned = pa.Set[:words]
		b.warm = pa.WarmOrder()
	}
	c := l.Cursor()
	for pos := range n {
		id := c.At(pos)
		if p.Prefetches(id) {
			b.prefetch[pos/64] |= 1 << (pos % 64)
		}
		if p.OnProbation(id) {
			b.probation[pos/64] |= 1 << (pos % 64)
		}
	}
	return b
}

// pinnedIDs returns, in ascending order, the ids a pin verdict holds; nil
// when b is not one.
func (b *admitBits) pinnedIDs() []uint32 {
	if b == nil || b.pinned == nil {
		return nil
	}
	var ids []uint32
	for w, word := range b.pinned {
		for ; word != 0; word &= word - 1 {
			ids = append(ids, uint32(w*64+bits.TrailingZeros64(word)))
		}
	}
	return ids
}

// pinnedSet is the pinned set a table's cache holds under b: nil when b is
// not a pin verdict.
func (b *admitBits) pinnedSet() []uint64 {
	if b == nil {
		return nil
	}
	return b.pinned
}

// pinnedVectors is how many ids a pin verdict holds, 0 for any other policy.
func (b *admitBits) pinnedVectors() int {
	if b == nil {
		return 0
	}
	n := 0
	for _, w := range b.pinned {
		n += bits.OnesCount64(w)
	}
	return n
}

// permuted returns b's bits rearranged over n positions: bit i of the result
// is bit src(i) of b. It moves the verdicts under a re-layout and between
// layout order and the id order of the state file; nil stays nil. The
// pinned set is in id order already and is kept as it is, and so is its
// warm order.
func (b *admitBits) permuted(n int, src func(i int) int) *admitBits {
	if b == nil {
		return nil
	}
	perm := func(words []uint64) []uint64 {
		out := make([]uint64, (n+63)/64)
		for i := range n {
			if bit(words, src(i)) {
				out[i/64] |= 1 << (i % 64)
			}
		}
		return out
	}
	return &admitBits{prefetch: perm(b.prefetch), probation: perm(b.probation), position: b.position, pinned: b.pinned, warm: b.warm}
}

// sizeBytes is the heap the bits and a pin verdict's warm order hold.
func (b *admitBits) sizeBytes() int64 {
	if b == nil {
		return 0
	}
	return 8*int64(len(b.prefetch)+len(b.probation)+len(b.pinned)) + 4*int64(len(b.warm))
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
func buildStore(cfg Config, device *nvm.Device, owns bool, geoms []datadir.TableGeom, layouts []*layout.Layout) (*Store, error) {
	totalVectors := 0
	for _, g := range geoms {
		totalVectors += g.NumVectors
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
		dramBudget: budget,
		dataDir:    cfg.DataDir,
		readOnly:   cfg.ReadOnly,
		stages:     newStageHistograms(),
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
	s.deltaLog, err = newDeltaLog(cfg.UpdateLog, s.snapSeq.Load(), s.dir(), cfg.Sync == nvm.SyncAlways)
	if err != nil {
		sched.Close()
		return nil, err
	}
	shares := initialShares(geoms, budget)
	for i, g := range geoms {
		st := &storeTable{
			index:        i,
			name:         g.Name,
			numVectors:   g.NumVectors,
			dim:          g.Dim,
			vecBytes:     g.VecBytes(),
			blockVectors: g.BlockVectors,
			blockBase:    g.BlockBase,
			numBlocks:    g.NumBlocks,
			shards:       shards,
			counters:     metrics.NewStripedCounters(counterStripes, numCounters),
			stages:       s.stages,
			sched:        s.sched,
			inPlace:      inPlace,
			overlay:      newDeltaOverlay(),
		}
		var l *layout.Layout
		if layouts != nil {
			l = layouts[i]
		} else {
			l = layout.Identity(g.NumVectors, g.BlockVectors)
		}
		ts := &tableState{layout: l}
		st.freshCache(ts, shares[i], nil)
		st.state.Store(ts)
		s.tables = append(s.tables, st)
		s.byName[g.Name] = i
	}
	s.compactCh = make(chan struct{}, 1)
	s.compactStop = make(chan struct{})
	s.compactDone = make(chan struct{})
	go s.compactLoop()
	return s, nil
}

// initialShares splits budget evenly over the tables before any training,
// capping each table's share at its size and sharing what a small table
// leaves among the others, so that no budget is stranded in a cache larger
// than its table (a later splitDRAM subtracts the whole allocation of a table
// it leaves alone). Every share is at least one vector. PlaceTables rejected
// an empty table list, so the split cannot divide by zero.
func initialShares(geoms []datadir.TableGeom, budget int) []int {
	order := make([]int, len(geoms))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(geoms[a].NumVectors, geoms[b].NumVectors) })
	shares := make([]int, len(geoms))
	left, k := budget, len(order)
	for ; k > 0 && geoms[order[len(order)-k]].NumVectors < left/k; k-- {
		i := order[len(order)-k]
		shares[i] = geoms[i].NumVectors
		left -= shares[i]
	}
	for _, i := range order[len(order)-k:] {
		shares[i] = max(left/k, 1)
	}
	return shares
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

func (s *Store) tableAt(i int) (*storeTable, error) {
	if i < 0 || i >= len(s.tables) {
		return nil, fmt.Errorf("core: table index %d out of range [0,%d)", i, len(s.tables))
	}
	return s.tables[i], nil
}

// thresholdCountsHook, when non-nil, sees the access counts every threshold
// policy is compiled from, just before they are dropped: tests use it to
// rebuild the reference cache.ThresholdAdmit of a table's bits.
var thresholdCountsHook func(st *storeTable, counts []uint32)

// setThresholdPolicy compiles into ts's layout order the deployed policy —
// the pin verdict over pinned (cache.PinnedAdmit) when pinned is non-nil,
// else the cache.ThresholdAdmit (cache.NewThresholdAdmit) that counts and
// ts's threshold and demandThreshold describe — the policy the
// miniature caches replayed through the store's own batch algorithm (see
// package sim), so serving behaves exactly as simulated. It clears the policy
// when it would decide nothing (prefetching off, no demand gate), so a block
// read skips admission altogether. counts is not kept.
func (st *storeTable) setThresholdPolicy(ts *tableState, counts []uint32, pinned []uint32) {
	if thresholdCountsHook != nil {
		thresholdCountsHook(st, counts)
	}
	ts.admit = nil
	switch {
	case pinned != nil:
		ts.admit = compileAdmission(cache.NewPinnedAdmit(cache.NewThresholdAdmit(counts, ts.threshold, ts.demandThreshold), pinned), ts.layout)
	case ts.prefetch || ts.demandThreshold > 0:
		ts.admit = compileAdmission(cache.NewThresholdAdmit(counts, ts.threshold, ts.demandThreshold), ts.layout)
	}
}

// freshCache gives ts a new, empty cache of the given capacity, holding
// pinned (a bitset over ids, ts.admit's) as its pinned set when it is
// non-nil, and pinned whole, its set implied, when it is nil and capacity
// covers the table (see pinsWhole).
func (st *storeTable) freshCache(ts *tableState, capacity int, pinned []uint64) {
	ts.cacheCap = capacity
	ts.cache = newTableCache(capacity, st.shards, st.vecBytes)
	switch {
	case st.pinsWhole(capacity, pinned):
		ts.cache.PinWhole(st.numVectors)
	case pinned != nil:
		ts.cache.Pin(pinned)
	}
}

// resizeCache changes ts's cache capacity in place with incremental
// per-shard eviction: the working set survives the resize, so adaptation can
// rebalance DRAM across tables without the hit ratio collapsing to zero and
// re-warming. The shared cache object is mutated (not swapped), so in-flight
// operations holding an older state snapshot keep hitting the same cache.
//
// The recorded cacheCap is the *requested* capacity, even though the sharded
// cache clamps its real capacity to one item per shard: each plan subtracts
// the caches of the tables it leaves alone from the cacheCap sum, and
// accounting the clamped value would shift the budget it splits.
//
// A pinned table's cache is re-pinned in place instead (vcache's Pin): each
// shard's capacity becomes the number of pinned ids that hash to it, the sum
// capacity, so the table's DRAM is its share and the cache never evicts a
// pinned id; the entries it holds outside the set stay in the room the set
// has not filled. The pinned set is the cache's own, so a request still
// serving an older verdict cannot displace a pinned id. A cache grown to
// cover its table is pinned whole in place (see pinsWhole), keeping every
// entry it holds; one shrunk below its table is resized, which ends the
// implied set, and is an even-split LRU again.
func (st *storeTable) resizeCache(ts *tableState, capacity int, pinned []uint64) {
	switch {
	case st.pinsWhole(capacity, pinned):
		ts.cache.PinWhole(st.numVectors)
	case pinned != nil:
		ts.cache.Pin(pinned)
	default:
		ts.cache.Resize(capacity)
	}
	ts.cacheCap = capacity
}

// pinsWhole reports whether a cache of the given capacity, under verdict (a
// pin verdict's set; nil for any other policy), is pinned whole (vcache's
// PinWhole: the pinned set implied, every id of the table): it holds no pin
// verdict and covers the table. Such a cache can never evict, so it keeps no
// recency and no hash index, only a slot word per id, and a hit takes no
// lock. The form follows from the
// capacity here, never persisted: a one-shard replay of a cache that covers
// its table evicts nothing, so the miniature caches predict it unchanged.
func (st *storeTable) pinsWhole(capacity int, verdict []uint64) bool {
	return verdict == nil && capacity >= st.numVectors
}
