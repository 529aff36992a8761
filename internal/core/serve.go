package core

import (
	"bytes"
	"fmt"
	"math/bits"
	randv2 "math/rand/v2"
	"slices"
	"sync"
	"time"

	"bandana/internal/cache"
	"bandana/internal/fp16"
	"bandana/internal/iosched"
	"bandana/internal/nvm"
)

// This file is the serving path: the lookup APIs, the one read routine they
// all run (serveBatch) and the single-vector update path. Everything
// here operates on a tableState snapshot loaded once per operation; the
// mutating layers (train.go, rewrite.go, adapt.go) publish new snapshots
// through the atomic state pointer, so serving never blocks on them.

// dedupeScanThreshold is the batch size up to which duplicate ids are found
// by linear scan; larger batches use an open-addressing table in the
// lease's scratch. Neither allocates.
const dedupeScanThreshold = 32

// probeSampleEvery is how many untraced single-id probes share one timed
// sample.
const probeSampleEvery = 64

// Lookup returns the embedding vector id of table tableIdx, decoded into a
// slice the caller owns: a batch of one, so a cache hit allocates only the
// vector it returns. Its decode is not timed: two clock reads and a
// histogram update would cost half as much again as the hit itself.
func (s *Store) Lookup(tableIdx int, id uint32) ([]float32, error) {
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return nil, err
	}
	ids := [1]uint32{id}
	l, err := st.serve(ids[:], nil)
	if err != nil {
		return nil, err
	}
	vec := st.decodeViews(l.views, id, false, nil)
	l.release()
	return vec, nil
}

// LookupBatch returns the embeddings of every id in ids from table tableIdx.
// Lookups that miss the cache are grouped by NVM block, so a batch that hits
// k distinct blocks issues exactly k block reads regardless of how many of
// its vectors live in each block — the batched analogue of the paper's
// prefetching. The returned vectors are caller-owned and share one backing
// array per batch.
func (s *Store) LookupBatch(tableIdx int, ids []uint32) ([][]float32, error) {
	return s.LookupBatchTraced(tableIdx, ids, nil)
}

// LookupBatchTraced is LookupBatch with a per-stage latency breakdown
// accumulated into tr; a nil tr is the untraced LookupBatch.
func (s *Store) LookupBatchTraced(tableIdx int, ids []uint32, tr *StageTrace) ([][]float32, error) {
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return nil, err
	}
	l, err := st.serve(ids, tr)
	if err != nil {
		return nil, err
	}
	out := make([][]float32, len(ids))
	if len(ids) > 0 {
		flat := st.decodeViews(l.views, ids[0], true, tr)
		for i := range out {
			out[i] = flat[i*st.dim : (i+1)*st.dim : (i+1)*st.dim]
		}
	}
	l.release()
	return out, nil
}

// LookupBatchRaw is LookupBatch without the decode: each returned slice is
// the vector's fp16 encoding, byte-identical to the cached copy or the block
// image — the read path of the binary wire protocol. Float and raw lookups
// are the same serving routine (counters, admission, prefetch, cache fill),
// so each warms the cache for the other. The result and its bytes are owned
// by the caller (copied out of the lease before return); servers on the hot
// path use LookupBatchRawLeased to skip the copy.
func (s *Store) LookupBatchRaw(tableIdx int, ids []uint32) ([][]byte, error) {
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return nil, err
	}
	l, err := st.serve(ids, nil)
	if err != nil {
		return nil, err
	}
	out := copyRawViews(l.views)
	l.release()
	return out, nil
}

// LookupBatchRawLeased is LookupBatchRaw returning the lease's views
// directly: zero copies on the wire protocol's read path. The returned slice
// itself, not only the bytes its views point at, is valid until release is
// called, which the caller must do exactly once, after it has finished
// reading (or serializing) them: the release recycles the lease, so a leased
// batch allocates nothing. release is non-nil iff err is nil.
func (s *Store) LookupBatchRawLeased(tableIdx int, ids []uint32) ([][]byte, func(), error) {
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return nil, nil, err
	}
	l, err := st.serve(ids, nil)
	if err != nil {
		return nil, nil, err
	}
	return l.views, l.release, nil
}

// serve runs one batch through serveBatch on a pooled lease. On success the
// caller reads l.views and then calls l.release exactly once.
func (st *storeTable) serve(ids []uint32, tr *StageTrace) (*lease, error) {
	l := leasePool.Get().(*lease)
	l.views = grown(l.views, len(ids))
	if err := st.serveBatch(ids, l, tr); err != nil {
		l.done()
		return nil, err
	}
	return l, nil
}

// lease is one batch's pooled working set: the views it hands out, the
// buffer its misses are copied into, the cache lease the views are read
// under and serveBatch's scratch. release is l.done, bound once when the
// pool makes l, so handing it out allocates nothing.
type lease struct {
	views   [][]byte // one result per requested id
	raw     []byte   // the copies of the batch's misses
	end     func()   // ends the cache lease; nil when none is held
	release func()

	uniq   []uint32 // the batch's distinct ids, in first-occurrence order
	first  []int32  // first[i] is the index in uniq of ids[i]
	uviews [][]byte // one result per distinct id, when ids repeat
	// table is dedupe's open-addressing table for batches of more than
	// dedupeScanThreshold ids: id<<32 | (index in uniq + 1), 0 when empty.
	table []uint64
	// keys, missed and abs are pass 2's: the misses' sort keys, the misses
	// in block order and the distinct blocks they read.
	keys   []uint64
	missed []missRef
	abs    []int
}

// maxPooledLeaseIDs and maxPooledLeaseBytes bound the view slice and the
// miss-copy buffer a pooled lease keeps (its scratch is sized by the same
// batches as its views), so one huge batch does not pin its buffers for the
// life of the process.
const (
	maxPooledLeaseIDs   = 8192
	maxPooledLeaseBytes = 256 << 10
)

// leasePool's New is set in init: done puts back into the pool, so the
// pool's initializer cannot refer to it.
var leasePool sync.Pool

func init() {
	leasePool.New = func() any {
		l := new(lease)
		l.release = l.done
		return l
	}
}

// done ends the cache lease, if one is held, and returns l to the pool,
// dropping its references to served bytes.
func (l *lease) done() {
	if l.end != nil {
		l.end()
		l.end = nil
	}
	clear(l.views)
	clear(l.uviews)
	l.uviews = l.uviews[:0]
	if cap(l.views) <= maxPooledLeaseIDs && cap(l.raw) <= maxPooledLeaseBytes {
		leasePool.Put(l)
	}
}

// copyRawViews copies every view into one freshly allocated buffer and
// returns a fresh slice of windows of it, so the results survive the lease's
// release. bytes.Join allocates the buffer without zeroing it first, which a
// make of it would do for bytes the copy overwrites at once.
func copyRawViews(views [][]byte) [][]byte {
	out := make([][]byte, len(views))
	buf := bytes.Join(views, nil)
	for i, v := range views {
		out[i], buf = buf[:len(v):len(v)], buf[len(v):]
	}
	return out
}

// TableDim returns the per-vector element count of table tableIdx.
func (s *Store) TableDim(tableIdx int) (int, error) {
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return 0, err
	}
	return st.dim, nil
}

// UpdateVector overwrites the embedding of vector id in table tableIdx
// (e.g. after periodic re-training of the model) and invalidates the cached
// copy. The update appends a single log record and is served from the DRAM
// overlay until background compaction folds it into the block image, which
// is when the device's write counters move (CompactDeltas forces it; see
// deltalog.go).
func (s *Store) UpdateVector(tableIdx int, id uint32, vec []float32) error {
	_, err := s.UpdateVectorSeq(tableIdx, id, vec)
	return err
}

// UpdateVectorSeq is UpdateVector returning the snapshot seq the update
// committed at — under concurrent updates the store's live SnapshotSeq may
// already be past it, so callers that promise "the seq of THIS update"
// (the HTTP update handler) must use this return value, not a later read.
func (s *Store) UpdateVectorSeq(tableIdx int, id uint32, vec []float32) (uint64, error) {
	if err := s.checkWritable(); err != nil {
		return 0, err
	}
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return 0, err
	}
	if len(vec) != st.dim {
		return 0, fmt.Errorf("core: table %q: vector has %d elements, want %d", st.name, len(vec), st.dim)
	}
	return s.applyUpdate(st, id, fp16.EncodeSlice(make([]byte, 0, st.vecBytes), vec), true)
}

// UpdateVectorRaw is UpdateVector with an already-encoded fp16 payload
// (exactly VectorBytes long) — the binary wire protocol's write path, which
// carries fp16 end to end and never decodes.
func (s *Store) UpdateVectorRaw(tableIdx int, id uint32, raw []byte) error {
	if err := s.checkWritable(); err != nil {
		return err
	}
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return err
	}
	if len(raw) != st.vecBytes {
		return fmt.Errorf("core: table %q: raw vector has %d bytes, want %d", st.name, len(raw), st.vecBytes)
	}
	_, err = s.applyUpdate(st, id, raw, false)
	return err
}

// checkID rejects a vector id outside the table.
func (st *storeTable) checkID(id uint32) error {
	if int(id) >= st.numVectors {
		return fmt.Errorf("core: table %q: vector id out of range: %d (table has %d)", st.name, id, st.numVectors)
	}
	return nil
}

// missRef is one requested vector that missed the cache: its position in the
// operation's output, and (in serveBatch's pass 2) the block that holds it.
type missRef struct {
	pos   int
	id    uint32
	block int
}

// admitBlock offers the vectors of the freshly read block to prefetch
// admission and caches the fp16 bytes of the ones admitted, in slot order.
// requested lists the block's vectors that were explicitly asked for in this
// operation: they are cached separately and must not be double-counted as
// prefetches. The verdicts are the layout-order bits of the block's range —
// a word or two read, and the layout consulted only for the few slots
// admitted, through one cursor (in an implied tail, one select for the
// block and a walk of its bits). An admitted candidate costs one cache
// probe: the guarded insert itself refuses an id that is already resident.
func (st *storeTable) admitBlock(ts *tableState, buf []byte, epoch uint64, block int, requested []missRef) {
	b := ts.admit
	bv := ts.layout.BlockVectors()
	lo := block * bv
	hi := min(lo+bv, ts.layout.NumVectors())
	c := ts.layout.Cursor()
	for p := lo; p < hi; p++ {
		w := b.prefetch[p/64] >> (p % 64)
		if w == 0 {
			p |= 63 // no admitted slot left in this word
			continue
		}
		p += bits.TrailingZeros64(w)
		if p >= hi {
			break
		}
		st.admitMember(ts, buf, epoch, p-lo, c.At(p), b.position, requested)
	}
}

// admitMember caches id, slot mslot of the block in buf, as a prefetch at
// queue position pos, unless it was requested or the overlay holds it.
func (st *storeTable) admitMember(ts *tableState, buf []byte, epoch uint64, mslot int, id uint32, pos float64, requested []missRef) {
	for _, ref := range requested {
		if ref.id == id {
			return
		}
	}
	if st.overlay.contains(id) {
		// The block image's copy of an overlaid vector is stale; its
		// authoritative bytes are served from the overlay until compaction,
		// so never cache the image's.
		return
	}
	raw := buf[mslot*st.vecBytes : (mslot+1)*st.vecBytes]
	if ts.cache.AddAtGuard(id, raw, pos, true, &st.epoch, epoch) {
		st.counters.Stripe(hashID(id))[ctrPrefetchAdds].Add(1)
	}
}

// readBlocksMiss reads a set of distinct absolute device blocks on the miss
// path, as demand reads through the I/O scheduler (coalescing with concurrent
// misses for the same block, batching with independent ones). It returns the
// caller's own queue wait — the wait of the reads it led, summed over
// re-submits, 0 if it led none — and, when the scheduler served any block
// from someone else's device read, a per-block coalesced mask (nil
// otherwise). The caller must hold st.rewriteMu shared and must have loaded
// epoch from st.epoch BEFORE calling.
//
// Freshness: the epoch rides along as the read's tag. A read that attached
// to an already-issued device read (Late) may receive bytes snapshotted
// arbitrarily earlier — in particular before this caller's own epoch load —
// so comparing the *caller's* epoch to the current one cannot detect the
// staleness. Comparing the *leader's* tag can, exactly: the epoch is
// monotonic, so leaderTag == current epoch proves no NVM write to this
// table landed anywhere between the leader's epoch load (which precedes
// the device read) and now, making the bytes current; any write in between
// leaves leaderTag behind the current epoch and forces the whole set to be
// re-submitted. Returns the epoch the bytes are consistent with.
func (st *storeTable) readBlocksMiss(abs []int, dst []byte, epoch uint64) (wait float64, coalesced []bool, outEpoch uint64, err error) {
	for {
		results, err := st.sched.ReadBlocks(abs, dst, iosched.Demand, epoch)
		if err != nil {
			return 0, nil, epoch, err
		}
		// A call's leaders share one wait: its own.
		anyCoalesced, stale := false, false
		var own float64
		for _, r := range results {
			if !r.Coalesced {
				own = r.WaitUS
				continue
			}
			anyCoalesced = true
			if r.Late && r.LeaderTag != st.epoch.Load() {
				stale = true
			}
		}
		wait += own
		if stale {
			epoch = st.epoch.Load()
			continue
		}
		if anyCoalesced {
			coalesced = make([]bool, len(results))
			for i, r := range results {
				coalesced[i] = r.Coalesced
			}
		}
		return wait, coalesced, epoch, nil
	}
}

// decodeViews decodes the fp16 views of one operation, whose first id is
// first, into a single backing array (vector i at [i*dim, (i+1)*dim)). When
// timed, the whole decode is one sample of the decode stage, counted on
// first's stripe. The caller still holds the lease the views were served
// under.
func (st *storeTable) decodeViews(views [][]byte, first uint32, timed bool, tr *StageTrace) []float32 {
	var start time.Time
	if timed {
		start = time.Now()
	}
	flat := make([]float32, len(views)*st.dim)
	for i, v := range views {
		fp16.DecodeSlice(flat[i*st.dim:(i+1)*st.dim], v)
	}
	if timed {
		d := usSince(start)
		st.observe(st.counters.Stripe(hashID(first)), stageDecode, d, 1)
		if tr != nil {
			tr.DecodeUS += d
		}
	}
	return flat
}

// serveBatch is the store's one read routine. It fills l.views — len(ids)
// entries, all nil on entry — with the fp16 encoding of each id, grouping
// cache misses by NVM block so that each distinct block is read only once
// per batch, and runs the full serving machinery: counters, dedupe,
// admission, prefetch, cache fill. The misses are copied into l.raw, and
// every other buffer it needs is the lease's scratch. tr, when non-nil,
// accumulates the per-stage latency breakdown.
//
// Cache hits are handed out as views into the cache's arenas, valid only
// under the cache lease serveBatch takes before its first probe and leaves
// in l.end, for l.done to end, on success or error. Only pass-1
// cache hits hand out leased views (overlay bytes are heap-stable and pass-2
// results are copies in l.raw), so that one cache lease covers everything.
func (st *storeTable) serveBatch(ids []uint32, l *lease, tr *StageTrace) error {
	for _, id := range ids {
		if err := st.checkID(id); err != nil {
			return err
		}
	}
	if len(ids) == 0 {
		return nil
	}
	ts := st.loadState()
	// Pass 2 may reload the state snapshot, but a swapped-in cache never
	// contributes views to this operation's output (pass 2 only inserts), so
	// leasing the pass-1 cache is sufficient.
	l.end = ts.cache.Lease()
	// One batch is one co-access set ("query" in the paper's terms): record
	// it whole so the adaptation engine sees the hypergraph SHP needs, not
	// just a flat ID stream.
	if r := st.recorder.Load(); r != nil {
		r.Record(ids)
	}

	// Pass 1: serve cache hits and collect misses. Real batches are
	// power-law — the same hot id often appears many times in one request —
	// so repeated ids are deduplicated first: each unique id is resolved
	// (cache probe, block read) exactly once, into views, and the result is
	// fanned back out to every position at the end. Every instance still
	// counts as a lookup and inherits its unique id's hit/miss
	// classification. Without repeats, uniq and views are ids and l.views.
	out := l.views
	uniq, views, first := ids, out, []int32(nil)
	if len(ids) > dedupeScanThreshold || hasRepeat(ids) {
		if u, f := l.dedupe(ids); f != nil {
			uniq, first = u, f
			l.uviews = grown(l.uviews, len(u))
			views = l.uviews
		}
	}
	// The probe takes each cache shard's lock once for all of the batch's
	// ids in that shard, and is timed once per batch: a clock read per id
	// would be a measurable tax on the all-DRAM hit path. An untraced probe
	// of one id, where the two clock reads and the sample would cost as much
	// as the probe itself, is timed once in probeSampleEvery, and its sample
	// stands for that many, so the table's probe Mean stays the mean over
	// all batches rather than leaning to the larger ones.
	var deltaHits int64
	timeProbe, probeWeight := true, int64(1)
	if len(uniq) == 1 && tr == nil {
		timeProbe, probeWeight = randv2.Uint32()%probeSampleEvery == 0, probeSampleEvery
	}
	var probeStart time.Time
	if timeProbe {
		probeStart = time.Now()
	}
	prefetchHits := ts.cache.GetBatch(uniq, views, func(u int) []byte {
		// A miss probes the delta overlay before the miss path: an updated
		// vector's authoritative bytes live there until compaction folds
		// them into the block image (whose copy is stale). The overlay's
		// filter answers first, with no lock and no epoch load: an id whose
		// bit is clear is not overlaid, or its put is still in flight and
		// this probe is ordered before it (pass 2 probes again per block).
		//
		// On a shard that can fill, this runs under the shard lock and a
		// non-nil result is cached. The epoch is loaded BEFORE the overlay
		// read so a concurrent newer update — overlay put, then epoch bump,
		// then cache invalidate — can never let these older bytes be cached
		// past their invalidation: a bump since means serve them but do not
		// cache them, and a bump after the check is followed by that
		// update's removal, which waits for this shard lock. On a sealed
		// shard of a pinned cache it runs without the shard lock and its
		// result is never cached, so the bytes are only served, as of this
		// read. (applyUpdate takes the overlay lock and a shard lock one
		// after the other, never nested, so taking the overlay's read lock
		// here cannot deadlock.)
		if !st.overlay.mayHold(uniq[u]) {
			return nil
		}
		epoch := st.epoch.Load()
		raw := st.overlay.get(uniq[u])
		if raw == nil {
			return nil
		}
		views[u] = raw
		deltaHits++
		if st.epoch.Load() != epoch {
			return nil
		}
		return raw
	})
	// The counters move once per batch, on the stripe of its first id.
	c := st.counters.Stripe(hashID(ids[0]))
	var probeUS float64
	if timeProbe {
		probeUS = usSince(probeStart)
		st.observe(c, stageProbe, probeUS/float64(len(uniq)), probeWeight)
	}
	// keys lists the misses, each as its index in uniq; pass 2 adds the
	// block above it.
	keys := grown(l.keys, len(views))[:0]
	for u, v := range views {
		if v == nil {
			keys = append(keys, uint64(u))
		}
	}
	l.keys = keys
	hits := len(ids) - len(keys)
	if first != nil {
		hits = 0
		for _, u := range first {
			if views[u] != nil {
				hits++
			}
		}
	}
	c[ctrHits].Add(int64(hits))
	if misses := len(ids) - hits; misses > 0 {
		c[ctrMisses].Add(int64(misses))
	}
	if prefetchHits > 0 {
		c[ctrPrefetchHits].Add(int64(prefetchHits))
	}
	if deltaHits > 0 {
		c[ctrDeltaHits].Add(deltaHits)
	}
	if tr != nil {
		tr.Lookups += len(ids)
		tr.Hits += hits
		tr.Misses += len(ids) - hits
		tr.ProbeUS += probeUS
	}
	if len(keys) == 0 {
		fanOut(out, views, first)
		return nil
	}

	// Pass 2: one NVM read per distinct block; copy all requested vectors
	// out of it and apply the usual prefetch admission to the rest. Blocks are
	// processed in ascending order, and a block's vectors in batch order, so
	// a batch's cache effects are deterministic: sorting the keys, block <<
	// 32 | index in uniq, gives both, and both readers hand
	// missStep.serveBlock the blocks in that order. The whole pass holds the
	// rewrite lock shared so the layout used for grouping and slot lookup
	// matches the bytes on NVM; a rewrite's exclusive acquisition waits for
	// every read in flight, scheduled or in place.
	//
	// Lock order: an in-place read serves each block under the store's read
	// lock for it (a file store's stripe RLock, a MemStore's RWMutex), and
	// serveBlock takes the overlay's read lock and cache shard mutexes inside
	// it. So no path may take a block lock — read or write a block — while
	// holding the overlay lock or a shard mutex. None does: applyUpdate holds
	// each of those alone, the overlay's and the cache's methods never call
	// out to the device, and the compactor, the layout install and Close
	// reach the block locks holding neither.
	st.rewriteMu.RLock()
	defer st.rewriteMu.RUnlock()
	ts = st.loadState()
	for i, k := range keys {
		keys[i] = uint64(ts.layout.BlockOf(uniq[k]))<<32 | k
	}
	slices.Sort(keys)
	missed := grown(l.missed, len(keys))
	abs := grown(l.abs, len(keys))[:0]
	for i, k := range keys {
		u := uint32(k)
		missed[i] = missRef{pos: int(u), id: uniq[u], block: int(k >> 32)}
		if i == 0 || missed[i].block != missed[i-1].block {
			abs = append(abs, st.blockBase+missed[i].block)
		}
	}
	l.missed, l.abs = missed, abs

	// The misses are copied off the block images into l.raw, handed out as
	// capacity-limited sub-slices; it is sized up front, so no append moves
	// it.
	l.raw = slices.Grow(l.raw[:0], len(missed)*st.vecBytes)
	// A sealed cache refuses every id it does not hold (vcache.Cache.Sealed),
	// so no fill or prefetch offer can change it: the batch makes none.
	m := missStep{st: st, ts: ts, tr: tr, l: l, views: views, missed: missed, sealed: ts.cache.Sealed()}
	var err error
	if st.inPlace != nil {
		err = m.readInPlace(abs)
	} else {
		err = m.readScheduled(abs)
	}
	if err != nil {
		return fmt.Errorf("core: table %q: %w", st.name, err)
	}
	fanOut(out, views, first)
	return nil
}

// missStep is pass 2 of serveBatch once the reads are issued: it serves one
// missed block after another, whichever reader supplied the bytes. It is a
// value on serveBatch's stack with methods, not a closure over pass-1 locals,
// so that a miss batch allocates no closure.
type missStep struct {
	st     *storeTable
	ts     *tableState
	tr     *StageTrace
	l      *lease // its raw takes the copies of the requested vectors
	views  [][]byte
	missed []missRef // sorted by block
	next   int       // missed[next] is the first ref of the next block
	// sealed says the cache refused every id it did not hold when the
	// batch began its reads, so serveBlock neither fills nor admits.
	sealed bool
	// epoch is the table epoch the blocks' bytes are consistent with, and
	// coalesced, when non-nil, flags the blocks served by another caller's
	// device read.
	epoch     uint64
	coalesced []bool
}

// readInPlace is pass 2's reader when the device's blocks are memory (the
// mem backend, a buffered file store's mapping): each block is served
// straight from that memory under the store's read lock for it, with no
// scheduler and no block copy. The epoch is loaded before the first block is
// held, so the bytes are at least that fresh. The visit's wall time — the
// reads and the copies, fills and admissions done under them — is the
// device-service sample; there is no queue wait.
func (m *missStep) readInPlace(abs []int) error {
	m.epoch = m.st.epoch.Load()
	start := time.Now()
	if err := m.st.inPlace.VisitBlocks(abs, m.serveBlock); err != nil {
		return err
	}
	us := usSince(start)
	m.st.observe(m.st.counters.Stripe(uint64(abs[0])), stageService, us, 1)
	if m.tr != nil {
		m.tr.ServiceUS += us
	}
	return nil
}

// readScheduled is pass 2's reader for every other device (a file store read
// with pread): one batched demand read through the I/O scheduler covers every
// missed block — the reads overlap at the device instead of being issued one
// by one, and coalesce with concurrent misses of the same blocks — and the
// blocks are then served from the copy. The scheduler reads into a pooled
// buffer directly, so it is the aligned kind direct I/O needs. The read's
// wall time splits into the two stages: the caller's own queue wait, and the
// rest as device service.
func (m *missStep) readScheduled(abs []int) error {
	bufp := nvm.GetBatchBuf(len(abs))
	defer nvm.PutBatchBuf(bufp)
	batch := *bufp
	start := time.Now()
	wait, coalesced, epoch, err := m.st.readBlocksMiss(abs, batch, m.st.epoch.Load())
	if err != nil {
		return err
	}
	service := usSince(start) - wait
	c := m.st.counters.Stripe(uint64(abs[0]))
	m.st.observe(c, stageService, service, 1)
	m.st.observe(c, stageQueueWait, wait, 1)
	if m.tr != nil {
		m.tr.ServiceUS += service
		m.tr.QueueWaitUS += wait
	}
	m.epoch, m.coalesced = epoch, coalesced
	for bi := range abs {
		m.serveBlock(bi, batch[bi*nvm.BlockSize:(bi+1)*nvm.BlockSize])
	}
	return nil
}

// serveBlock serves block bi of the batch (the next in ascending order) from
// buf, its bytes: the requested vectors are copied out and cached, and the
// block's other vectors offered to prefetch admission.
func (m *missStep) serveBlock(bi int, buf []byte) {
	st, ts := m.st, m.ts
	block := m.missed[m.next].block
	lo := m.next
	for m.next < len(m.missed) && m.missed[m.next].block == block {
		m.next++
	}
	refs := m.missed[lo:m.next]
	if m.coalesced != nil && m.coalesced[bi] {
		st.counters.Stripe(uint64(block))[ctrCoalescedReads].Add(1)
	} else {
		st.counters.Stripe(uint64(block))[ctrBlockReads].Add(1)
		if m.tr != nil {
			m.tr.BlockReads++
		}
	}

	for _, ref := range refs {
		// Updated between the pass-1 overlay probe and this block read:
		// serve the overlay bytes and skip the cache fill. The image's copy
		// is stale and the epoch guard alone cannot catch this case: an
		// update moves the epoch without touching NVM, so a block re-read
		// after it still returns pre-update bytes.
		if oraw := st.overlay.get(ref.id); oraw != nil {
			m.views[ref.pos] = oraw
			continue
		}
		slot := ts.layout.SlotOf(ref.id)
		l := m.l
		off := len(l.raw)
		l.raw = append(l.raw, buf[slot*st.vecBytes:(slot+1)*st.vecBytes]...)
		rawCopy := l.raw[off:len(l.raw):len(l.raw)]
		m.views[ref.pos] = rawCopy
		if m.sealed {
			continue
		}
		// A requested vector is always offered to the cache; the policy
		// only picks where it enters the queue (probation for an id training
		// says is cold). A pinned table's cache files a pinned id off the
		// queue, and takes another only into room the pinned set leaves.
		var pos float64
		if b := ts.admit; b != nil && b.probation != nil {
			if p := block*ts.layout.BlockVectors() + slot; bit(b.probation, p) {
				pos = cache.ProbationPosition
			}
		}
		if ts.cache.AddAtGuard(ref.id, rawCopy, pos, false, &st.epoch, m.epoch) && pos > 0 {
			st.counters.Stripe(hashID(ref.id))[ctrProbationFills].Add(1)
		}
	}
	if ts.prefetch && !m.sealed {
		st.admitBlock(ts, buf, m.epoch, block, refs)
	}
}

// fanOut hands each unique id's result to every position of the batch that
// asked for it: out[i] = views[first[i]]. first is nil when no id repeated,
// and views is then out itself.
func fanOut(out, views [][]byte, first []int32) {
	for i, u := range first {
		out[i] = views[u]
	}
}

// hasRepeat reports whether an id occurs more than once in ids, by linear
// scan: for the small batches it is used on, cheaper than any table.
func hasRepeat(ids []uint32) bool {
	for i := 1; i < len(ids); i++ {
		if slices.Contains(ids[:i], ids[i]) {
			return true
		}
	}
	return false
}

// grown returns s resized to n, reallocating only when its capacity is short.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// dedupe finds the distinct ids of ids in first-occurrence order and, for
// each position, the index of its id among them. Both are nil when no id
// repeats.
func (l *lease) dedupe(ids []uint32) (uniq []uint32, first []int32) {
	uniq, first = l.uniq[:0], grown(l.first, len(ids))
	repeats := false
	if len(ids) <= dedupeScanThreshold {
		for i, id := range ids {
			u := slices.Index(uniq, id)
			if u < 0 {
				u = len(uniq)
				uniq = append(uniq, id)
			} else {
				repeats = true
			}
			first[i] = int32(u)
		}
	} else {
		// At most half full, so probe chains stay short.
		shift := 32 - bits.Len(uint(2*len(ids)-1))
		mask := uint32(1)<<(32-shift) - 1
		l.table = grown(l.table, int(mask)+1)
		clear(l.table)
		for i, id := range ids {
			p := (id * 0x9E3779B1) >> shift
			for {
				e := l.table[p]
				if e == 0 {
					l.table[p] = uint64(id)<<32 | uint64(len(uniq)+1)
					first[i] = int32(len(uniq))
					uniq = append(uniq, id)
					break
				}
				if uint32(e>>32) == id {
					first[i] = int32(uint32(e)) - 1
					repeats = true
					break
				}
				p = (p + 1) & mask
			}
		}
	}
	l.uniq, l.first = uniq, first
	if !repeats {
		return nil, nil
	}
	return uniq, first
}
