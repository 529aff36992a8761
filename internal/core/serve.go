package core

import (
	"cmp"
	"fmt"
	"math/bits"
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
// by linear scan; larger batches use an open-addressing table in the pooled
// batch scratch. Neither allocates.
const dedupeScanThreshold = 32

// Lookup returns the embedding vector id of table tableIdx, decoded into a
// slice the caller owns.
func (s *Store) Lookup(tableIdx int, id uint32) ([]float32, error) {
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return nil, err
	}
	return st.lookup(id, nil)
}

// LookupByName is Lookup with a table name.
func (s *Store) LookupByName(name string, id uint32) ([]float32, error) {
	i, err := s.TableIndex(name)
	if err != nil {
		return nil, err
	}
	return s.Lookup(i, id)
}

// LookupBatch returns the embeddings of every id in ids from table tableIdx.
// Lookups that miss the cache are grouped by NVM block, so a batch that hits
// k distinct blocks issues exactly k block reads regardless of how many of
// its vectors live in each block — the batched analogue of the paper's
// prefetching. The returned vectors are caller-owned and share one backing
// array per batch.
func (s *Store) LookupBatch(tableIdx int, ids []uint32) ([][]float32, error) {
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return nil, err
	}
	return st.lookupBatch(ids, nil)
}

// LookupBatchRaw is LookupBatch without the decode: each returned slice is
// the vector's fp16 encoding, byte-identical to the cached copy or the block
// image — the read path of the binary wire protocol. Float and raw lookups
// are the same serving routine (counters, admission, prefetch, cache fill),
// so each warms the cache for the other. Returned slices are owned by the
// caller (copied out of the cache arenas before return); servers on the hot
// path use LookupBatchRawLeased to skip the copy.
func (s *Store) LookupBatchRaw(tableIdx int, ids []uint32) ([][]byte, error) {
	out, release, err := s.LookupBatchRawLeased(tableIdx, ids)
	if err != nil {
		return nil, err
	}
	copyRawViews(out)
	release()
	return out, nil
}

// LookupBatchRawLeased is LookupBatchRaw returning arena views directly:
// zero copies on the wire protocol's read path. The returned slices are
// valid until release is called, which the caller must do exactly once,
// after it has finished reading (or serializing) them. release is non-nil
// iff err is nil.
func (s *Store) LookupBatchRawLeased(tableIdx int, ids []uint32) ([][]byte, func(), error) {
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]byte, len(ids))
	release, err := st.serveBatch(ids, out, nil)
	if err != nil {
		return nil, nil, err
	}
	return out, release, nil
}

// copyRawViews rewrites every view in out into one freshly allocated buffer,
// so the results survive the lease release.
func copyRawViews(out [][]byte) {
	n := 0
	for _, v := range out {
		n += len(v)
	}
	if n == 0 {
		return
	}
	buf := make([]byte, 0, n)
	for i, v := range out {
		if v == nil {
			continue
		}
		off := len(buf)
		buf = append(buf, v...)
		out[i] = buf[off:len(buf):len(buf)]
	}
}

// LookupBatchRawByName is LookupBatchRaw with a table name.
func (s *Store) LookupBatchRawByName(name string, ids []uint32) ([][]byte, error) {
	i, err := s.TableIndex(name)
	if err != nil {
		return nil, err
	}
	return s.LookupBatchRaw(i, ids)
}

// TableDim returns the per-vector element count of table tableIdx.
func (s *Store) TableDim(tableIdx int) (int, error) {
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return 0, err
	}
	return st.dim, nil
}

// Request is one recommendation request: for each table (by index), the
// vector IDs to look up.
type Request [][]uint32

// ServeRequest resolves every lookup of a request, returning the embeddings
// grouped by table.
func (s *Store) ServeRequest(req Request) ([][][]float32, error) {
	return s.serveRequest(req, nil)
}

func (s *Store) serveRequest(req Request, tr *StageTrace) ([][][]float32, error) {
	if len(req) > len(s.tables) {
		return nil, fmt.Errorf("core: request has %d tables, store has %d", len(req), len(s.tables))
	}
	out := make([][][]float32, len(req))
	for ti, ids := range req {
		if len(ids) == 0 {
			continue
		}
		vecs, err := s.tables[ti].lookupBatch(ids, tr)
		if err != nil {
			return nil, err
		}
		out[ti] = vecs
	}
	return out, nil
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
// prefetches. For the deployed ThresholdAdmit the verdicts are the compiled
// bits of the block's range — a word or two read, and the layout consulted
// only for the few slots admitted; any other policy is asked member by
// member. An admitted candidate costs one cache probe: the guarded insert
// itself refuses an id that is already resident. members is the walk's
// scratch.
func (st *storeTable) admitBlock(ts *tableState, buf []byte, epoch uint64, block int, members *[]uint32, requested []missRef) {
	if b := ts.admit; b != nil {
		bv := ts.layout.BlockVectors()
		lo := block * bv
		hi := min(lo+bv, ts.layout.NumVectors())
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
			st.admitMember(ts, buf, epoch, p-lo, ts.layout.VectorAt(p), b.position, requested)
		}
		return
	}
	*members = ts.layout.BlockMembers(block, (*members)[:0])
	for mslot, other := range *members {
		if admit, pos := ts.policy.AdmitPrefetch(other); admit {
			st.admitMember(ts, buf, epoch, mslot, other, pos, requested)
		}
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
		st.prefetchAdds.Inc(hashID(id))
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

// decodeViews decodes the fp16 views of one operation into a single backing
// array (vector i at [i*dim, (i+1)*dim)). When timed, the whole decode is one
// sample of the decode stage. The caller still holds the lease the views
// were served under.
func (st *storeTable) decodeViews(views [][]byte, timed bool, tr *StageTrace) []float32 {
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
		st.decodeLatency.Observe(d)
		if tr != nil {
			tr.DecodeUS += d
		}
	}
	return flat
}

// lookup serves one vector read: a batch of one, decoded. The one-element
// arrays stay on the stack, so a cache hit allocates only the vector it
// returns. The decode stage is timed only under a trace: two clock reads and
// a histogram update would cost half as much again as the hit itself.
func (st *storeTable) lookup(id uint32, tr *StageTrace) ([]float32, error) {
	ids := [1]uint32{id}
	var view [1][]byte
	release, err := st.serveBatch(ids[:], view[:], tr)
	if err != nil {
		return nil, err
	}
	vec := st.decodeViews(view[:], tr != nil, tr)
	release()
	return vec, nil
}

// lookupBatch serves a batch of vector reads decoded to float32: each
// returned vector is a capacity-limited window of one backing array.
func (st *storeTable) lookupBatch(ids []uint32, tr *StageTrace) ([][]float32, error) {
	views := make([][]byte, len(ids))
	release, err := st.serveBatch(ids, views, tr)
	if err != nil {
		return nil, err
	}
	flat := st.decodeViews(views, true, tr)
	release()
	out := make([][]float32, len(ids))
	for i := range out {
		out[i] = flat[i*st.dim : (i+1)*st.dim : (i+1)*st.dim]
	}
	return out, nil
}

// serveBatch is the store's one read routine. It fills out — len(ids)
// entries, all nil on entry — with the fp16 encoding of each id, grouping
// cache misses by NVM block so that each distinct block is read only once
// per batch, and runs the full serving machinery: counters, dedupe,
// admission, prefetch, cache fill. tr, when non-nil, accumulates the
// per-stage latency breakdown.
//
// Cache hits are handed out as views into the cache's arenas, valid only
// under the lease serveBatch takes before its first probe: on success the
// caller must invoke the returned release once it no longer reads out (it is
// nil on error). Only pass-1 cache hits hand out leased views (overlay bytes
// are heap-stable and pass-2 results are fresh copies), so that one lease
// covers everything.
func (st *storeTable) serveBatch(ids []uint32, out [][]byte, tr *StageTrace) (release func(), err error) {
	for _, id := range ids {
		if err := st.checkID(id); err != nil {
			return nil, err
		}
	}
	ts := st.loadState()
	// Pass 2 may reload the state snapshot, but a swapped-in cache never
	// contributes views to this operation's output (pass 2 only inserts), so
	// leasing the pass-1 cache is sufficient.
	release = ts.cache.Lease()
	// One batch is one co-access set ("query" in the paper's terms): record
	// it whole so the adaptation engine sees the hypergraph SHP needs, not
	// just a flat ID stream.
	if r := st.recorder.Load(); r != nil {
		r.Record(ids)
	}
	if len(ids) == 0 {
		return release, nil
	}

	// Pass 1: serve cache hits and collect misses. Real batches are
	// power-law — the same hot id often appears many times in one request —
	// so repeated ids are deduplicated first: each unique id is resolved
	// (cache probe, block read) exactly once, into views, and the result is
	// fanned back out to every position at the end. Every instance still
	// counts as a lookup and inherits its unique id's hit/miss
	// classification. Without repeats, uniq and views are ids and out. A
	// batch of at most dedupeScanThreshold distinct ids needs no scratch.
	uniq, views, first := ids, out, []int32(nil)
	var missed []missRef
	if len(ids) > dedupeScanThreshold || hasRepeat(ids) {
		sc := batchScratchPool.Get().(*batchScratch)
		defer sc.put()
		if u, f := sc.dedupe(ids); f != nil {
			uniq, first = u, f
			sc.views = grown(sc.views, len(u))
			clear(sc.views)
			views = sc.views
		}
		sc.missed = grown(sc.missed, len(uniq))
		missed = sc.missed[:0]
	}
	// A compiled policy is a ThresholdAdmit, whose OnAccess does nothing.
	if ts.policy != nil && ts.admit == nil {
		for _, id := range ids {
			ts.policy.OnAccess(id)
		}
	}
	// The probe takes each cache shard's lock once for all of the batch's
	// ids in that shard, and is timed once per batch: a clock read per id
	// would be a measurable tax on the all-DRAM hit path.
	var deltaHits int64
	probeStart := time.Now()
	prefetchHits := ts.cache.GetBatch(uniq, views, func(u int) []byte {
		// A miss probes the delta overlay, under the shard lock, before the
		// miss path: an updated vector's authoritative bytes live here until
		// compaction folds them into the block image (whose copy is stale).
		// The epoch is loaded BEFORE the overlay read so a concurrent newer
		// update — overlay put, then epoch bump, then cache invalidate — can
		// never let these older bytes be cached past their invalidation: a
		// bump since means serve them but do not cache them, and a bump after
		// the check is followed by that update's removal, which waits for
		// this shard lock. (applyUpdate takes the overlay lock and a shard
		// lock one after the other, never nested, so taking the overlay's
		// read lock here cannot deadlock.)
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
	probeUS := usSince(probeStart)
	st.probeLatency.Observe(probeUS / float64(len(uniq)))
	for u, v := range views {
		if v == nil {
			if missed == nil {
				missed = make([]missRef, 0, len(views)-u)
			}
			missed = append(missed, missRef{pos: u, id: uniq[u]})
		}
	}
	hits := len(ids) - len(missed)
	if first != nil {
		hits = 0
		for _, u := range first {
			if views[u] != nil {
				hits++
			}
		}
	}
	// The counters move once per batch, on the stripe of its first id.
	h := hashID(ids[0])
	st.lookups.Add(h, int64(len(ids)))
	st.hits.Add(h, int64(hits))
	if misses := len(ids) - hits; misses > 0 {
		st.misses.Add(h, int64(misses))
	}
	if prefetchHits > 0 {
		st.prefetchHits.Add(h, int64(prefetchHits))
	}
	if deltaHits > 0 {
		st.deltaHits.Add(h, deltaHits)
	}
	if tr != nil {
		tr.Lookups += len(ids)
		tr.Hits += hits
		tr.Misses += len(ids) - hits
		tr.ProbeUS += probeUS
	}
	if len(missed) == 0 {
		fanOut(out, views, first)
		return release, nil
	}

	// Pass 2: one NVM read per distinct block; copy all requested vectors
	// out of it and apply the usual prefetch admission to the rest. Blocks are
	// processed in ascending order, and a block's vectors in batch order, so
	// a batch's cache effects are deterministic: the stable sort below gives
	// both, and both readers hand missStep.serveBlock the blocks in that
	// order. The whole pass holds the rewrite lock shared so the layout used
	// for grouping and slot lookup matches the bytes on NVM; a rewrite's
	// exclusive acquisition waits for every read in flight, scheduled or in
	// place.
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
	for i := range missed {
		missed[i].block = ts.layout.BlockOf(missed[i].id)
	}
	slices.SortStableFunc(missed, func(a, b missRef) int { return cmp.Compare(a.block, b.block) })
	abs := make([]int, 0, len(missed))
	for i, ref := range missed {
		if i == 0 || ref.block != missed[i-1].block {
			abs = append(abs, st.blockBase+ref.block)
		}
	}

	// The misses are copied off the block images into one buffer per batch,
	// handed out as capacity-limited sub-slices.
	copies := missCopies{raw: make([]byte, 0, len(missed)*st.vecBytes)}
	m := missStep{st: st, ts: ts, tr: tr, views: views, missed: missed, copies: &copies}
	if st.inPlace != nil {
		err = m.readInPlace(abs)
	} else {
		err = m.readScheduled(abs)
	}
	if err != nil {
		release()
		return nil, fmt.Errorf("core: table %q: %w", st.name, err)
	}
	fanOut(out, views, first)
	return release, nil
}

// missStep is pass 2 of serveBatch once the reads are issued: it serves one
// missed block after another, whichever reader supplied the bytes. It is a
// value on serveBatch's stack with methods, not a closure over pass-1 locals,
// so that nothing it points at — the views, hence the caller's result slice
// — escapes to the heap: a cache hit must not pay for the miss path.
type missStep struct {
	st     *storeTable
	ts     *tableState
	tr     *StageTrace
	views  [][]byte
	missed []missRef // sorted by block
	next   int       // missed[next] is the first ref of the next block
	// epoch is the table epoch the blocks' bytes are consistent with, and
	// coalesced, when non-nil, flags the blocks served by another caller's
	// device read.
	epoch     uint64
	coalesced []bool
	// copies is reached through a pointer because escape analysis does not
	// tell one field from another: the copies are handed out, and were they
	// fields here, views would be taken to leak with them.
	copies *missCopies
}

// missCopies is what missStep writes that outlives a block.
type missCopies struct {
	raw     []byte   // the requested vectors of the batch
	members []uint32 // scratch: the block's members, for an uncompiled policy's admission
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
	m.st.lookupLatency.Observe(us)
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
	m.st.lookupLatency.Observe(service)
	m.st.queueWaitLatency.Observe(wait)
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
		st.coalescedReads.Inc(uint64(block))
	} else {
		st.blockReads.Inc(uint64(block))
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
		c := m.copies
		off := len(c.raw)
		c.raw = append(c.raw, buf[slot*st.vecBytes:(slot+1)*st.vecBytes]...)
		rawCopy := c.raw[off:len(c.raw):len(c.raw)]
		m.views[ref.pos] = rawCopy
		// A requested vector is always cached; the policy only picks where
		// it enters the queue (probation for an id training says is cold).
		var pos float64
		if b := ts.admit; b != nil {
			if p := block*ts.layout.BlockVectors() + slot; b.probation[p/64]&(1<<(p%64)) != 0 {
				pos = cache.ProbationPosition
			}
		} else if ts.policy != nil {
			pos = ts.policy.DemandPosition(ref.id)
		}
		if ts.cache.AddAtGuard(ref.id, rawCopy, pos, false, &st.epoch, m.epoch) && pos > 0 {
			st.probationFills.Inc(hashID(ref.id))
		}
	}
	if ts.prefetch && ts.policy != nil {
		st.admitBlock(ts, buf, m.epoch, block, &m.copies.members, refs)
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

// batchScratch is serveBatch's working memory for a batch that repeats ids
// or is too large to check by scan, pooled so that the hit path allocates
// none of it.
type batchScratch struct {
	uniq  []uint32 // the batch's distinct ids, in first-occurrence order
	first []int32  // first[i] is the index in uniq of ids[i]
	views [][]byte // one result per distinct id, when ids repeat
	// table is dedupe's open-addressing table for batches of more than
	// dedupeScanThreshold ids: id<<32 | (index in uniq + 1), 0 when empty.
	table  []uint64
	missed []missRef
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// put returns sc to the pool, dropping its references to served bytes.
func (sc *batchScratch) put() {
	clear(sc.views)
	batchScratchPool.Put(sc)
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
func (sc *batchScratch) dedupe(ids []uint32) (uniq []uint32, first []int32) {
	uniq, first = sc.uniq[:0], grown(sc.first, len(ids))
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
		sc.table = grown(sc.table, int(mask)+1)
		clear(sc.table)
		for i, id := range ids {
			p := (id * 0x9E3779B1) >> shift
			for {
				e := sc.table[p]
				if e == 0 {
					sc.table[p] = uint64(id)<<32 | uint64(len(uniq)+1)
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
	sc.uniq, sc.first = uniq, first
	if !repeats {
		return nil, nil
	}
	return uniq, first
}
