package core

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// This file is the delta update path and its two consumers: the background
// compactor that folds overlay entries into the block image, and the
// replication hooks (UpdatesSince on a primary, ApplyReplicatedUpdates on a
// replica) that stream individual updates instead of whole images. See
// deltalog.go for the log/overlay data structures.

// applyUpdate is the commit path shared by UpdateVector and UpdateVectorRaw.
// raw must be exactly st.vecBytes long (callers validate). owned says the
// slice was freshly allocated for this call and may be retained (UpdateVector
// encodes into one); a caller-owned slice is copied before the overlay and
// the log capture it. An update costs one log append plus DRAM work (overlay
// put, cache invalidation); the block image — and the device's write
// counters — catch up when compaction folds the overlay in. Returns the
// snapshot seq this update committed at.
func (s *Store) applyUpdate(st *storeTable, id uint32, raw []byte, owned bool) (uint64, error) {
	if err := st.checkID(id); err != nil {
		return 0, err
	}
	st.updateMu.Lock()
	defer st.updateMu.Unlock()
	// The overlay and the log retain the bytes indefinitely; a slice the
	// caller may reuse must not be captured.
	cp := raw
	if !owned {
		cp = append(make([]byte, 0, len(raw)), raw...)
	}
	seq, needCompact, err := s.deltaLog.append(&s.snapSeq, uint32(st.index), id, cp)
	if err != nil {
		s.deltaLog.appendFailed(s.snapSeq.Load())
	}
	st.overlay.put(id, cp, seq)
	// Epoch before the cache removal: a miss that decoded the (now stale)
	// block image before this update cannot re-cache its bytes after the
	// removal.
	st.epoch.Add(1)
	st.loadState().cache.Remove(id)
	if needCompact || st.overlay.size() >= s.deltaLog.compactAfter {
		s.requestCompaction()
	}
	return seq, nil
}

// requestCompaction nudges the background compactor; a compaction already
// pending or running absorbs the request.
func (s *Store) requestCompaction() {
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
}

// compactLoop is the background compactor goroutine (one per store); Close
// stops it before tearing down the device.
func (s *Store) compactLoop() {
	defer close(s.compactDone)
	for {
		select {
		case <-s.compactStop:
			return
		case <-s.compactCh:
			if err := s.CompactDeltas(); err != nil {
				s.deltaLog.compactFailures.Add(1)
			}
		}
	}
}

// CompactDeltas folds every table's overlay into the NVM block image
// (amortizing all accumulated updates of a block into one in-place
// read-modify-write), makes the result durable, and trims the update log to
// its retention tail. It runs in the background automatically; call it
// directly to bound the overlay before e.g. measuring the device.
func (s *Store) CompactDeltas() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	// Every record with seq <= through is guaranteed to be covered by the
	// overlay snapshots taken below (the snapshot happens under updateMu,
	// and an updater holds updateMu from before its seq is assigned until
	// after its overlay put) — or by an earlier compaction that already
	// flushed. That is what makes the log truncation at the end safe.
	through := s.snapSeq.Load()
	if err := s.relog(); err != nil {
		return err
	}
	dirty := false
	for _, st := range s.tables {
		n, err := s.compactTable(st)
		if err != nil {
			return err
		}
		if n > 0 {
			dirty = true
		}
	}
	if dirty {
		// The dropped log records' only other home is the block image; it
		// must be durable before the log stops carrying them.
		if err := s.device.Flush(); err != nil {
			return err
		}
	}
	return s.deltaLog.truncate(through)
}

// relog restores the update log's cover of the overlay after a failed
// append (see deltaLog.appendFailed): with every table's updateMu held, so no
// append is in flight and the overlays hold exactly the updates the block
// image lacks, it replaces the mirror with the current watermark plus a
// record of every overlay entry, in seq order. A no-op unless an append
// failed.
func (s *Store) relog() error {
	if !s.deltaLog.needsRelog() {
		return nil
	}
	for _, st := range s.tables {
		st.updateMu.Lock()
		defer st.updateMu.Unlock()
	}
	var recs []UpdateRecord
	for _, st := range s.tables {
		for id, e := range st.overlay.snapshot() {
			recs = append(recs, UpdateRecord{Seq: e.seq, Table: uint32(st.index), ID: id, Raw: e.raw})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	l := s.deltaLog
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.rewriteLocked(l.through, recs); err != nil {
		return err
	}
	l.relog = false
	return nil
}

// compactTable folds one table's overlay into its block range: group the
// overlaid vectors by block, read-modify-write each dirty block once, then
// drop exactly the entries that were folded (a vector updated again while
// compaction ran keeps its newer overlay entry). Every folded entry has its
// record in the update log's file before the first block write (covers):
// that record is what repairs the block if a crash tears the write. Returns
// how many entries were folded.
func (s *Store) compactTable(st *storeTable) (int, error) {
	// Lock order (updateMu -> rewriteMu) matches the rewrite layer. The
	// snapshot happens under updateMu so it includes every update the
	// caller's `through` seq observed; rewriteMu stays held shared across the
	// writes so no whole-table install can interleave — its image already
	// carries these values (renderImage lays the overlay over the blocks) and
	// it clears the overlay, so patching the fresh image with this snapshot
	// afterwards would write older bytes, at the old layout's slots, over it.
	st.updateMu.Lock()
	st.rewriteMu.RLock()
	snap := st.overlay.snapshot()
	var err error
	if len(snap) > 0 {
		err = s.deltaLog.covers()
	}
	st.updateMu.Unlock()
	defer st.rewriteMu.RUnlock()
	if len(snap) == 0 || err != nil {
		return 0, err
	}
	ts := st.loadState()
	byBlock := make(map[int][]uint32)
	for id := range snap {
		b := ts.layout.BlockOf(id)
		byBlock[b] = append(byBlock[b], id)
	}
	blocks := make([]int, 0, len(byBlock))
	for b := range byBlock {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)

	bufp := getBlockBuf()
	defer putBlockBuf(bufp)
	buf := *bufp
	for _, b := range blocks {
		abs := st.blockBase + b
		// The read goes to the device directly, and its bytes are the
		// block's current image by construction: rewriteMu held shared keeps
		// every layout install out, compactMu every other compaction, and
		// those are the only writers of a table's blocks. With no scheduler
		// there is no coalescing, so no earlier reader's bytes to inherit.
		if err := s.device.ReadBlocks([]int{abs}, buf); err != nil {
			return 0, fmt.Errorf("core: table %q: %w", st.name, err)
		}
		for _, id := range byBlock[b] {
			slot := ts.layout.SlotOf(id)
			copy(buf[slot*st.vecBytes:], snap[id].raw)
		}
		if err := s.device.WriteBlock(abs, buf); err != nil {
			return 0, fmt.Errorf("core: table %q: %w", st.name, err)
		}
	}
	// The image changed under in-flight misses: bump before dropping the
	// overlay entries so a miss that read a pre-compaction block cannot
	// cache stale bytes once the overlay stops shadowing them.
	st.epoch.Add(1)
	for id, e := range snap {
		st.overlay.deleteIfSeq(id, e.seq)
	}
	return len(snap), nil
}

// UpdatesSince returns up to maxRecords logged updates with seq > since (also
// bounded by maxBytes of framed payload; <=0 uses defaults), in commit order.
// upTo is the seq of the last returned record — a follower that applies the
// batch has exactly the primary's image at upTo. ok is false when since lies
// outside the retained window (compacted away, or from a different history):
// the follower must full-sync.
func (s *Store) UpdatesSince(since uint64, maxRecords, maxBytes int) (recs []UpdateRecord, upTo uint64, ok bool) {
	if maxRecords <= 0 {
		maxRecords = 1 << 16
	}
	if maxBytes <= 0 {
		maxBytes = 4 << 20
	}
	return s.deltaLog.since(since, maxRecords, maxBytes)
}

// advanceSeq moves seq forward to `to` (never backward).
func advanceSeq(seq *atomic.Uint64, to uint64) {
	for {
		cur := seq.Load()
		if to <= cur || seq.CompareAndSwap(cur, to) {
			return
		}
	}
}

// ApplyReplicatedUpdates applies update records streamed from a primary to a
// read-only replica store, in order: each record's bytes go to this store's
// own log and the DRAM overlay, the cached copy is invalidated, and the
// store's snapshot seq advances to the record's — published only after the
// record is applied and logged, so a downstream follower that observes the
// seq can always fetch through it. Records' payloads are retained; callers
// must not modify them after the call.
//
// It deliberately bypasses the ReadOnly gate — that gate exists so local
// mutations cannot diverge a replica from its primary, and replicated
// records ARE the primary's mutations. It refuses writable stores: those
// take updates through UpdateVector.
func (s *Store) ApplyReplicatedUpdates(recs []UpdateRecord) error {
	if !s.readOnly {
		return fmt.Errorf("core: ApplyReplicatedUpdates is the replication apply path; this store is writable (use UpdateVector)")
	}
	for _, rec := range recs {
		if int(rec.Table) >= len(s.tables) {
			return fmt.Errorf("core: replicated update references table %d, store has %d", rec.Table, len(s.tables))
		}
		st := s.tables[rec.Table]
		if len(rec.Raw) != st.vecBytes {
			return fmt.Errorf("core: table %q: replicated update carries %d bytes, want %d", st.name, len(rec.Raw), st.vecBytes)
		}
		if err := st.checkID(rec.ID); err != nil {
			return err
		}
	}
	for _, rec := range recs {
		s.applyReplicatedOne(s.tables[rec.Table], rec)
		advanceSeq(&s.snapSeq, rec.Seq)
	}
	return nil
}

func (s *Store) applyReplicatedOne(st *storeTable, rec UpdateRecord) {
	st.updateMu.Lock()
	defer st.updateMu.Unlock()
	// Re-log the record with the primary's seq: this replica's own log then
	// serves the same seq->record contract downstream (chained replication),
	// and a crash replays the tail exactly like on a primary.
	needCompact, err := s.deltaLog.appendRecord(rec)
	if err != nil {
		s.deltaLog.appendFailed(rec.Seq)
	}
	st.overlay.put(rec.ID, rec.Raw, rec.Seq)
	st.epoch.Add(1)
	st.loadState().cache.Remove(rec.ID)
	if needCompact || st.overlay.size() >= s.deltaLog.compactAfter {
		s.requestCompaction()
	}
}
