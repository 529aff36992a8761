package nvm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"
)

// ringJournal is the appending write-ahead journal of a FileStore (format
// v2). Records are appended sequentially into a dedicated ring region — one
// pwrite per record — and retired in bulk by advancing a persisted head
// watermark once their in-place writes are durable. Compared to the fixed
// J-slot journal it replaces (journal data + journal header + retire = 3
// extra pwrites per block write), the steady-state cost is a single
// sequential append.
//
// Record framing (every record starts on a BlockSize boundary, so an append
// never rewrites bytes of a previously synced record):
//
//	magic   [8]  "BNDJRNL2"
//	seq     [8]  strictly increasing, every record (including pads) takes one
//	target  [8]  data block index, or padTarget / skipTarget
//	dataLen [4]
//	dataCRC [4]  CRC-32C of the payload (block records only)
//	hdrCRC  [4]  CRC-32C of the 32 bytes above
//	payload [dataLen], then padding up to the next BlockSize boundary
//
// The scan at open starts from the persisted head watermark and accepts
// records only while magic, header CRC and the exact next sequence number
// all match; the first mismatch is the tail (a torn append rolls back, a
// stale old-lap record terminates the scan). Valid block records REDO in
// sequence order, which also repairs any torn in-place write.
//
// The watermark (head offset + head seq + generation) is persisted in two
// alternating BlockSize slots: a torn watermark write falls back to the
// previous generation, whose scan is still valid because ring space freed by
// a watermark is only reused after that watermark's pwrite returned.
//
// The ring lives only on disk: an append, pad or tombstone stages its bytes
// in a pooled aligned buffer, and only recover reads the region back, into a
// buffer of its own that the caller drops once the REDOs are applied.
type ringJournal struct {
	s    *FileStore
	off  int64 // file offset of the ring region
	size int64 // ring region bytes (multiple of BlockSize)

	mu       sync.Mutex
	spaceCnd *sync.Cond
	head     int64 // offset of the oldest un-retired record
	tail     int64 // next append offset
	live     int64 // bytes between head and tail
	nextSeq  uint64
	gen      uint64     // watermark generation (slot = gen & 1)
	pending  []*ringRec // FIFO of un-retired records
	nFailed  int

	appends       atomic.Int64 // block-record appends
	bytesAppended atomic.Int64
	gcRuns        atomic.Int64
	failedRecs    atomic.Int64

	gcKick chan struct{}
	stopGC chan struct{}
	gcDone chan struct{}
}

type ringRec struct {
	seq    uint64
	target uint64
	off    int64 // start offset within the ring
	size   int64 // span in bytes (BlockSize multiple)
	done   bool  // in-place write durable (or record tombstoned)
	failed bool  // in-place write failed: record is the only good copy
}

const (
	ringMagic      = "BNDJRNL2"
	ringHdrBytes   = 36
	watermarkMagic = "BNDWMRK1"
	watermarkBytes = 36 // magic(8) gen(8) headOff(8) headSeq(8) crc(4)

	// padTarget marks a filler record that carries the sequence across the
	// ring-end wrap; skipTarget marks a tombstoned (superseded) record.
	// Neither is replayed.
	padTarget  = ^uint64(0)
	skipTarget = ^uint64(0) - 1

	// patchFlag marked the target of a sub-block patch record, a kind older
	// versions journaled single-vector updates with. Nothing writes one any
	// more; the scan refuses a ring that still holds one (see recover).
	patchFlag = uint64(1) << 62
)

// recSpan is the ring footprint of a record with a dataLen-byte payload.
func recSpan(dataLen int) int64 {
	return (int64(ringHdrBytes+dataLen) + BlockSize - 1) &^ (BlockSize - 1)
}

func newRingJournal(s *FileStore, ringBlocks int, ringOff int64) *ringJournal {
	r := &ringJournal{
		s:      s,
		off:    ringOff,
		size:   int64(ringBlocks) * BlockSize,
		gcKick: make(chan struct{}, 1),
		stopGC: make(chan struct{}),
		gcDone: make(chan struct{}),
	}
	r.spaceCnd = sync.NewCond(&r.mu)
	return r
}

func (r *ringJournal) start() { go r.gcLoop() }

func (r *ringJournal) stop() {
	close(r.stopGC)
	<-r.gcDone
}

func (r *ringJournal) encodeHdr(dst []byte, seq, target uint64, dataLen int, dataCRC uint32) {
	copy(dst[:8], ringMagic)
	binary.LittleEndian.PutUint64(dst[8:], seq)
	binary.LittleEndian.PutUint64(dst[16:], target)
	binary.LittleEndian.PutUint32(dst[24:], uint32(dataLen))
	binary.LittleEndian.PutUint32(dst[28:], dataCRC)
	binary.LittleEndian.PutUint32(dst[32:], crc32.Checksum(dst[:32], castagnoli))
}

// append journals one block write: it claims ring space (retiring completed
// records or waiting for in-flight ones if the ring is full), stamps the
// next sequence number, and lands the record in a single pwrite. It returns
// the record's seq for the later complete/fail call.
func (r *ringJournal) append(target uint64, data []byte) (uint64, error) {
	need := recSpan(len(data))
	r.mu.Lock()
	defer r.mu.Unlock()

	// A record never crosses the ring end; wrapping costs a one-page pad
	// record that keeps the scan's sequence chain intact.
	pad := int64(0)
	if rem := r.size - r.tail; rem < need {
		pad = rem
	}
	if pad+need > r.size {
		return 0, fmt.Errorf("nvm: %d-byte journal record exceeds ring size %d", need, r.size)
	}
	for r.live+pad+need > r.size {
		// Retire whatever is already durable, then wait for in-flight
		// writes if that was not enough. A failed write pins its record
		// (it is the only good copy of its block) and therefore the head:
		// fail fast instead of parking forever on a wedged ring.
		if err := r.gcLocked(); err != nil {
			return 0, fmt.Errorf("nvm: journal gc: %w", err)
		}
		if r.live+pad+need <= r.size {
			break
		}
		if len(r.pending) > 0 && r.pending[0].failed {
			return 0, fmt.Errorf("nvm: ring journal full and pinned by a failed block write; reopen the store to repair")
		}
		if len(r.pending) == 0 {
			return 0, fmt.Errorf("nvm: ring journal too small for a %d-byte record", need)
		}
		r.spaceCnd.Wait()
	}

	if pad > 0 {
		seq := r.nextSeq
		r.nextSeq++
		off := r.tail
		// Only the header needs to reach disk; the rest of the pad span is
		// never read back (a whole aligned page under O_DIRECT).
		if err := r.writeHdr(off, seq, padTarget, int(pad)-ringHdrBytes); err != nil {
			r.nextSeq--
			return 0, fmt.Errorf("nvm: journal pad: %w", err)
		}
		r.bytesAppended.Add(BlockSize)
		r.pending = append(r.pending, &ringRec{seq: seq, target: padTarget, off: off, size: pad, done: true})
		r.live += pad
		r.tail = 0
	}

	seq := r.nextSeq
	r.nextSeq++
	off := r.tail
	bp := GetBatchBuf(int(need / BlockSize))
	defer PutBatchBuf(bp)
	rec := *bp
	r.encodeHdr(rec, seq, target, len(data), crc32.Checksum(data, castagnoli))
	copy(rec[ringHdrBytes:], data)
	clear(rec[ringHdrBytes+len(data) : need])
	// Persist only header+payload: the span's tail padding is never read by
	// the scan (its content is don't-care). O_DIRECT cannot issue sub-page
	// writes, so direct mode lands the whole aligned span.
	wlen := int64(ringHdrBytes + len(data))
	if r.s.direct {
		wlen = need
	}
	if err := r.s.writeAt(rec[:wlen], r.off+off); err != nil {
		// The span may be torn on disk; the scan's CRC/seq checks roll it
		// back, and the next append rewrites the same span in full.
		r.nextSeq--
		return 0, fmt.Errorf("nvm: journal append: %w", err)
	}
	r.appends.Add(1)
	r.bytesAppended.Add(need)
	r.pending = append(r.pending, &ringRec{seq: seq, target: target, off: off, size: need})
	r.live += need
	r.tail += need
	if r.tail == r.size {
		r.tail = 0
	}
	return seq, nil
}

// complete marks seq's in-place write durable, making the record eligible
// for retirement. GC runs in the background once a quarter of the ring is
// retirable (and inline when an append needs the space).
func (r *ringJournal) complete(seq uint64) {
	r.mu.Lock()
	// pending is seq-sorted (appends stamp increasing seqs), so the record
	// is found by binary search — completes are on the per-write hot path.
	if i := sort.Search(len(r.pending), func(i int) bool { return r.pending[i].seq >= seq }); i < len(r.pending) && r.pending[i].seq == seq {
		r.pending[i].done = true
	}
	retirable := int64(0)
	for _, rec := range r.pending {
		if !rec.done {
			break
		}
		retirable += rec.size
	}
	r.mu.Unlock()
	r.spaceCnd.Broadcast()
	if retirable >= r.size/4 {
		select {
		case r.gcKick <- struct{}{}:
		default:
		}
	}
}

// fail marks seq's in-place write failed. The record is now the only good
// copy of its block: it pins the head (GC cannot pass it) so the next open
// replays it — the successor of the J-slot quarantine. A later successful
// write of the same block tombstones it (supersedeFailed) and unpins GC.
func (r *ringJournal) fail(seq uint64) {
	r.mu.Lock()
	for _, rec := range r.pending {
		if rec.seq == seq {
			if !rec.failed && !rec.done {
				rec.failed = true
				r.nFailed++
				r.failedRecs.Add(1)
			}
			break
		}
	}
	r.mu.Unlock()
}

// writeHdr lands a payload-free header (a pad or a tombstone) at ring offset
// off: the header bytes alone, or its whole page, zero after the header,
// under O_DIRECT.
func (r *ringJournal) writeHdr(off int64, seq, target uint64, dataLen int) error {
	bp := GetBlockBuf()
	defer PutBlockBuf(bp)
	buf := *bp
	r.encodeHdr(buf, seq, target, dataLen, 0)
	wlen := ringHdrBytes
	if r.s.direct {
		clear(buf[ringHdrBytes:])
		wlen = BlockSize
	}
	return r.s.writeAt(buf[:wlen], r.off+off)
}

// tombstoneLocked rewrites rec's header as skipTarget on disk (its header
// page only) and marks it retirable.
func (r *ringJournal) tombstoneLocked(rec *ringRec) error {
	if err := r.writeHdr(rec.off, rec.seq, skipTarget, int(rec.size)-ringHdrBytes); err != nil {
		return err
	}
	if rec.failed {
		rec.failed = false
		r.nFailed--
	}
	rec.done = true
	return nil
}

// supersedeFailed tombstones failed records for block older than afterSeq:
// a newer successful write of the block makes them stale, and they must not
// keep GC pinned. (Replay order alone already keeps crash recovery correct —
// the newer record replays after the stale one — so this is about unwedging
// the ring, not correctness.)
func (r *ringJournal) supersedeFailed(block uint64, afterSeq uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nFailed == 0 {
		return nil
	}
	for _, rec := range r.pending {
		if rec.failed && rec.target == block && rec.seq < afterSeq {
			if err := r.tombstoneLocked(rec); err != nil {
				return fmt.Errorf("nvm: retire superseded record: %w", err)
			}
		}
	}
	r.spaceCnd.Broadcast()
	return nil
}

// supersedeRange tombstones every live record targeting [base, base+n).
// Bulk unjournaled writes call it BEFORE their data pwrite: once the bulk
// bytes land, a crash must not replay a stale journaled image over them.
// The window where the old record is dead but the bulk write has not landed
// is covered by the bulk caller's own commit point (it redoes the whole
// load if interrupted). When no live record targets the range — the common
// bulk-load case — this issues no I/O, keeping bulk loads at 1 pwrite.
func (r *ringJournal) supersedeRange(base, n int) error {
	lo, hi := uint64(base), uint64(base+n)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range r.pending {
		if rec.target == padTarget || rec.target == skipTarget {
			continue
		}
		if rec.target >= lo && rec.target < hi {
			if err := r.tombstoneLocked(rec); err != nil {
				return fmt.Errorf("nvm: retire superseded record: %w", err)
			}
		}
	}
	r.spaceCnd.Broadcast()
	return nil
}

// gcLocked retires the longest done prefix of the FIFO: it persists the new
// head watermark first and frees the ring space only after that pwrite
// returned, so a torn watermark write can always fall back to the previous
// generation and still find a valid record chain.
func (r *ringJournal) gcLocked() error {
	n := 0
	newHead := r.head
	var lastSeq uint64
	for _, rec := range r.pending {
		if !rec.done {
			break
		}
		n++
		newHead = rec.off + rec.size
		if newHead == r.size {
			newHead = 0
		}
		lastSeq = rec.seq
	}
	if n == 0 {
		return nil
	}
	if err := r.writeWatermark(r.gen+1, newHead, lastSeq+1); err != nil {
		return err
	}
	r.gen++
	for _, rec := range r.pending[:n] {
		r.live -= rec.size
	}
	r.pending = r.pending[:copy(r.pending, r.pending[n:])]
	r.head = newHead
	r.gcRuns.Add(1)
	r.spaceCnd.Broadcast()
	return nil
}

// gc retires completed records (background/shutdown entry point).
func (r *ringJournal) gc() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gcLocked()
}

func (r *ringJournal) gcLoop() {
	defer close(r.gcDone)
	for {
		select {
		case <-r.gcKick:
			_ = r.gc() // an error here only defers retirement; append retries inline
		case <-r.stopGC:
			return
		}
	}
}

func (r *ringJournal) wmOff(gen uint64) int64 { return int64(1+gen&1) * BlockSize }

func (r *ringJournal) writeWatermark(gen uint64, headOff int64, headSeq uint64) error {
	bp := GetBlockBuf()
	defer PutBlockBuf(bp)
	buf := *bp
	for i := range buf {
		buf[i] = 0
	}
	copy(buf[:8], watermarkMagic)
	binary.LittleEndian.PutUint64(buf[8:], gen)
	binary.LittleEndian.PutUint64(buf[16:], uint64(headOff))
	binary.LittleEndian.PutUint64(buf[24:], headSeq)
	binary.LittleEndian.PutUint32(buf[32:], crc32.Checksum(buf[:32], castagnoli))
	if err := r.s.writeAt(buf, r.wmOff(gen)); err != nil {
		return fmt.Errorf("nvm: write journal watermark: %w", err)
	}
	return nil
}

// ringApply is one REDO from recovery: a valid journaled block image.
type ringApply struct {
	target int
	data   []byte // BlockSize bytes, a view into recover's read of the ring
}

// recover reads the ring region into a buffer of its own, picks the newest
// valid watermark, and scans the record chain from it. It returns the block
// records to REDO (in sequence order), each a view into that buffer, and
// leaves the journal positioned at the scan tail; the caller applies the
// records, syncs, calls retireAll and drops them, and with them the buffer.
func (r *ringJournal) recover(numBlocks int) ([]ringApply, error) {
	type wm struct {
		gen     uint64
		headOff int64
		headSeq uint64
	}
	var best wm
	found := false
	bp := GetBlockBuf()
	defer PutBlockBuf(bp)
	for slot := int64(1); slot <= 2; slot++ {
		buf := *bp
		if err := r.s.readAt(buf, slot*BlockSize); err != nil {
			return nil, fmt.Errorf("nvm: read journal watermark: %w", err)
		}
		if string(buf[:8]) != watermarkMagic {
			continue
		}
		if crc32.Checksum(buf[:32], castagnoli) != binary.LittleEndian.Uint32(buf[32:]) {
			continue
		}
		w := wm{
			gen:     binary.LittleEndian.Uint64(buf[8:]),
			headOff: int64(binary.LittleEndian.Uint64(buf[16:])),
			headSeq: binary.LittleEndian.Uint64(buf[24:]),
		}
		if w.headOff < 0 || w.headOff >= r.size || w.headOff%BlockSize != 0 {
			continue
		}
		if !found || w.gen > best.gen {
			best, found = w, true
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: no valid journal watermark", ErrBadSuperblock)
	}
	img := alignedBytes(int(r.size))
	if err := r.s.readAt(img, r.off); err != nil {
		return nil, fmt.Errorf("nvm: read ring journal: %w", err)
	}

	off, exp := best.headOff, best.headSeq
	scanned := int64(0)
	var applies []ringApply
scan:
	for scanned < r.size {
		hdr := img[off : off+ringHdrBytes]
		if string(hdr[:8]) != ringMagic {
			break
		}
		if crc32.Checksum(hdr[:32], castagnoli) != binary.LittleEndian.Uint32(hdr[32:]) {
			break // torn append: roll back
		}
		if binary.LittleEndian.Uint64(hdr[8:]) != exp {
			break // stale record from an earlier lap: end of the chain
		}
		target := binary.LittleEndian.Uint64(hdr[16:])
		dataLen := int(binary.LittleEndian.Uint32(hdr[24:]))
		span := recSpan(dataLen)
		if span > r.size-off {
			break // implausible length: corrupt
		}
		switch {
		case target == padTarget || target == skipTarget:
			// pad: wrap filler; skip: tombstoned by a superseding write
		case target&patchFlag != 0:
			// Neither skipped nor taken for the tail: the record may be the
			// only copy of an update an older version acknowledged.
			return nil, fmt.Errorf("nvm: ring journal seq %d: sub-block patch record written by an older version; open and cleanly close the store with that version first", exp)
		default:
			if dataLen != BlockSize || target >= uint64(numBlocks) {
				return nil, fmt.Errorf("nvm: ring journal seq %d: implausible record (target %d, %d bytes)", exp, target, dataLen)
			}
			data := img[off+ringHdrBytes : off+ringHdrBytes+int64(dataLen)]
			if crc32.Checksum(data, castagnoli) != binary.LittleEndian.Uint32(hdr[28:]) {
				break scan // torn append payload: roll back
			}
			applies = append(applies, ringApply{target: int(target), data: data})
		}
		exp++
		scanned += span
		off += span
		if off == r.size {
			off = 0
		}
	}

	r.gen = best.gen
	r.head, r.tail = off, off
	r.live = 0
	r.nextSeq = exp
	return applies, nil
}

// retireAll persists a fresh watermark at the scan tail, retiring every
// replayed record. The caller must have made the replayed data durable
// first.
func (r *ringJournal) retireAll() error {
	if err := r.writeWatermark(r.gen+1, r.head, r.nextSeq); err != nil {
		return err
	}
	r.gen++
	return nil
}

// utilization is the live fraction of the ring (journal pressure gauge).
func (r *ringJournal) utilization() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.size == 0 {
		return 0
	}
	return float64(r.live) / float64(r.size)
}
