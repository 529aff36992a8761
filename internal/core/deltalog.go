// The update path, the only way a vector changes: an in-place
// read-modify-write of the containing 4 KB block would cost a device write
// per updated vector, so an update instead appends one fixed-framing
// record to an update log and parks the new bytes in an in-DRAM per-table
// overlay. Serving merges the overlay in front of the block image; a
// background compactor (one goroutine per store, stopped by Close) folds
// accumulated overlay entries into the image — amortizing many updates per
// block RMW; this is when the device's write counters move — and trims the
// log. The log doubles as the replication feed: every record carries the
// snapshot seq its update committed at, so a replica that served seq N asks
// for "everything after N" and applies exactly the changed vectors instead of
// re-importing the whole image (see Store.UpdatesSince and
// ApplyReplicatedUpdates). Structural mutations — Train, LoadState,
// adaptation relayouts — invalidate the log, forcing followers back onto the
// full-snapshot bootstrap path.
//
// On the file backend the log is also the only redo of the block file: the
// block store keeps no journal, so a compaction's in-place block write torn
// by a crash is repaired by this log alone. updates.log in the data dir holds
// a header recording the compacted-through seq (the watermark) plus the
// framed records; reopen replays every record past the watermark over the
// block image (see replayUpdateLog in dir.go). Two invariants make that
// enough:
//
//   - the watermark never exceeds the seq through which compaction has
//     flushed the block image (only truncate advances it, after the flush);
//   - compaction writes a block only once the mirror file holds a record of
//     every overlay entry it folds into it (see covers and Store.relog).
//
// A compaction's write changes only its entries' slots, so a block torn at
// any sector boundary differs from the image before it only there, and the
// replay rewrites exactly those slots. TestCompactionCrashStates enumerates
// the crash states.
package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// UpdateLogFileName is the append-only update log inside a data dir.
const UpdateLogFileName = "updates.log"

// UpdateLogOptions tunes the update log's compaction and retention.
type UpdateLogOptions struct {
	// CompactAfter triggers a background compaction once this many records
	// have accumulated beyond the retention tail. 0 uses the default (4096).
	CompactAfter int
	// RetainRecords is how many of the newest records survive a compaction
	// so lagging replicas can still catch up incrementally instead of
	// falling back to a full snapshot sync. 0 uses the default (16384).
	RetainRecords int
}

const (
	defaultCompactAfter  = 4096
	defaultRetainRecords = 16384
)

func (o *UpdateLogOptions) defaults() {
	if o.CompactAfter <= 0 {
		o.CompactAfter = defaultCompactAfter
	}
	if o.RetainRecords <= 0 {
		o.RetainRecords = defaultRetainRecords
	}
}

// UpdateRecord is one logged vector update: the fp16 payload written to
// (Table, ID) by the update that advanced the snapshot seq to Seq. Raw is
// immutable once the record exists; receivers may retain it.
type UpdateRecord struct {
	Seq   uint64
	Table uint32
	ID    uint32
	Raw   []byte
}

// Update-record framing (little-endian):
//
//	u32 payloadLen | u64 seq | u32 table | u32 id | payload | u32 crc
//
// crc is CRC-32C (Castagnoli) over the 20 header bytes plus the payload, so
// a torn tail or a flipped bit is detected before a record is applied.
const (
	updateRecordHeaderLen = 4 + 8 + 4 + 4
	updateRecordOverhead  = updateRecordHeaderLen + 4
	// maxUpdatePayload bounds a decoded record's payload; vectors are at
	// most one block.
	maxUpdatePayload = 1 << 16
)

// EncodedUpdateLen returns the framed size of a record with payloadLen bytes.
func EncodedUpdateLen(payloadLen int) int { return updateRecordOverhead + payloadLen }

// EncodeUpdateRecord appends the framed encoding of rec to dst.
func EncodeUpdateRecord(dst []byte, rec UpdateRecord) []byte {
	start := len(dst)
	var hdr [updateRecordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(rec.Raw)))
	binary.LittleEndian.PutUint64(hdr[4:], rec.Seq)
	binary.LittleEndian.PutUint32(hdr[12:], rec.Table)
	binary.LittleEndian.PutUint32(hdr[16:], rec.ID)
	dst = append(dst, hdr[:]...)
	dst = append(dst, rec.Raw...)
	crc := crc32.Checksum(dst[start:], manifestCRCTable)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	return append(dst, tail[:]...)
}

// DecodeUpdateRecord decodes one framed record from the front of b, returning
// the record and the number of bytes consumed. The returned Raw aliases b.
func DecodeUpdateRecord(b []byte) (UpdateRecord, int, error) {
	if len(b) < updateRecordOverhead {
		return UpdateRecord{}, 0, fmt.Errorf("core: update record truncated (%d bytes)", len(b))
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[0:]))
	if payloadLen > maxUpdatePayload {
		return UpdateRecord{}, 0, fmt.Errorf("core: implausible update payload length %d", payloadLen)
	}
	total := updateRecordOverhead + payloadLen
	if len(b) < total {
		return UpdateRecord{}, 0, fmt.Errorf("core: update record truncated (%d of %d bytes)", len(b), total)
	}
	body := b[:updateRecordHeaderLen+payloadLen]
	want := binary.LittleEndian.Uint32(b[updateRecordHeaderLen+payloadLen:])
	if got := crc32.Checksum(body, manifestCRCTable); got != want {
		return UpdateRecord{}, 0, fmt.Errorf("core: update record checksum mismatch (got %08x want %08x)", got, want)
	}
	return UpdateRecord{
		Seq:   binary.LittleEndian.Uint64(b[4:]),
		Table: binary.LittleEndian.Uint32(b[12:]),
		ID:    binary.LittleEndian.Uint32(b[16:]),
		Raw:   b[updateRecordHeaderLen : updateRecordHeaderLen+payloadLen],
	}, total, nil
}

// Update-log file header: magic, the compacted-through seq (records at or
// below it are retained only for replica catch-up and must NOT be replayed —
// their effects are already durable in the block image, possibly overwritten
// by newer compacted updates), and a CRC over both.
const (
	updateLogMagic     = "BNDULOG1"
	updateLogHeaderLen = 8 + 8 + 4
)

func encodeUpdateLogHeader(through uint64) []byte {
	buf := make([]byte, updateLogHeaderLen)
	copy(buf, updateLogMagic)
	binary.LittleEndian.PutUint64(buf[8:], through)
	binary.LittleEndian.PutUint32(buf[16:], crc32.Checksum(buf[:16], manifestCRCTable))
	return buf
}

// parseUpdateLog decodes an update-log image: the header's compacted-through
// watermark plus every intact record, stopping silently at a torn tail (the
// crash-recovery contract: a record is applied only if it is whole).
func parseUpdateLog(raw []byte) (through uint64, recs []UpdateRecord, err error) {
	if len(raw) < updateLogHeaderLen {
		// Created-but-unwritten (crash between create and header write):
		// an empty log, not corruption.
		return 0, nil, nil
	}
	if string(raw[:8]) != updateLogMagic {
		return 0, nil, fmt.Errorf("core: bad update log magic %q", raw[:8])
	}
	if got := crc32.Checksum(raw[:16], manifestCRCTable); got != binary.LittleEndian.Uint32(raw[16:]) {
		return 0, nil, fmt.Errorf("core: update log header checksum mismatch")
	}
	through = binary.LittleEndian.Uint64(raw[8:])
	rest := raw[updateLogHeaderLen:]
	for len(rest) > 0 {
		rec, n, derr := DecodeUpdateRecord(rest)
		if derr != nil {
			break // torn tail: everything before it is good
		}
		recs = append(recs, rec)
		rest = rest[n:]
	}
	return through, recs, nil
}

// deltaLog is the in-memory update log: an ordered, seq-contiguous window of
// the most recent updates, optionally mirrored to an on-disk file. All
// methods are safe for concurrent use.
type deltaLog struct {
	mu sync.Mutex
	// records[i].Seq == baseSeq + 1 + uint64(i): the window is contiguous,
	// so UpdatesSince can serve any follower whose seq lies in
	// [baseSeq, lastSeq] by index. Structural mutations reset the window.
	records []UpdateRecord
	baseSeq uint64
	lastSeq uint64
	// resetSeq is the seq the window was last reset at (see truncate).
	resetSeq uint64
	// memBytes is the framed size of the retained records (observability).
	memBytes int64

	// f is the on-disk mirror (nil for the mem backend); path/dir locate it
	// for the truncate rewrite. Appends land in w (buffered — the mirror
	// write syscall stays off the per-update critical path) and reach f at
	// the durability points: fsync, truncate, rewrite, close. syncAlways
	// flushes and fsyncs per append. scratch is the reusable encode buffer;
	// both are guarded by mu.
	f          *os.File
	w          *bufio.Writer
	scratch    []byte
	path, dir  string
	syncAlways bool
	// through is the watermark in the mirror's header. relog says an append
	// failed since the mirror last covered every overlay entry: the mirror
	// may lack a record or end in a torn one (which hides later appends from
	// a replay), so compaction must replace it before writing a block.
	through uint64
	relog   bool
	// diskBytes counts record bytes in the mirror since its last rewrite.
	// Truncation normally just overwrites the header watermark in place (a
	// 20-byte pwrite — appends are never stalled behind a file rewrite);
	// the full rewrite runs only when the mirror has grown well past the
	// retained window (see logRewriteSlack).
	diskBytes int64

	compactAfter int
	retain       int

	appends         atomic.Int64
	bytesAppended   atomic.Int64
	compactions     atomic.Int64
	compactFailures atomic.Int64
	invalidations   atomic.Int64
	fallbacks       atomic.Int64
	recovered       int64
}

// newDeltaLog creates the log with its window anchored at baseSeq. dir is ""
// for memory-only logs; otherwise the on-disk mirror is (re)created with a
// fresh header (reopen replays and removes any previous log first).
func newDeltaLog(opts UpdateLogOptions, baseSeq uint64, dir string, syncAlways bool) (*deltaLog, error) {
	opts.defaults()
	l := &deltaLog{
		baseSeq:      baseSeq,
		lastSeq:      baseSeq,
		through:      baseSeq,
		compactAfter: opts.CompactAfter,
		retain:       opts.RetainRecords,
		dir:          dir,
		syncAlways:   syncAlways,
	}
	if dir != "" {
		l.path = filepath.Join(dir, UpdateLogFileName)
		f, err := os.OpenFile(l.path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("core: create update log: %w", err)
		}
		if _, err := f.Write(encodeUpdateLogHeader(baseSeq)); err == nil {
			err = f.Sync()
		} else {
			f.Close()
			return nil, fmt.Errorf("core: write update log header: %w", err)
		}
		l.f = f
	}
	return l, nil
}

// updateLogBufSize is the mirror's append buffer: large enough to absorb a
// few hundred dim-64 records between durability points, small enough that a
// crash loses at most one buffer of non-fsynced tail (the same window the
// periodic sync modes already accept for block writes). A log allocates it
// at its first append, so a store that takes no updates holds none.
const updateLogBufSize = 64 << 10

// flushLocked writes the append buffer's contents to the mirror; a log that
// has not appended since open has no buffer and nothing to write.
func (l *deltaLog) flushLocked() error {
	if l.w == nil {
		return nil
	}
	return l.w.Flush()
}

func (l *deltaLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.flushLocked()
	if serr := l.f.Sync(); err == nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f, l.w = nil, nil
	return err
}

// fsync makes the on-disk mirror durable (no-op for memory-only logs);
// Persist and Close call it so the periodic-sync modes get the same
// durability points the block file gets.
func (l *deltaLog) fsync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	return l.f.Sync()
}

// append assigns the update its seq (advancing snapSeq under the log lock, so
// record order and seq order can never disagree), frames it, mirrors it to
// disk and retains it in the window. rec.Raw must be a caller-owned immutable
// copy. Returns the assigned seq and whether the window has grown enough that
// a compaction should run.
func (l *deltaLog) append(snapSeq *atomic.Uint64, tableIdx, id uint32, raw []byte) (seq uint64, needCompact bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq = snapSeq.Add(1)
	rec := UpdateRecord{Seq: seq, Table: tableIdx, ID: id, Raw: raw}
	if err := l.appendLocked(rec); err != nil {
		return seq, false, err
	}
	return seq, l.needCompactLocked(), nil
}

// appendRecord appends a record that already carries its seq (the replica
// apply path: the primary assigned it). Returns whether compaction is due.
func (l *deltaLog) appendRecord(rec UpdateRecord) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(rec); err != nil {
		return false, err
	}
	return l.needCompactLocked(), nil
}

func (l *deltaLog) needCompactLocked() bool {
	return len(l.records) >= l.retain+l.compactAfter
}

func (l *deltaLog) appendLocked(rec UpdateRecord) error {
	if rec.Seq != l.lastSeq+1 {
		// The seq moved without going through the log (a structural mutator
		// that forgot to invalidate, or a replica batch across a gap). The
		// window's contiguity invariant is what makes UpdatesSince correct,
		// so reset it rather than serve a follower a stream with a hole.
		l.resetLocked(rec.Seq - 1)
	}
	if l.f != nil {
		l.scratch = EncodeUpdateRecord(l.scratch[:0], rec)
		if l.w == nil {
			l.w = bufio.NewWriterSize(l.f, updateLogBufSize)
		}
		if _, err := l.w.Write(l.scratch); err != nil {
			return fmt.Errorf("core: append update log: %w", err)
		}
		if l.syncAlways {
			if err := l.w.Flush(); err != nil {
				return fmt.Errorf("core: append update log: %w", err)
			}
			if err := l.f.Sync(); err != nil {
				return fmt.Errorf("core: sync update log: %w", err)
			}
		}
		l.diskBytes += int64(EncodedUpdateLen(len(rec.Raw)))
	}
	l.records = append(l.records, rec)
	l.lastSeq = rec.Seq
	l.memBytes += int64(EncodedUpdateLen(len(rec.Raw)))
	l.appends.Add(1)
	l.bytesAppended.Add(int64(EncodedUpdateLen(len(rec.Raw))))
	return nil
}

// invalidate empties the window and re-anchors it at cur (the snapshot seq
// after a structural mutation): followers whose seq predates the mutation
// fall off the window and full-sync, which is exactly right — the mutation
// changed more than any stream of vector records can express. The on-disk
// mirror is left alone: it is the crash-recovery copy of every overlay entry,
// and a structural mutation folds in only the overlays of the tables it
// rewrites. The records it keeps for those replay as the values their
// rewritten blocks already hold (replay goes through the persisted layout).
func (l *deltaLog) invalidate(cur uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.resetLocked(cur)
	l.invalidations.Add(1)
}

// appendFailed handles an update whose mirror append failed (failing or full
// disk): the update still commits — the overlay holds and serves it — but its
// durability degrades to the next successful compaction, which re-logs every
// overlay entry before it writes a block (Store.relog). The window resets at
// cur so followers full-sync instead of tailing across the hole. The mirror's
// watermark stays where it is: every record already in the mirror is still
// the only durable copy of its update.
func (l *deltaLog) appendFailed(cur uint64) {
	l.fallbacks.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.resetLocked(cur)
	l.invalidations.Add(1)
	l.relog = l.f != nil
}

// errMirrorLost aborts a compaction that found an append failed after it
// re-logged the overlay; the next compaction re-logs again.
var errMirrorLost = errors.New("core: update log lost an append during compaction")

// covers makes the mirror file hold every record appended so far — buffered
// appends are written out — so a compaction may write in place the overlay
// entries it has just snapshotted: each has its record in the file. It fails
// if an append failed since the last relog. The caller holds the updateMu of
// the table it snapshotted, so none of that table's appends is in flight.
func (l *deltaLog) covers() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if l.relog {
		return errMirrorLost
	}
	if err := l.flushLocked(); err != nil {
		l.relog = true
		return fmt.Errorf("core: update log: %w", err)
	}
	return nil
}

// needsRelog reports whether an append failed since the mirror last covered
// every overlay entry.
func (l *deltaLog) needsRelog() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.relog
}

func (l *deltaLog) resetLocked(cur uint64) {
	l.records = nil
	l.baseSeq = cur
	l.lastSeq = cur
	l.memBytes = 0
	l.resetSeq = cur
}

// logRewriteSlack bounds how far the on-disk mirror may outgrow the retained
// in-memory window before a truncate pays for a full file rewrite. Below the
// threshold, truncation is a 20-byte in-place header update: compacted
// records stay in the file but sit at or below the header watermark, so a
// crash replay skips them (and re-applying them would be idempotent anyway —
// compaction already made their blocks durable).
const logRewriteSlack = 64 << 20

// truncate drops every record at or below through from the window, except
// that the newest retain records always survive (replica catch-up tail), and
// advances the on-disk mirror's compacted watermark to through — in place
// when the file is still small, via atomic rewrite when it has accumulated
// logRewriteSlack bytes beyond the live window. Callers guarantee every
// dropped record's effect is durable in the block image (compaction flushes
// the device first).
func (l *deltaLog) truncate(through uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cut := 0
	for cut < len(l.records) && l.records[cut].Seq <= through {
		cut++
	}
	if keepFloor := len(l.records) - l.retain; cut > keepFloor {
		cut = keepFloor
	}
	if cut > 0 {
		l.baseSeq = l.records[cut-1].Seq
		for _, r := range l.records[:cut] {
			l.memBytes -= int64(EncodedUpdateLen(len(r.Raw)))
		}
		// Re-slice rather than copy: a copy of the retained window (tens of
		// thousands of records) under l.mu stalls every concurrent append.
		// The dropped prefix stays reachable through the backing array until
		// enough accumulates to make a compacting copy worth the pause.
		l.records = l.records[cut:]
		if len(l.records)*2 < cap(l.records) {
			kept := make([]UpdateRecord, len(l.records))
			copy(kept, l.records)
			l.records = kept
		}
	}
	l.compactions.Add(1)
	if l.f == nil {
		return nil
	}
	// The rewrite is built from the window, so it must wait while the mirror
	// may hold a record past through that a window reset dropped from memory.
	if l.diskBytes > l.memBytes+logRewriteSlack && l.resetSeq <= through {
		return l.rewriteLocked(through, l.records)
	}
	// In-place header update: buffered appends land past the header at f's
	// sequential offset, so the two never collide.
	if _, err := l.f.WriteAt(encodeUpdateLogHeader(through), 0); err != nil {
		return fmt.Errorf("core: update log watermark: %w", err)
	}
	if l.syncAlways {
		if err := l.flushLocked(); err != nil {
			return fmt.Errorf("core: update log watermark: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("core: sync update log: %w", err)
		}
	}
	l.through = through
	return nil
}

// rewriteLocked atomically replaces the on-disk mirror with a fresh header
// (compacted through the given seq) plus recs, via temp file + rename, then
// reopens the append handle. Crash-safe: the rename is atomic, and recs hold
// every record of the old mirror past through that a replay would need —
// truncate passes the retained window, which holds every record past its
// through, and relog every overlay entry, which is every update not yet in
// the block image.
func (l *deltaLog) rewriteLocked(through uint64, recs []UpdateRecord) error {
	tmp := l.path + ".tmp"
	tf, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: rewrite update log: %w", err)
	}
	buf := encodeUpdateLogHeader(through)
	for _, rec := range recs {
		buf = EncodeUpdateRecord(buf, rec)
	}
	_, err = tf.Write(buf)
	if err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: rewrite update log: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("core: rewrite update log: %w", err)
	}
	if l.f != nil {
		l.f.Close()
	}
	// Plain O_WRONLY, not O_APPEND: truncate's in-place watermark update
	// needs WriteAt, which Go refuses on append-mode files. Appends go
	// through the explicit end-seek position.
	l.f, err = os.OpenFile(l.path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("core: reopen update log: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("core: reopen update log: %w", err)
	}
	// The rewrite holds every record the replaced file needed, so any bytes
	// still buffered for it are stale — drop them, and with them the error a
	// failed append left in the writer.
	if l.w != nil {
		l.w.Reset(l.f)
	}
	l.diskBytes = int64(len(buf) - updateLogHeaderLen)
	l.through = through
	return nil
}

// since returns up to maxRecords records (bounded also by maxBytes of framed
// payload) with Seq > since, in order. ok is false when since lies outside
// the retained window [baseSeq, lastSeq] — the caller must fall back to a
// full snapshot sync. upTo is the seq of the last returned record (== since
// when the follower is already caught up).
func (l *deltaLog) since(since uint64, maxRecords, maxBytes int) (recs []UpdateRecord, upTo uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if since < l.baseSeq || since > l.lastSeq {
		return nil, 0, false
	}
	start := int(since - l.baseSeq)
	upTo = since
	bytes := 0
	for i := start; i < len(l.records); i++ {
		if len(recs) >= maxRecords {
			break
		}
		rec := l.records[i]
		sz := EncodedUpdateLen(len(rec.Raw))
		if len(recs) > 0 && bytes+sz > maxBytes {
			break
		}
		recs = append(recs, rec)
		bytes += sz
		upTo = rec.Seq
	}
	return recs, upTo, true
}

// UpdateLogStats is a snapshot of the update log's counters.
type UpdateLogStats struct {
	// Records / MemBytes describe the retained in-memory window.
	Records  int   `json:"records"`
	MemBytes int64 `json:"memBytes"`
	// BaseSeq / LastSeq delimit the seqs the log can serve incrementally: a
	// follower at seq S in [BaseSeq, LastSeq] tails records; outside it must
	// full-sync.
	BaseSeq uint64 `json:"baseSeq"`
	LastSeq uint64 `json:"lastSeq"`
	// Appends counts logged updates; Compactions counts folds of the overlay
	// into the block image; Invalidations counts structural mutations that
	// reset the window; FallbackWrites counts updates whose log append failed
	// (they commit overlay-only and stay volatile until the next compaction).
	Appends int64 `json:"appends"`
	// BytesAppended is the total framed bytes appended to the log (memory
	// window and disk mirror alike) — the delta path's write volume, the
	// counterpart of the device's block BytesWritten.
	BytesAppended   int64 `json:"bytesAppended"`
	Compactions     int64 `json:"compactions"`
	CompactFailures int64 `json:"compactFailures"`
	Invalidations   int64 `json:"invalidations"`
	FallbackWrites  int64 `json:"fallbackWrites"`
	// OverlayEntries is the total number of vectors currently served from
	// the DRAM overlay (not yet compacted into the block image).
	OverlayEntries int `json:"overlayEntries"`
	// RecoveredRecords counts log records replayed over the block image when
	// this store was reopened after a crash.
	RecoveredRecords int64 `json:"recoveredRecords"`
}

// UpdateLogStats reports the update log's state.
func (s *Store) UpdateLogStats() UpdateLogStats {
	l := s.deltaLog
	l.mu.Lock()
	out := UpdateLogStats{
		Records:          len(l.records),
		MemBytes:         l.memBytes,
		BaseSeq:          l.baseSeq,
		LastSeq:          l.lastSeq,
		RecoveredRecords: l.recovered,
	}
	l.mu.Unlock()
	out.Appends = l.appends.Load()
	out.BytesAppended = l.bytesAppended.Load()
	out.Compactions = l.compactions.Load()
	out.CompactFailures = l.compactFailures.Load()
	out.Invalidations = l.invalidations.Load()
	out.FallbackWrites = l.fallbacks.Load()
	for _, st := range s.tables {
		out.OverlayEntries += st.overlay.size()
	}
	return out
}

// deltaOverlay is one table's in-DRAM overlay: vector ID -> the raw fp16
// bytes of updates not yet compacted into the block image, tagged with the
// seq that wrote them (so compaction can tell "unchanged since I snapshotted"
// from "updated again meanwhile"). Entries' byte slices are immutable.
//
// n mirrors len(m), written under mu: the serving path probes the overlay
// for every missed id and every prefetch candidate, and between compactions
// of a table nobody updates the overlay is empty, so get and contains answer
// "absent" from one atomic load without touching the lock. A reader that
// loads 0 while a put is in flight is ordered before that put, exactly as if
// it had won the lock first.
type deltaOverlay struct {
	mu sync.RWMutex
	m  map[uint32]overlayEntry
	n  atomic.Int64
}

type overlayEntry struct {
	raw []byte
	seq uint64
}

func newDeltaOverlay() *deltaOverlay {
	return &deltaOverlay{m: make(map[uint32]overlayEntry)}
}

// get returns the overlaid bytes for id, or nil.
func (o *deltaOverlay) get(id uint32) []byte {
	if o.n.Load() == 0 {
		return nil
	}
	o.mu.RLock()
	e, ok := o.m[id]
	o.mu.RUnlock()
	if !ok {
		return nil
	}
	return e.raw
}

// contains reports whether id is overlaid (the block image's copy is stale).
func (o *deltaOverlay) contains(id uint32) bool {
	if o.n.Load() == 0 {
		return false
	}
	o.mu.RLock()
	_, ok := o.m[id]
	o.mu.RUnlock()
	return ok
}

func (o *deltaOverlay) put(id uint32, raw []byte, seq uint64) {
	o.mu.Lock()
	o.m[id] = overlayEntry{raw: raw, seq: seq}
	o.n.Store(int64(len(o.m)))
	o.mu.Unlock()
}

func (o *deltaOverlay) size() int { return int(o.n.Load()) }

// overlayEntryBytes is what one overlay entry holds besides its payload: the
// map key and the entry struct (the map's bucket slack is not counted).
const overlayEntryBytes = 4 + 24 + 8

// snapshot copies the overlay map (entry slices are shared, immutable).
func (o *deltaOverlay) snapshot() map[uint32]overlayEntry {
	o.mu.RLock()
	out := make(map[uint32]overlayEntry, len(o.m))
	for id, e := range o.m {
		out[id] = e
	}
	o.mu.RUnlock()
	return out
}

// deleteIfSeq removes id only if its entry still carries seq — an entry
// re-written since the caller snapshotted it must survive (its newer bytes
// are not in the image yet).
func (o *deltaOverlay) deleteIfSeq(id uint32, seq uint64) {
	o.mu.Lock()
	if e, ok := o.m[id]; ok && e.seq == seq {
		delete(o.m, id)
		o.n.Store(int64(len(o.m)))
	}
	o.mu.Unlock()
}

// clear empties the overlay. Callers guarantee the block image already holds
// every overlaid value (installImage: the image it just put in place was
// rendered with the overlay laid over the blocks, updates excluded since).
func (o *deltaOverlay) clear() {
	o.mu.Lock()
	clear(o.m)
	o.n.Store(0)
	o.mu.Unlock()
}
