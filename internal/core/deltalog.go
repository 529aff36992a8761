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
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bandana/internal/datadir"
)

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

// deltaLog is the in-memory update log: an ordered, seq-contiguous window of
// the most recent updates, optionally mirrored to an on-disk file. All
// methods are safe for concurrent use.
type deltaLog struct {
	mu sync.Mutex
	// records[i].Seq == baseSeq + 1 + uint64(i): the window is contiguous,
	// so UpdatesSince can serve any follower whose seq lies in
	// [baseSeq, lastSeq] by index. Structural mutations reset the window.
	records []datadir.UpdateRecord
	baseSeq uint64
	lastSeq uint64
	// resetSeq is the seq the window was last reset at (see truncate).
	resetSeq uint64
	// memBytes is the framed size of the retained records (observability).
	memBytes int64

	// file is the on-disk mirror (nil for the mem backend), guarded by mu.
	// relog says an append failed since the mirror last covered every
	// overlay entry: the mirror may lack a record or end in a torn one (which
	// hides later appends from a replay), so compaction must replace it
	// before writing a block.
	file  *datadir.Log
	relog bool

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

// newDeltaLog creates the log with its window anchored at baseSeq. A dir
// with no Path makes a memory-only log; otherwise the on-disk mirror is
// (re)created with a fresh header (reopen replays and removes any previous
// log first).
func newDeltaLog(opts UpdateLogOptions, baseSeq uint64, dir datadir.Dir, syncAlways bool) (*deltaLog, error) {
	opts.defaults()
	l := &deltaLog{
		baseSeq:      baseSeq,
		lastSeq:      baseSeq,
		compactAfter: opts.CompactAfter,
		retain:       opts.RetainRecords,
	}
	if dir.Path != "" {
		var err error
		if l.file, err = dir.CreateUpdateLog(baseSeq, syncAlways); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *deltaLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	err := l.file.Close()
	l.file = nil
	return err
}

// fsync makes the on-disk mirror durable (no-op for memory-only logs);
// Persist and Close call it so the periodic-sync modes get the same
// durability points the block file gets.
func (l *deltaLog) fsync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	return l.file.Sync()
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
	rec := datadir.UpdateRecord{Seq: seq, Table: tableIdx, ID: id, Raw: raw}
	if err := l.appendLocked(rec); err != nil {
		return seq, false, err
	}
	return seq, l.needCompactLocked(), nil
}

// appendRecord appends a record that already carries its seq (the replica
// apply path: the primary assigned it). Returns whether compaction is due.
func (l *deltaLog) appendRecord(rec datadir.UpdateRecord) (bool, error) {
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

func (l *deltaLog) appendLocked(rec datadir.UpdateRecord) error {
	if rec.Seq != l.lastSeq+1 {
		// The seq moved without going through the log (a structural mutator
		// that forgot to invalidate, or a replica batch across a gap). The
		// window's contiguity invariant is what makes UpdatesSince correct,
		// so reset it rather than serve a follower a stream with a hole.
		l.resetLocked(rec.Seq - 1)
	}
	if l.file != nil {
		if err := l.file.Append(rec); err != nil {
			return fmt.Errorf("core: append update log: %w", err)
		}
	}
	l.records = append(l.records, rec)
	l.lastSeq = rec.Seq
	l.memBytes += int64(datadir.EncodedUpdateLen(len(rec.Raw)))
	l.appends.Add(1)
	l.bytesAppended.Add(int64(datadir.EncodedUpdateLen(len(rec.Raw))))
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
	l.relog = l.file != nil
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
	if l.file == nil {
		return nil
	}
	if l.relog {
		return errMirrorLost
	}
	if err := l.file.Flush(); err != nil {
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
			l.memBytes -= int64(datadir.EncodedUpdateLen(len(r.Raw)))
		}
		// Re-slice rather than copy: a copy of the retained window (tens of
		// thousands of records) under l.mu stalls every concurrent append.
		// The dropped prefix stays reachable through the backing array until
		// enough accumulates to make a compacting copy worth the pause.
		l.records = l.records[cut:]
		if len(l.records)*2 < cap(l.records) {
			kept := make([]datadir.UpdateRecord, len(l.records))
			copy(kept, l.records)
			l.records = kept
		}
	}
	l.compactions.Add(1)
	if l.file == nil {
		return nil
	}
	// The rewrite is built from the window, so it must wait while the mirror
	// may hold a record past through that a window reset dropped from memory.
	if l.file.RecordBytes() > l.memBytes+logRewriteSlack && l.resetSeq <= through {
		return l.file.Rewrite(through, l.records)
	}
	if err := l.file.SetWatermark(through); err != nil {
		return fmt.Errorf("core: update log watermark: %w", err)
	}
	return nil
}

// since returns up to maxRecords records (bounded also by maxBytes of framed
// payload) with Seq > since, in order. ok is false when since lies outside
// the retained window [baseSeq, lastSeq] — the caller must fall back to a
// full snapshot sync. upTo is the seq of the last returned record (== since
// when the follower is already caught up).
func (l *deltaLog) since(since uint64, maxRecords, maxBytes int) (recs []datadir.UpdateRecord, upTo uint64, ok bool) {
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
		sz := datadir.EncodedUpdateLen(len(rec.Raw))
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
// The serving path probes the overlay for every missed id and every prefetch
// candidate, while at most a compaction's worth of a table's ids are
// overlaid. So a probe first asks filter, a bitset over id mod
// overlayFilterBits allocated at the table's first put, and answers "absent"
// from one atomic load when the id's bit is clear; only a set bit takes the
// read lock. Writers hold mu, and a bit is never clear while an id of it is
// in m: put sets the bit before it inserts, and a delete recomputes the
// filter from what is left, writing each word old → new, where both hold the
// bit of every remaining id. A stale set bit costs only a locked probe.
//
// A reader that loads a clear bit while a put is in flight is ordered before
// that put, exactly as if it had won the lock first: the update's epoch bump
// and cache Remove, which follow its put, keep the block image's stale bytes
// out of the cache (see applyUpdate and serveBatch). A reader that loads a
// bit compaction cleared finds the folded value in the block image, written
// before the entry was deleted.
type deltaOverlay struct {
	mu     sync.RWMutex
	m      map[uint32]overlayEntry
	n      atomic.Int64 // len(m), written under mu
	filter atomic.Pointer[overlayFilter]
}

// overlayFilterBits is the overlay filter's size: 512 B per table that has
// taken an update. Against the ≤ CompactAfter ids overlaid between
// compactions, most bits stay clear.
const overlayFilterBits = 4096

// overlayFilter has bit id % overlayFilterBits set for every overlaid id.
// Writers hold the overlay's mu and update a word with Load + Store: they
// are serialised, so no read-modify-write instruction is needed.
type overlayFilter [overlayFilterBits / 64]atomic.Uint64

func filterBit(id uint32) (word int, bit uint64) {
	i := id % overlayFilterBits
	return int(i / 64), 1 << (i % 64)
}

type overlayEntry struct {
	raw []byte
	seq uint64
}

func newDeltaOverlay() *deltaOverlay {
	return &deltaOverlay{m: make(map[uint32]overlayEntry)}
}

// mayHold reports whether id's filter bit is set: false means id is not
// overlaid, true that it may be.
func (o *deltaOverlay) mayHold(id uint32) bool {
	f := o.filter.Load()
	if f == nil {
		return false
	}
	w, b := filterBit(id)
	return f[w].Load()&b != 0
}

// get returns the overlaid bytes for id, or nil.
func (o *deltaOverlay) get(id uint32) []byte {
	if !o.mayHold(id) {
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
	if !o.mayHold(id) {
		return false
	}
	o.mu.RLock()
	_, ok := o.m[id]
	o.mu.RUnlock()
	return ok
}

func (o *deltaOverlay) put(id uint32, raw []byte, seq uint64) {
	o.mu.Lock()
	f := o.filter.Load()
	if f == nil {
		f = new(overlayFilter)
		o.filter.Store(f)
	}
	w, b := filterBit(id)
	if v := f[w].Load(); v&b == 0 {
		f[w].Store(v | b)
	}
	o.m[id] = overlayEntry{raw: raw, seq: seq}
	o.n.Store(int64(len(o.m)))
	o.mu.Unlock()
}

func (o *deltaOverlay) size() int { return int(o.n.Load()) }

// overlayEntryBytes is what one overlay entry holds besides its payload: the
// map key and the entry struct (the map's bucket slack is not counted).
const overlayEntryBytes = 4 + 24 + 8

// sizeBytes is the overlay's DRAM for vectors of vecBytes each: its entries
// and payloads, and the filter once the table has taken an update.
func (o *deltaOverlay) sizeBytes(vecBytes int) int64 {
	b := int64(o.size()) * int64(vecBytes+overlayEntryBytes)
	if o.filter.Load() != nil {
		b += overlayFilterBits / 8
	}
	return b
}

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

// deleteFolded removes every entry of folded that still carries the seq
// folded holds for it — an entry re-written since the caller snapshotted it
// must survive (its newer bytes are not in the image yet) — and recomputes
// the filter from the entries left.
func (o *deltaOverlay) deleteFolded(folded map[uint32]overlayEntry) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for id, e := range folded {
		if cur, ok := o.m[id]; ok && cur.seq == e.seq {
			delete(o.m, id)
		}
	}
	o.n.Store(int64(len(o.m)))
	f := o.filter.Load()
	if f == nil {
		return
	}
	var next [overlayFilterBits / 64]uint64
	for id := range o.m {
		w, b := filterBit(id)
		next[w] |= b
	}
	for w := range next {
		if f[w].Load() != next[w] {
			f[w].Store(next[w])
		}
	}
}

// clear empties the overlay. Callers guarantee the block image already holds
// every overlaid value (installImage: the image it just put in place was
// rendered with the overlay laid over the blocks, updates excluded since).
func (o *deltaOverlay) clear() {
	o.mu.Lock()
	clear(o.m)
	o.n.Store(0)
	if f := o.filter.Load(); f != nil {
		for w := range f {
			f[w].Store(0)
		}
	}
	o.mu.Unlock()
}
