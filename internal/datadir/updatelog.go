package datadir

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

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
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Raw)))
	dst = binary.LittleEndian.AppendUint64(dst, rec.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, rec.Table)
	dst = binary.LittleEndian.AppendUint32(dst, rec.ID)
	dst = append(dst, rec.Raw...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], Castagnoli))
}

// DecodeUpdateRecord decodes one framed record from the front of b, returning
// the record and the number of bytes consumed. The returned Raw aliases b.
func DecodeUpdateRecord(b []byte) (UpdateRecord, int, error) {
	if len(b) < updateRecordOverhead {
		return UpdateRecord{}, 0, fmt.Errorf("datadir: update record truncated (%d bytes)", len(b))
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[0:]))
	if payloadLen > maxUpdatePayload {
		return UpdateRecord{}, 0, fmt.Errorf("datadir: implausible update payload length %d", payloadLen)
	}
	total := updateRecordOverhead + payloadLen
	if len(b) < total {
		return UpdateRecord{}, 0, fmt.Errorf("datadir: update record truncated (%d of %d bytes)", len(b), total)
	}
	body := b[:updateRecordHeaderLen+payloadLen]
	want := binary.LittleEndian.Uint32(b[updateRecordHeaderLen+payloadLen:])
	if got := crc32.Checksum(body, Castagnoli); got != want {
		return UpdateRecord{}, 0, fmt.Errorf("datadir: update record checksum mismatch (got %08x want %08x)", got, want)
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
	updateLogMagic = "BNDULOG1"
	// UpdateLogHeaderLen is the header's size: the records start after it.
	UpdateLogHeaderLen = 8 + 8 + 4
)

func encodeUpdateLogHeader(through uint64) []byte {
	b := binary.LittleEndian.AppendUint64([]byte(updateLogMagic), through)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, Castagnoli))
}

// ParseUpdateLog decodes an update-log image: the header's compacted-through
// watermark plus every intact record, stopping silently at a torn tail (the
// crash-recovery contract: a record is applied only if it is whole).
func ParseUpdateLog(raw []byte) (through uint64, recs []UpdateRecord, err error) {
	if len(raw) < UpdateLogHeaderLen {
		// Created-but-unwritten (crash between create and header write):
		// an empty log, not corruption.
		return 0, nil, nil
	}
	if string(raw[:8]) != updateLogMagic {
		return 0, nil, fmt.Errorf("datadir: bad update log magic %q", raw[:8])
	}
	if got := crc32.Checksum(raw[:16], Castagnoli); got != binary.LittleEndian.Uint32(raw[16:]) {
		return 0, nil, fmt.Errorf("datadir: update log header checksum mismatch")
	}
	through = binary.LittleEndian.Uint64(raw[8:])
	rest := raw[UpdateLogHeaderLen:]
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

// ReadUpdateLog reads a leftover update log for replay: the records past its
// watermark, in log order, each checked against the manifest's tables, and
// the highest seq the log covers, watermark included. A dir without a log
// reads as an empty one.
func (d Dir) ReadUpdateLog(geoms []TableGeom) (replay []UpdateRecord, maxSeq uint64, err error) {
	raw, _, err := d.readIfExists(UpdateLogFileName)
	if err != nil {
		return nil, 0, fmt.Errorf("datadir: read update log: %w", err)
	}
	through, recs, err := ParseUpdateLog(raw)
	if err != nil {
		return nil, 0, err
	}
	maxSeq = through
	for _, rec := range recs {
		maxSeq = max(maxSeq, rec.Seq)
		if rec.Seq <= through {
			continue
		}
		if int(rec.Table) >= len(geoms) {
			return nil, 0, fmt.Errorf("datadir: update log references table %d, manifest has %d", rec.Table, len(geoms))
		}
		g := geoms[rec.Table]
		if len(rec.Raw) != g.VecBytes() {
			return nil, 0, fmt.Errorf("datadir: update log: table %q record carries %d bytes, want %d",
				g.Name, len(rec.Raw), g.VecBytes())
		}
		if int(rec.ID) >= g.NumVectors {
			return nil, 0, fmt.Errorf("datadir: update log: table %q record targets vector %d of %d",
				g.Name, rec.ID, g.NumVectors)
		}
		replay = append(replay, rec)
	}
	return replay, maxSeq, nil
}

// RemoveUpdateLog durably removes the update log, once replayed.
func (d Dir) RemoveUpdateLog() error {
	if err := d.remove(UpdateLogFileName); err != nil {
		return fmt.Errorf("datadir: remove replayed update log: %w", err)
	}
	return nil
}

// updateLogBufSize is the log's append buffer: large enough to absorb a few
// hundred dim-64 records between durability points, small enough that a
// crash loses at most one buffer of non-fsynced tail (the same window the
// periodic sync modes already accept for block writes). A log allocates it
// at its first append, so a store that takes no updates holds none.
const updateLogBufSize = 64 << 10

// Log is an open updates.log. Appends land in a buffer (the write syscall
// stays off the per-update critical path) and reach the file at Flush, Sync
// and Close; with syncAlways every append is flushed and fsynced. A Log is
// not safe for concurrent use.
type Log struct {
	d          Dir
	f          File
	w          *bufio.Writer
	scratch    []byte // the reusable encode buffer
	syncAlways bool
	// through is the watermark in the header; recordBytes counts the record
	// bytes appended since the file was last rewritten.
	through     uint64
	recordBytes int64
}

// CreateUpdateLog (re)creates the update log with a fresh header at the
// watermark through (an open replays and removes any previous log first).
func (d Dir) CreateUpdateLog(through uint64, syncAlways bool) (*Log, error) {
	l := &Log{d: d, syncAlways: syncAlways}
	if err := l.Rewrite(through, nil); err != nil {
		return nil, err
	}
	return l, nil
}

// Watermark returns the compacted-through seq in the log's header.
func (l *Log) Watermark() uint64 { return l.through }

// RecordBytes returns the record bytes in the file, compacted or not.
func (l *Log) RecordBytes() int64 { return l.recordBytes }

// Append frames rec onto the log.
func (l *Log) Append(rec UpdateRecord) error {
	l.scratch = EncodeUpdateRecord(l.scratch[:0], rec)
	if l.w == nil {
		l.w = bufio.NewWriterSize(l.f, updateLogBufSize)
	}
	if _, err := l.w.Write(l.scratch); err != nil {
		return err
	}
	if l.syncAlways {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	l.recordBytes += int64(len(l.scratch))
	return nil
}

// Flush writes the append buffer's contents (if any) to the file.
func (l *Log) Flush() error {
	if l.w == nil {
		return nil
	}
	return l.w.Flush()
}

// Sync makes every append so far durable.
func (l *Log) Sync() error {
	if err := l.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close syncs and closes the file.
func (l *Log) Close() error {
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SetWatermark overwrites the header's watermark in place: a 20-byte pwrite,
// so appends are never stalled behind a file rewrite. Buffered appends land
// past the header at the file's sequential offset, so the two never collide.
func (l *Log) SetWatermark(through uint64) error {
	if _, err := l.f.WriteAt(encodeUpdateLogHeader(through), 0); err != nil {
		return err
	}
	if l.syncAlways {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	l.through = through
	return nil
}

// Rewrite atomically replaces the file with a fresh header at through plus
// recs, then reopens it for appends. The caller passes every record of the
// old file past through that a replay would need.
func (l *Log) Rewrite(through uint64, recs []UpdateRecord) error {
	buf := encodeUpdateLogHeader(through)
	for _, rec := range recs {
		buf = EncodeUpdateRecord(buf, rec)
	}
	if err := l.d.writeFile(UpdateLogFileName, writeBytes(buf)); err != nil {
		return fmt.Errorf("datadir: rewrite update log: %w", err)
	}
	if l.f != nil {
		_ = l.f.Close() // the replaced file: what it held past through is in the rewrite
	}
	// Plain O_WRONLY, not O_APPEND: SetWatermark's in-place header write
	// needs WriteAt, which Go refuses on append-mode files. Appends go
	// through the explicit end-seek position.
	f, err := l.d.FS.OpenFile(l.d.path(UpdateLogFileName), os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("datadir: reopen update log: %w", err)
	}
	l.f = f
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("datadir: reopen update log: %w", err)
	}
	// The rewrite holds every record the replaced file needed, so any bytes
	// still buffered for it are stale — drop them, and with them the error a
	// failed append left in the writer.
	if l.w != nil {
		l.w.Reset(f)
	}
	l.recordBytes = int64(len(buf) - UpdateLogHeaderLen)
	l.through = through
	return nil
}
