// Snapshot replication support: exporting a crash-consistent image of the
// whole store (for a primary streaming itself to replicas) and importing such
// an image into a fresh data dir (for a replica bootstrapping from the
// stream).
//
// An export is the store's committed contents — each table's block range
// read from the device with the overlay laid over it (renderImage) — taken
// under the same locks the migration staging machinery uses (mutateMu
// excludes Train/LoadState/migrations, every table's updateMu excludes vector
// updates), so it can never observe a half-rewritten table. The manifest and
// trained state use the exact on-disk formats of a file-backed data dir,
// which makes the import side trivial: write the block image through the
// bulk-load path, drop the state file, and commit the manifest
// last — the same protocol initDir uses.
//
// Exports are identified by a snapshot sequence number that advances on
// every committed mutation of the servable image (UpdateVector, Train,
// LoadState, background re-layout migrations). Replicas poll the seq and
// re-sync when it moves.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"bandana/internal/nvm"
)

// ErrReadOnly is returned by mutating operations on a store opened with
// Config.ReadOnly (e.g. a replica serving a bootstrapped snapshot).
var ErrReadOnly = errors.New("core: store is read-only")

// checkWritable gates every public mutator of the servable image.
func (s *Store) checkWritable() error {
	if s.readOnly {
		return ErrReadOnly
	}
	return nil
}

// ReadOnly reports whether the store rejects mutations (Config.ReadOnly).
func (s *Store) ReadOnly() bool { return s.readOnly }

// SnapshotSeq returns the store's snapshot sequence number. It advances
// after every committed mutation of the servable image, so a replica that
// synced at seq N knows it must re-sync when the primary reports a
// different value.
//
// The seq is not persisted directly; instead it starts boot-stamped (the
// open time in the high bits — see initialSnapshotSeq), which keeps it
// increasing across process restarts: a primary that restarts and mutates
// reports a larger seq than anything it served before, so replicas re-sync
// instead of comparing their recorded seq against a counter that restarted
// from 1. The boot stamp alone has one-second granularity, though, so a
// reopened file-backed store additionally floors the seq at the highest seq
// its replayed update log recorded (see reopenDir) — without that, a quick
// restart would re-issue seqs the previous process already handed out.
func (s *Store) SnapshotSeq() uint64 { return s.snapSeq.Load() }

// initialSnapshotSeq derives a store's starting snapshot seq: an explicit
// override when given (replicas inherit their primary's seq), otherwise the
// open time in seconds shifted left 20 bits. The shift leaves room for a
// million in-process bumps per second while keeping the value below 2^53,
// so the seq survives JSON number round-trips exactly.
func initialSnapshotSeq(override uint64) uint64 {
	if override != 0 {
		return override
	}
	return uint64(time.Now().Unix()) << 20
}

// noteStructuralMutation records a committed mutation that changed more than
// individual vectors (Train, LoadState, adaptation epochs): the seq advances
// AND the update-log window resets, so followers tailing vector records
// full-sync across the change instead of streaming through a layout or
// cache-state transition no record can express.
func (s *Store) noteStructuralMutation() {
	s.snapSeq.Add(1)
	s.deltaLog.invalidate(s.snapSeq.Load())
}

// Snapshot is a self-contained, CRC-protected image of a store: everything a
// replica needs to serve byte-identical vectors. Manifest and State use the
// on-disk formats of a file-backed data dir (manifest.bnd / state.bnd);
// Blocks is the full committed block image in device order.
type Snapshot struct {
	// Seq is the store's snapshot sequence number at export time.
	Seq uint64
	// Manifest is the table-geometry manifest, including its CRC trailer.
	Manifest []byte
	// State is the trained state in the SaveState format (CRC trailer
	// included).
	State []byte
	// Blocks is the full block image (NumBlocks * nvm.BlockSize bytes).
	Blocks []byte
	// BlocksCRC is the CRC-32C of Blocks, the stream's end-to-end check.
	BlocksCRC uint32
}

// TotalBlocks returns the device size implied by the block image.
func (sn *Snapshot) TotalBlocks() int { return len(sn.Blocks) / nvm.BlockSize }

// ExportSnapshot renders a crash-consistent snapshot of the store's
// committed contents. It holds the whole-store mutator lock plus every
// table's update lock while building the image — the same exclusion the
// background-migration staging machinery relies on — so concurrent Train,
// LoadState, UpdateVector or re-layout migrations can never tear the export.
// Serving (lookups, cache fills) is not blocked at any point: the export
// reads the device next to the misses (one pass over every table's range,
// outside the I/O scheduler and the serving counters) and takes no rewrite
// lock; a concurrent compaction only moves values the export already took
// from the overlay.
func (s *Store) ExportSnapshot() (*Snapshot, error) {
	s.mutateMu.Lock()
	defer s.mutateMu.Unlock()
	for _, st := range s.tables {
		st.updateMu.Lock()
		defer st.updateMu.Unlock()
	}

	totalBlocks := 0
	for _, st := range s.tables {
		totalBlocks += st.numBlocks
	}
	blocks := make([]byte, totalBlocks*nvm.BlockSize)
	for _, st := range s.tables {
		dst := blocks[st.blockBase*nvm.BlockSize : (st.blockBase+st.numBlocks)*nvm.BlockSize]
		if _, err := s.renderImage(st, st.loadState().layout, dst); err != nil {
			return nil, err
		}
	}

	var state bytes.Buffer
	if err := s.SaveState(&state); err != nil {
		return nil, fmt.Errorf("core: export state: %w", err)
	}
	return &Snapshot{
		Seq:       s.snapSeq.Load(),
		Manifest:  manifestBytes(s, totalBlocks),
		State:     state.Bytes(),
		Blocks:    blocks,
		BlocksCRC: crc32.Checksum(blocks, manifestCRCTable),
	}, nil
}

// ImportSnapshot materializes a snapshot as a freshly initialized
// file-backed data dir at dir, verifying the block image against its CRC
// first. The blocks go in through the bulk-load path (one contiguous write)
// and the manifest is committed
// last, so an interrupted import leaves an uninitialized dir that is simply
// re-imported — never a torn store. The resulting dir reopens through the
// normal Open path (usually with Config.ReadOnly for a serving replica).
func ImportSnapshot(dir string, sn *Snapshot, sync nvm.SyncMode) error {
	if DirInitialized(dir) {
		return fmt.Errorf("core: %s already holds an initialized store", dir)
	}
	if len(sn.Blocks) == 0 || len(sn.Blocks)%nvm.BlockSize != 0 {
		return fmt.Errorf("core: snapshot block image of %d bytes is not block-aligned", len(sn.Blocks))
	}
	if crc := crc32.Checksum(sn.Blocks, manifestCRCTable); crc != sn.BlocksCRC {
		return fmt.Errorf("core: snapshot block image checksum mismatch (got %08x, want %08x)", crc, sn.BlocksCRC)
	}
	entries, totalBlocks, err := parseManifest(sn.Manifest)
	if err != nil {
		return err
	}
	if totalBlocks != sn.TotalBlocks() {
		return fmt.Errorf("core: snapshot manifest expects %d blocks, image has %d", totalBlocks, sn.TotalBlocks())
	}
	// The state must decode and cover exactly the manifest's tables;
	// verifying before any file is written keeps a corrupt stream from
	// leaving half a data dir behind.
	saved, err := decodeSavedStates(bytes.NewReader(sn.State))
	if err != nil {
		return fmt.Errorf("core: snapshot state: %w", err)
	}
	names := make(map[string]int, len(entries))
	for _, e := range entries {
		names[e.name] = e.numVectors
	}
	for _, sv := range saved {
		nv, ok := names[sv.name]
		if !ok {
			return fmt.Errorf("core: snapshot state references unknown table %q", sv.name)
		}
		if len(sv.order) != 0 && len(sv.order) != nv {
			return fmt.Errorf("core: snapshot state for table %q covers %d vectors, manifest says %d",
				sv.name, len(sv.order), nv)
		}
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: create snapshot dir: %w", err)
	}
	fs, err := nvm.CreateFileStore(filepath.Join(dir, BlocksFileName), totalBlocks,
		nvm.FileStoreOptions{Sync: sync})
	if err != nil {
		return err
	}
	err = fs.WriteBlocks(0, sn.Blocks)
	if err == nil {
		err = fs.Flush()
	}
	if cerr := fs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("core: import snapshot blocks: %w", err)
	}
	if err := atomicWriteFile(dir, StateFileName, func(w io.Writer) error {
		_, werr := w.Write(sn.State)
		return werr
	}); err != nil {
		return fmt.Errorf("core: import snapshot state: %w", err)
	}
	// The manifest rename is the commit point, exactly as in initDir.
	if err := atomicWriteFile(dir, ManifestFileName, func(w io.Writer) error {
		_, werr := w.Write(sn.Manifest)
		return werr
	}); err != nil {
		return fmt.Errorf("core: import snapshot manifest: %w", err)
	}
	return nil
}
