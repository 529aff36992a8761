// File-backed store lifecycle: a Config with Backend == BackendFile persists
// the store under Config.DataDir as three files —
//
//	blocks.bnd    the NVM block file (see nvm.FileStore)
//	manifest.bnd  table geometry (names, dims, sizes, block spans) + CRC
//	state.bnd     trained state in the SaveState format
//
// The manifest is written last (via temp file + rename) when a directory is
// initialized, so a half-written data dir is simply re-initialized on the
// next Open. Reopening an initialized directory installs the manifest's
// geometry and the persisted layouts and trained state over the block file
// without reading or rewriting a single data block (only a leftover update
// log or migration record touches blocks) — a restarted server serves
// identical vectors without retraining.
package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"bandana/internal/layout"
	"bandana/internal/nvm"
)

const (
	// BlocksFileName is the block file inside a data dir.
	BlocksFileName = "blocks.bnd"
	// ManifestFileName is the table-geometry manifest inside a data dir.
	ManifestFileName = "manifest.bnd"
	// StateFileName is the trained-state file inside a data dir.
	StateFileName = "state.bnd"

	manifestMagic   = "BNDMANI1"
	manifestVersion = 1
)

var manifestCRCTable = crc32.MakeTable(crc32.Castagnoli)

// DirInitialized reports whether dir holds an initialized file-backed store
// (i.e. a committed manifest).
func DirInitialized(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, ManifestFileName))
	return err == nil
}

// openFileBacked opens the file backend: it initializes DataDir on first use
// and reopens it (update-log replay + state restore, no retraining)
// afterwards.
func openFileBacked(cfg Config) (*Store, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("core: backend %q requires DataDir", BackendFile)
	}
	if cfg.Device != nil {
		return nil, fmt.Errorf("core: Device and backend %q are mutually exclusive", BackendFile)
	}
	if DirInitialized(cfg.DataDir) {
		return reopenDir(cfg)
	}
	return initDir(cfg)
}

// initDir writes a fresh data dir: block file, table contents, baseline
// state, and finally the manifest as the commit point.
func initDir(cfg Config) (*Store, error) {
	if len(cfg.Tables) == 0 {
		return nil, fmt.Errorf("core: data dir %q is not initialized and no tables were provided", cfg.DataDir)
	}
	geoms, totalBlocks, err := cfg.geometry()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("core: create data dir: %w", err)
	}
	fs, err := nvm.CreateFileStore(filepath.Join(cfg.DataDir, BlocksFileName), totalBlocks,
		nvm.FileStoreOptions{Sync: cfg.Sync, Direct: cfg.Direct})
	if err != nil {
		return nil, err
	}
	device := nvm.NewDevice(nvm.DeviceConfig{Store: fs, Seed: cfg.Seed})
	s, err := buildStore(cfg, device, true, geoms, nil)
	if err != nil {
		device.Close()
		return nil, err
	}
	err = s.writeTables(cfg.Tables)
	if err == nil {
		err = s.Persist() // baseline state: identity layout, no prefetching
	}
	if err == nil {
		err = writeManifest(cfg.DataDir, s, totalBlocks)
	}
	if err != nil {
		s.Close() // stops the I/O scheduler and closes the owned device
		return nil, err
	}
	return s, nil
}

// reopenDir restores a store from an initialized data dir without reading or
// rewriting data blocks (unless a crash left an update log or a migration to
// finish) and without retraining.
func reopenDir(cfg Config) (*Store, error) {
	if cfg.Tables != nil {
		return nil, fmt.Errorf("core: data dir %q is already initialized; reopen with Tables == nil (vectors are restored from disk)", cfg.DataDir)
	}
	geoms, totalBlocks, err := readManifest(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	fs, err := nvm.OpenFileStore(filepath.Join(cfg.DataDir, BlocksFileName),
		nvm.FileStoreOptions{Sync: cfg.Sync, Direct: cfg.Direct})
	if err != nil {
		return nil, err
	}
	closeOnErr := fs
	defer func() {
		if closeOnErr != nil {
			closeOnErr.Close()
		}
	}()
	if fs.NumBlocks() != totalBlocks {
		return nil, fmt.Errorf("core: manifest expects %d blocks, block file has %d", totalBlocks, fs.NumBlocks())
	}

	// A committed-but-unfinished layout install (the previous process died
	// between the migration record commit and its cleanup) is redone now,
	// before the update log is replayed: the staged image is bulk-copied
	// into the table's block range, and the recorded placement overrides
	// whatever the state file says for that table. This never refuses the
	// reopen — the staged image makes the redo exact (see migration.go).
	mig, err := readMigrationRecord(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	migOrder := map[string][]uint32{}
	if mig == nil {
		// A crash between staging the image and committing the record
		// leaves an orphan image; the migration never happened, so drop it.
		_ = os.Remove(filepath.Join(cfg.DataDir, MigrationImageName))
	}
	if mig != nil {
		var entry *tableGeom
		for i := range geoms {
			if geoms[i].name == mig.table {
				entry = &geoms[i]
				break
			}
		}
		if entry == nil {
			return nil, fmt.Errorf("core: migration record references unknown table %q", mig.table)
		}
		if len(mig.order) != entry.numVectors {
			return nil, fmt.Errorf("core: migration record covers %d vectors, table %q has %d",
				len(mig.order), mig.table, entry.numVectors)
		}
		if err := redoMigration(cfg.DataDir, mig, fs, *entry); err != nil {
			return nil, err
		}
		migOrder[mig.table] = mig.order
	}

	// Trained state (absent on a dir that was initialized but never trained
	// nor persisted — fall back to identity layouts).
	saved := make(map[string]savedTable)
	if f, err := os.Open(filepath.Join(cfg.DataDir, StateFileName)); err == nil {
		entriesSaved, derr := decodeSavedStates(bufio.NewReader(f))
		f.Close()
		if derr != nil {
			return nil, fmt.Errorf("core: read %s: %w", StateFileName, derr)
		}
		for _, sv := range entriesSaved {
			saved[sv.name] = sv
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	// The persisted layouts (block slot -> vector ID) the block image is
	// placed under; a table never trained is in ID order.
	layouts := make([]*layout.Layout, len(geoms))
	for i, g := range geoms {
		order := saved[g.name].order
		if ord, ok := migOrder[g.name]; ok {
			// The redone migration's placement wins over the (possibly
			// stale) state file for this table.
			order = ord
		} else if len(order) > 0 && len(order) != g.numVectors {
			return nil, fmt.Errorf("core: table %q: state covers %d vectors, manifest says %d",
				g.name, len(order), g.numVectors)
		}
		if len(order) == 0 {
			layouts[i] = layout.Identity(g.numVectors, g.blockVectors)
		} else if layouts[i], err = layout.FromOrder(order, g.blockVectors); err != nil {
			return nil, fmt.Errorf("core: table %q: %w", g.name, err)
		}
	}

	// Replay the update log's tail over the block image: updates past the
	// compacted-through watermark may exist only in the log (the delta path
	// never wrote their blocks). Idempotent — a crash mid-replay just replays
	// again next open, and records at or below the watermark are never applied
	// (their blocks are already durable, possibly with newer compacted
	// values). The log file is consumed here and recreated fresh by
	// buildStore.
	replayed, logSeq, err := replayUpdateLog(cfg.DataDir, fs, geoms, layouts)
	if err != nil {
		return nil, err
	}
	// Floor the reopened store's snapshot seq at the highest seq the update
	// log recorded, starting from the caller's base: an explicit
	// InitialSnapshotSeq override is respected — a replica reopening an
	// imported snapshot must inherit the PRIMARY's seq (the contract in
	// initialSnapshotSeq), not mint a local boot stamp that would outrun
	// every seq the primary will ever send, freezing ApplyReplicatedUpdates'
	// advanceSeq and planting a bogus compacted-through watermark in the new
	// log. Without an override the base is the boot stamp, and the log floor
	// matters because the stamp has one-second granularity: a quick restart
	// could re-issue seqs the previous process already handed out — or
	// report a seq BELOW them, making replicas "re-sync" backward to an
	// image that now contains newer vectors. The replayed image is exactly
	// the state at logSeq, so serving it at that seq is honest; when the
	// base is already larger it keeps winning and replicas full-sync across
	// the restart as before.
	base := initialSnapshotSeq(cfg.InitialSnapshotSeq)
	if logSeq > base {
		base = logSeq
	}
	cfg.InitialSnapshotSeq = base

	device := nvm.NewDevice(nvm.DeviceConfig{Store: fs, Seed: cfg.Seed})
	s, err := buildStore(cfg, device, true, geoms, layouts)
	if err != nil {
		return nil, err
	}
	s.deltaLog.recovered = int64(replayed)
	// The store owns fs (via the device) from here on: later error paths
	// must close it through s.Close so the I/O scheduler stops too.
	closeOnErr = nil
	// Publish the persisted trained state over the layouts buildStore was
	// given: the block image on disk already matches them.
	for _, st := range s.tables {
		if sv, ok := saved[st.name]; ok {
			st.mutateState(st.applySaved(sv))
		}
	}
	// Finish a redone migration: persist the state file with the migrated
	// layout, then drop the migration record. A crash anywhere before the
	// record is removed simply redoes the (idempotent) copy next time.
	if mig != nil {
		if err := s.Persist(); err != nil {
			s.Close()
			return nil, fmt.Errorf("core: persist recovered migration: %w", err)
		}
		if err := removeMigrationFiles(cfg.DataDir); err != nil {
			s.Close()
			return nil, err
		}
		s.recoveredMigration = mig.table
	}
	return s, nil
}

// replayUpdateLog folds a leftover update log into the on-disk block image,
// then consumes the file. Records at or below the log's compacted-through
// watermark are skipped — their effects are already durable in the image,
// possibly overwritten by newer compacted values, so re-applying them could
// regress vectors. Survivor records are grouped by block and patched in in
// log (= seq) order, so later updates of the same vector win; each dirty block
// is one in-place read-modify-write, and the device is flushed BEFORE the log
// is removed, so a crash at any point just replays again: a block torn by the
// crash differs from its image before the replay only in slots the records
// rewrite (TestCompactionCrashStates checks both levels). Returns how many
// records were applied and the highest seq the log covered (watermark
// included) — the reopened store's snapshot seq must not fall below it.
func replayUpdateLog(dir string, fs *nvm.FileStore, geoms []tableGeom, layouts []*layout.Layout) (int, uint64, error) {
	path := filepath.Join(dir, UpdateLogFileName)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("core: read update log: %w", err)
	}
	through, recs, err := parseUpdateLog(raw)
	if err != nil {
		return 0, 0, err
	}
	maxSeq := through
	for _, rec := range recs {
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
	}
	dirty := make(map[int][]UpdateRecord) // device block -> its survivors, in log order
	applied := 0
	for _, rec := range recs {
		if rec.Seq <= through {
			continue
		}
		if int(rec.Table) >= len(geoms) {
			return 0, 0, fmt.Errorf("core: update log references table %d, manifest has %d", rec.Table, len(geoms))
		}
		g := geoms[rec.Table]
		if len(rec.Raw) != g.vecBytes() {
			return 0, 0, fmt.Errorf("core: update log: table %q record carries %d bytes, want %d",
				g.name, len(rec.Raw), g.vecBytes())
		}
		if int(rec.ID) >= g.numVectors {
			return 0, 0, fmt.Errorf("core: update log: table %q record targets vector %d of %d",
				g.name, rec.ID, g.numVectors)
		}
		abs := g.blockBase + layouts[rec.Table].BlockOf(rec.ID)
		dirty[abs] = append(dirty[abs], rec)
		applied++
	}
	if applied > 0 {
		buf := make([]byte, nvm.BlockSize)
		for abs, patches := range dirty {
			if err := fs.ReadBlock(abs, buf); err != nil {
				return 0, 0, fmt.Errorf("core: update log: block %d: %w", abs, err)
			}
			for _, rec := range patches {
				copy(buf[layouts[rec.Table].SlotOf(rec.ID)*len(rec.Raw):], rec.Raw)
			}
			if err := fs.WriteBlock(abs, buf); err != nil {
				return 0, 0, fmt.Errorf("core: update log: block %d: %w", abs, err)
			}
		}
		if err := fs.Flush(); err != nil {
			return 0, 0, fmt.Errorf("core: update log: %w", err)
		}
	}
	if err := os.Remove(path); err != nil {
		return 0, 0, fmt.Errorf("core: remove replayed update log: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, 0, fmt.Errorf("core: remove replayed update log: %w", err)
	}
	return applied, maxSeq, nil
}

// atomicWriteFile durably replaces dir/name: the payload is written to a
// temp file (via the write callback), fsynced, renamed over the target, and
// the directory entry fsynced — so readers always observe either the old or
// the complete new file, never a partial one. Shared by the manifest, state
// and migration commit points.
func atomicWriteFile(dir, name string, write func(io.Writer) error) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so entry mutations (create/rename/remove) are
// durable and ordered with respect to later ones — without it, power loss
// can reorder a state-file rename against the migration record's removal and
// reopen a dir whose blocks and persisted layout disagree.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Persist writes the store's trained state to its data dir (atomically, via
// temp file + rename) and flushes the block file. Every layout install
// (Train, LoadState, re-layout) and adaptation epoch calls it on a
// file-backed store.
func (s *Store) Persist() error {
	if err := s.checkWritable(); err != nil {
		return err
	}
	if s.dataDir == "" {
		return fmt.Errorf("core: store was not opened with a data dir")
	}
	if err := atomicWriteFile(s.dataDir, StateFileName, s.SaveState); err != nil {
		return fmt.Errorf("core: persist state: %w", err)
	}
	if err := s.device.Flush(); err != nil {
		return err
	}
	// Same durability point for the update log: under the periodic-sync
	// modes, Persist is where "everything so far survives a crash".
	return s.deltaLog.fsync()
}

// DataDir returns the persistence directory of a file-backed store ("" for
// the mem backend).
func (s *Store) DataDir() string { return s.dataDir }

// manifestBytes renders the store's table geometry in the manifest.bnd
// format (payload + CRC-32C trailer). Shared by the data-dir commit path and
// the snapshot export, so a streamed snapshot's manifest is byte-identical
// to what initDir would have written.
func manifestBytes(s *Store, totalBlocks int) []byte {
	var payload bytes.Buffer
	payload.WriteString(manifestMagic)
	varint := make([]byte, binary.MaxVarintLen64)
	writeUvarint := func(v uint64) {
		n := binary.PutUvarint(varint, v)
		payload.Write(varint[:n])
	}
	writeUvarint(manifestVersion)
	writeUvarint(uint64(len(s.tables)))
	for _, st := range s.tables {
		writeUvarint(uint64(len(st.name)))
		payload.WriteString(st.name)
		writeUvarint(uint64(st.dim))
		writeUvarint(uint64(st.numVectors))
		writeUvarint(uint64(st.blockVectors))
		writeUvarint(uint64(st.numBlocks))
		writeUvarint(uint64(st.blockBase))
	}
	writeUvarint(uint64(totalBlocks))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload.Bytes(), manifestCRCTable))
	payload.Write(crc[:])
	return payload.Bytes()
}

// writeManifest commits the data dir: geometry of every table plus a CRC,
// written via temp file + rename so the manifest is all-or-nothing.
func writeManifest(dir string, s *Store, totalBlocks int) error {
	raw := manifestBytes(s, totalBlocks)
	err := atomicWriteFile(dir, ManifestFileName, func(w io.Writer) error {
		_, werr := w.Write(raw)
		return werr
	})
	if err != nil {
		return fmt.Errorf("core: write manifest: %w", err)
	}
	return nil
}

// readManifest loads and verifies a data dir's manifest.
func readManifest(dir string) ([]tableGeom, int, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFileName))
	if err != nil {
		return nil, 0, fmt.Errorf("core: read manifest: %w", err)
	}
	return parseManifest(raw)
}

// parseManifest decodes and verifies a manifest.bnd payload. Block spans are
// a pure function of the table shapes (placeTables) and every offset a
// reader derives comes from them, so a manifest whose spans or device size
// disagree with the shapes it lists is rejected.
func parseManifest(raw []byte) ([]tableGeom, int, error) {
	if len(raw) < len(manifestMagic)+4 {
		return nil, 0, fmt.Errorf("core: manifest too short (%d bytes)", len(raw))
	}
	payload, crc := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(payload, manifestCRCTable) != crc {
		return nil, 0, fmt.Errorf("core: manifest checksum mismatch")
	}
	if string(payload[:len(manifestMagic)]) != manifestMagic {
		return nil, 0, fmt.Errorf("core: bad manifest magic %q", payload[:len(manifestMagic)])
	}
	br := bytes.NewReader(payload[len(manifestMagic):])
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	version, err := readUvarint()
	if err != nil {
		return nil, 0, err
	}
	if version != manifestVersion {
		return nil, 0, fmt.Errorf("core: unsupported manifest version %d", version)
	}
	numTables, err := readUvarint()
	if err != nil {
		return nil, 0, err
	}
	if numTables == 0 || numTables > 1<<16 {
		return nil, 0, fmt.Errorf("core: implausible manifest table count %d", numTables)
	}
	entries := make([]tableGeom, 0, min(numTables, uint64(br.Len())))
	for i := uint64(0); i < numTables; i++ {
		var e tableGeom
		nameLen, err := readUvarint()
		if err != nil {
			return nil, 0, err
		}
		if nameLen > 1<<16 || nameLen > uint64(br.Len()) {
			return nil, 0, fmt.Errorf("core: implausible manifest name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, 0, err
		}
		e.name = string(name)
		for _, dst := range []*int{&e.dim, &e.numVectors, &e.blockVectors, &e.numBlocks, &e.blockBase} {
			v, err := readUvarint()
			if err != nil {
				return nil, 0, err
			}
			if v > 1<<40 {
				return nil, 0, fmt.Errorf("core: implausible manifest field %d for table %q", v, e.name)
			}
			*dst = int(v)
		}
		entries = append(entries, e)
	}
	totalBlocks, err := readUvarint()
	if err != nil {
		return nil, 0, err
	}
	placed := make([]tableGeom, len(entries))
	for i, e := range entries {
		placed[i] = tableGeom{name: e.name, dim: e.dim, numVectors: e.numVectors}
	}
	total, err := placeTables(placed)
	if err != nil {
		return nil, 0, fmt.Errorf("core: manifest: %w", err)
	}
	if !slices.Equal(placed, entries) || totalBlocks != uint64(total) {
		return nil, 0, fmt.Errorf("core: manifest block spans do not match its table shapes")
	}
	return entries, total, nil
}
