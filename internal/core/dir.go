// File-backed store lifecycle: a Config with Backend == BackendFile persists
// the store under Config.DataDir, in the files package datadir writes, and a
// restarted server serves identical vectors without retraining.
package core

import (
	"bytes"
	"fmt"

	"bandana/internal/datadir"
	"bandana/internal/layout"
	"bandana/internal/nvm"
)

// dataFS is the file system data dirs are reached through. A test may swap
// in one that records or fails calls while none of its stores is open.
var dataFS = datadir.OS

func dirAt(path string) datadir.Dir { return datadir.Dir{FS: dataFS, Path: path} }

// dir is the store's data dir (its Path is "" for the mem backend).
func (s *Store) dir() datadir.Dir { return dirAt(s.dataDir) }

// DirInitialized reports whether dir holds an initialized file-backed store.
func DirInitialized(dir string) bool { return dirAt(dir).Initialized() }

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
	d := dirAt(cfg.DataDir)
	fs, err := d.CreateBlocks(totalBlocks, nvm.FileStoreOptions{Sync: cfg.Sync, Direct: cfg.Direct})
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
		err = d.WriteManifest(datadir.EncodeManifest(geoms, totalBlocks))
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
	d := dirAt(cfg.DataDir)
	geoms, totalBlocks, err := d.ReadManifest()
	if err != nil {
		return nil, err
	}
	fs, err := d.OpenBlocks(nvm.FileStoreOptions{Sync: cfg.Sync, Direct: cfg.Direct})
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
	// reopen — the staged image makes the redo exact (see package datadir).
	mig, err := d.ReadMigration(geoms)
	if err != nil {
		return nil, err
	}
	if mig == nil {
		// A crash between staging the image and committing the record
		// leaves an orphan image; the migration never happened, so drop it
		// (best effort: the next install's StageMigration drops it too).
		_ = d.RemoveMigration()
	} else {
		// The copy is idempotent: a crash inside it redoes it at the next
		// open. The recorded layout is installed and persisted below.
		err := fs.WriteBlocks(mig.Table.BlockBase, mig.Image)
		if err == nil {
			err = fs.Flush()
		}
		if err != nil {
			return nil, fmt.Errorf("core: redo migration copy: %w", err)
		}
		mig.Image = nil // copied: not held while the store is built
	}

	// Trained state (absent on a dir that was initialized but never trained
	// nor persisted — fall back to identity layouts).
	saved := make(map[string]savedTable)
	raw, ok, err := d.ReadState()
	if err != nil {
		return nil, err
	}
	if ok {
		entriesSaved, err := decodeSavedStates(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("core: read %s: %w", datadir.StateFileName, err)
		}
		for _, sv := range entriesSaved {
			saved[sv.name] = sv
		}
	}

	// The persisted layouts (block slot -> vector ID) the block image is
	// placed under; a table never trained is in ID order.
	layouts := make([]*layout.Layout, len(geoms))
	for i, g := range geoms {
		order := saved[g.Name].order
		if mig != nil && mig.Table.Name == g.Name {
			// The redone migration's placement wins over the (possibly
			// stale) state file for this table.
			order = mig.Order
		} else if len(order) > 0 && len(order) != g.NumVectors {
			return nil, fmt.Errorf("core: table %q: state covers %d vectors, manifest says %d",
				g.Name, len(order), g.NumVectors)
		}
		if len(order) == 0 {
			layouts[i] = layout.Identity(g.NumVectors, g.BlockVectors)
		} else if layouts[i], err = layout.FromOrder(order, g.BlockVectors); err != nil {
			return nil, fmt.Errorf("core: table %q: %w", g.Name, err)
		}
	}

	// Replay the update log's tail over the block image: updates past the
	// compacted-through watermark may exist only in the log (the delta path
	// never wrote their blocks). Idempotent — a crash mid-replay just replays
	// again next open, and records at or below the watermark are never applied
	// (their blocks are already durable, possibly with newer compacted
	// values). The log file is consumed here and recreated fresh by
	// buildStore.
	replayed, logSeq, err := replayUpdateLog(d, fs, geoms, layouts)
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
		if err := d.RemoveMigration(); err != nil {
			s.Close()
			return nil, err
		}
		s.recoveredMigration = mig.Table.Name
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
func replayUpdateLog(d datadir.Dir, fs *nvm.FileStore, geoms []datadir.TableGeom, layouts []*layout.Layout) (int, uint64, error) {
	recs, maxSeq, err := d.ReadUpdateLog(geoms)
	if err != nil {
		return 0, 0, err
	}
	dirty := make(map[int][]datadir.UpdateRecord) // device block -> its survivors, in log order
	for _, rec := range recs {
		abs := geoms[rec.Table].BlockBase + layouts[rec.Table].BlockOf(rec.ID)
		dirty[abs] = append(dirty[abs], rec)
	}
	if len(recs) > 0 {
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
	if err := d.RemoveUpdateLog(); err != nil {
		return 0, 0, err
	}
	return len(recs), maxSeq, nil
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
	if err := s.dir().WriteState(s.SaveState); err != nil {
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
