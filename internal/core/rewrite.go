package core

import (
	"errors"
	"fmt"

	"bandana/internal/layout"
	"bandana/internal/nvm"
)

// This file is the rewrite layer: every path that changes which bytes live
// in a table's NVM block range. Whole-table rewrites (rewriteTable) hold the
// table's rewrite lock for the duration and are crash-protected by the
// rewrite.dirty marker; live background migrations (relayoutTable) stage the
// new image first and hold the lock only while copying it into place, with
// their own recoverable commit protocol (see migration.go).

// writeAllTables writes every table's blocks to the device in the currently
// published layout (identity after buildStore).
func (s *Store) writeAllTables() error {
	for _, st := range s.tables {
		if err := s.rewriteTable(st, nil); err != nil {
			return err
		}
	}
	return nil
}

// rewriteTable atomically installs a state mutation (usually a new layout)
// and rewrites the table's NVM block range to match it. It excludes
// concurrent vector updates (updateMu) and miss-path block reads
// (rewriteMu), so the serving path never decodes a block with the wrong
// layout: a miss holding rewriteMu shared sees either the old layout with
// the old bytes or the new layout with the new bytes.
func (s *Store) rewriteTable(st *storeTable, mutate func(*tableState)) error {
	st.updateMu.Lock()
	defer st.updateMu.Unlock()
	st.rewriteMu.Lock()
	defer st.rewriteMu.Unlock()
	if mutate != nil {
		st.mutateState(mutate)
	}
	st.epoch.Add(1)
	defer st.epoch.Add(1)
	l := st.loadState().layout
	bufp := getBlockBuf()
	defer putBlockBuf(bufp)
	buf := *bufp
	var members []uint32
	for b := 0; b < st.numBlocks; b++ {
		for i := range buf {
			buf[i] = 0
		}
		members = l.BlockMembers(b, members[:0])
		for slot, id := range members {
			raw, err := st.src.Raw(id)
			if err != nil {
				return fmt.Errorf("core: table %q: %w", st.name, err)
			}
			copy(buf[slot*st.vecBytes:], raw)
		}
		// Bulk path: a whole-table rewrite is not block-wise crash-atomic
		// anyway (the rewrite marker / manifest is the commit point), so
		// skip the per-block write-ahead journal.
		if err := s.device.WriteBlockBulk(st.blockBase+b, buf); err != nil {
			return fmt.Errorf("core: table %q block %d: %w", st.name, b, err)
		}
	}
	// The image was just rendered from src, which includes every overlaid
	// value: the overlay has nothing left to shadow.
	st.overlay.clear()
	return nil
}

// buildTableImage renders the table's full block image under layout l from
// the authoritative source vectors. Callers must hold st.updateMu so the
// image cannot go stale against concurrent vector updates.
func buildTableImage(st *storeTable, l *layout.Layout) ([]byte, error) {
	img := make([]byte, st.numBlocks*nvm.BlockSize)
	if err := buildTableImageInto(st, l, img); err != nil {
		return nil, err
	}
	return img, nil
}

// buildTableImageInto is buildTableImage writing into a caller-supplied
// zero-filled buffer of st.numBlocks*nvm.BlockSize bytes (the snapshot
// exporter renders every table into one contiguous device image). Slots
// without a vector are left as they are, so a dirty buffer would leak its
// previous contents into the image.
func buildTableImageInto(st *storeTable, l *layout.Layout, img []byte) error {
	if len(img) != st.numBlocks*nvm.BlockSize {
		return fmt.Errorf("core: table %q: image buffer is %d bytes, want %d",
			st.name, len(img), st.numBlocks*nvm.BlockSize)
	}
	var members []uint32
	for b := 0; b < st.numBlocks; b++ {
		buf := img[b*nvm.BlockSize : (b+1)*nvm.BlockSize]
		members = l.BlockMembers(b, members[:0])
		for slot, id := range members {
			raw, err := st.src.Raw(id)
			if err != nil {
				return fmt.Errorf("core: table %q: %w", st.name, err)
			}
			copy(buf[slot*st.vecBytes:], raw)
		}
	}
	return nil
}

// relayoutTable migrates one table to a new physical layout while the store
// keeps serving — the zero-downtime counterpart of rewriteTable:
//
//   - the new image is built (and, on the file backend, staged durably with
//     a committed migration record — see migration.go) WITHOUT the rewrite
//     lock, so concurrent misses keep reading blocks throughout;
//   - only the final copy-into-place holds the rewrite lock exclusively,
//     and it is one contiguous bulk write instead of per-block writes;
//   - cache hits are never blocked at any point, and cached vectors stay
//     valid across the swap (the cache is keyed by vector ID, which a
//     layout change does not alter).
//
// Vector updates are excluded for the whole migration (updateMu) so the
// staged image cannot go stale. Callers must hold s.mutateMu: the staging
// protocol supports one migration at a time.
//
// Memory: the migration materializes the table's full block image in RAM
// (it is also what gets staged to disk); at very large table sizes a
// streaming variant (incremental CRC into migration.img, chunked copy-in)
// would bound this to a few MB — the protocol does not depend on the image
// being resident.
func (s *Store) relayoutTable(st *storeTable, newLayout *layout.Layout) error {
	if s.migrationPoisoned.Load() {
		return fmt.Errorf("core: table %q: migrations disabled after an earlier failed rollback (restart to recover)", st.name)
	}
	st.updateMu.Lock()
	defer st.updateMu.Unlock()

	img, err := buildTableImage(st, newLayout)
	if err != nil {
		return err
	}
	if s.dataDir != "" {
		if err := s.stageMigration(st, newLayout, img); err != nil {
			return err
		}
		migrationStage("staged")
	}
	if err := s.installLayout(st, newLayout, img); err != nil {
		if s.dataDir != "" {
			if errors.Is(err, errMigrationRollbackFailed) {
				// The data region may hold a torn image; keep the committed
				// record (the next open redoes the copy exactly) and refuse
				// further migrations in this process.
				s.migrationPoisoned.Store(true)
			} else if cerr := s.clearMigration(); cerr != nil {
				// Rollback restored the old bytes, so the record must not
				// survive to re-apply an abandoned layout at the next open.
				err = errors.Join(err, cerr)
			}
		}
		return err
	}
	migrationStage("installed")
	if s.dataDir != "" {
		if err := s.Persist(); err != nil {
			return fmt.Errorf("core: persist migrated state: %w", err)
		}
		migrationStage("persisted")
		if err := s.clearMigration(); err != nil {
			return err
		}
	}
	return nil
}

// errMigrationRollbackFailed marks a migration whose copy AND rollback both
// failed: the table's on-NVM bytes are suspect and only the staged
// migration record (redone at the next open) can repair them.
var errMigrationRollbackFailed = errors.New("core: migration rollback failed")

// installLayout copies the new block image into place and then publishes
// newLayout, all under the table's exclusive rewrite lock — the only window
// in which concurrent misses wait. The copy strictly precedes the publish,
// and a failed copy is rolled back by rewriting the old layout's image from
// the authoritative source vectors (the caller holds updateMu, so the
// source cannot move), so on every exit the published layout matches the
// bytes on NVM — a partial bulk write never serves mis-mapped vectors. If
// even the rollback write fails the storage is genuinely broken; the joined
// error propagates and, on the file backend, the committed migration record
// redoes the copy exactly at the next open. The epoch bump keeps in-flight
// misses that decoded under the old layout from caching stale vectors.
func (s *Store) installLayout(st *storeTable, newLayout *layout.Layout, img []byte) error {
	st.rewriteMu.Lock()
	defer st.rewriteMu.Unlock()
	st.epoch.Add(1)
	defer st.epoch.Add(1)
	err := s.device.WriteBlocksBulk(st.blockBase, img)
	if err == nil {
		err = s.device.Flush()
	}
	if err != nil {
		err = fmt.Errorf("core: table %q migration copy: %w", st.name, err)
		oldImg, rerr := buildTableImage(st, st.loadState().layout)
		if rerr == nil {
			rerr = s.device.WriteBlocksBulk(st.blockBase, oldImg)
		}
		if rerr != nil {
			return errors.Join(err, fmt.Errorf("%w: table %q: %v", errMigrationRollbackFailed, st.name, rerr))
		}
		// The rollback rendered the old image from src, which includes every
		// overlaid value. (On a FAILED rollback the overlay is kept: the
		// on-NVM bytes are suspect and the overlay still shadows the freshest
		// values for serving.)
		st.overlay.clear()
		return err
	}
	st.mutateState(func(ts *tableState) {
		ts.layout = newLayout
	})
	// Same as rewriteTable: img came from src, the overlay is subsumed.
	st.overlay.clear()
	return nil
}
