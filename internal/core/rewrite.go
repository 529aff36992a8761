package core

import (
	"errors"
	"fmt"
	"time"

	"bandana/internal/cache"
	"bandana/internal/layout"
	"bandana/internal/nvm"
)

// This file is the rewrite layer: every path that changes which bytes live
// in a table's NVM block range after the first Open wrote them. There is one
// producer of block images (renderImage: the table's current blocks with the
// overlay laid over them, rearranged under a layout), one installer
// (installImage: copy into place, publish, roll back on failure) and one
// commit protocol around them (installLayout: stage the image and a redo
// record first, see package datadir), so a crash at any instant reopens to
// exactly the old or the new layout. Serving continues until the
// copy-into-place.

// migrationCrashHook, when non-nil, is invoked between migration stages so
// crash-injection tests can kill the process at a precise point:
// "image-staged" (image durable, no record), "staged" (image + record
// durable, blocks untouched), "installed" (new image copied in, state file
// not yet persisted), "persisted" (state durable, migration record not yet
// removed).
var migrationCrashHook func(stage string)

func migrationStage(stage string) {
	if migrationCrashHook != nil {
		migrationCrashHook(stage)
	}
}

// renderBatch is how many blocks renderImage reads per device dispatch.
const renderBatch = 64

// slotOffset is the byte offset of vector id inside a table image under l.
func (st *storeTable) slotOffset(l *layout.Layout, id uint32) int {
	return l.BlockOf(id)*nvm.BlockSize + l.SlotOf(id)*st.vecBytes
}

// renderImage fills img (zeroed, st.numBlocks*nvm.BlockSize bytes) with the
// table's current contents placed under layout l: it reads the table's block
// range from the device, lays the overlay's values over it, and moves every
// vector to its slot in l. It also returns cur, the same contents under the
// published layout — what a failed install writes back; when l is the
// published layout nothing moves and cur is img.
//
// Callers hold st.updateMu, and the overlay is snapshotted BEFORE the first
// block is read: with updates excluded the overlay can only shrink, and the
// compactor drops an entry only after its block write landed, so every value
// is found in the snapshot or in the blocks read afterwards, and the
// snapshot's copy (the newest) wins. The reads go to the device directly:
// they are not lookups and never touch the table's serving counters.
func (s *Store) renderImage(st *storeTable, l *layout.Layout, img []byte) (cur []byte, err error) {
	if len(img) != st.numBlocks*nvm.BlockSize {
		return nil, fmt.Errorf("core: table %q: image buffer is %d bytes, want %d",
			st.name, len(img), st.numBlocks*nvm.BlockSize)
	}
	published := st.loadState().layout
	snap := st.overlay.snapshot()
	cur = img
	if l != published {
		cur = make([]byte, len(img))
	}
	idxs := make([]int, 0, renderBatch)
	for b := 0; b < st.numBlocks; b += len(idxs) {
		idxs = idxs[:0]
		for i := b; i < st.numBlocks && len(idxs) < renderBatch; i++ {
			idxs = append(idxs, st.blockBase+i)
		}
		if err := s.device.ReadBlocks(idxs, cur[b*nvm.BlockSize:]); err != nil {
			return nil, fmt.Errorf("core: table %q: render image: %w", st.name, err)
		}
	}
	for id, e := range snap {
		copy(cur[st.slotOffset(published, id):], e.raw)
	}
	if l != published {
		for id := uint32(0); int(id) < st.numVectors; id++ {
			from := st.slotOffset(published, id)
			copy(img[st.slotOffset(l, id):], cur[from:from+st.vecBytes])
		}
	}
	return cur, nil
}

// layoutInstall is one table's computed state change, ready to commit: the
// layout its blocks move to and the rest of the trained state published with
// it (nil when only the layout changes).
type layoutInstall struct {
	st     *storeTable
	layout *layout.Layout
	mutate func(*tableState)
}

// installLayouts commits computed state changes one table at a time: a table
// whose layout changes moves through installLayout, and one that keeps the
// published layout only publishes mutate's changes. A failure leaves the
// tables before it with their new state and the rest with their old one —
// each install is atomic on its own. Callers hold s.mutateMu.
func (s *Store) installLayouts(installs []layoutInstall) error {
	for i, in := range installs {
		if in.layout == in.st.loadState().layout {
			in.st.mutateState(in.mutate)
			continue
		}
		if err := s.installLayout(in.st, in.layout, in.mutate); err != nil {
			if i > 0 {
				s.noteStructuralMutation() // the earlier tables did change
			}
			return err
		}
	}
	s.noteStructuralMutation()
	return nil
}

// installLayout moves one table to layout l and publishes mutate's changes to
// its trained state with it, while the store keeps serving. It is the only
// way a table's layout changes — Train, LoadState and adaptation's re-layout
// all compute first and commit here — and it survives a crash at any instant:
//
//   - the new image is rendered (and, on the file backend, staged durably
//     with a committed migration record — see package datadir) WITHOUT the
//     rewrite lock, so concurrent misses keep reading blocks throughout;
//   - only the final copy-into-place holds the rewrite lock exclusively,
//     and it is one contiguous bulk write;
//   - cache hits are never blocked at any point, and cached vectors stay
//     valid across the swap (the cache is keyed by vector ID, which a
//     layout change does not alter);
//   - the admission bits move with their vectors into l's order, so a
//     re-layout keeps the policy; a mutate that sets one replaces them;
//   - the pinned set the published state names is filled from the image
//     (see warmPinned), so its ids cost no block read on first request.
//
// Vector updates are excluded for the whole install (updateMu) so the staged
// image cannot go stale. Callers must hold s.mutateMu: the staging protocol
// supports one install at a time.
//
// Memory: the install reads the table's block range from the device and
// materializes the old and the new image in RAM for its duration (the new
// one is also what gets staged to disk); at very large table sizes a
// streaming variant (incremental CRC into migration.img, chunked copy-in)
// would bound this to a few MB — the protocol does not depend on the image
// being resident.
func (s *Store) installLayout(st *storeTable, l *layout.Layout, mutate func(*tableState)) error {
	if s.migrationPoisoned.Load() {
		return fmt.Errorf("core: table %q: layout installs disabled after an earlier failed install (restart to recover)", st.name)
	}
	st.updateMu.Lock()
	defer st.updateMu.Unlock()

	img := make([]byte, st.numBlocks*nvm.BlockSize)
	cur, err := s.renderImage(st, l, img)
	if err != nil {
		return err
	}
	start := time.Now()
	if s.dataDir != "" {
		// After the record commits, the install completes even if the
		// process dies at once: reopen redoes the copy from the staged image.
		if err := s.dir().StageMigration(img); err != nil {
			return err
		}
		migrationStage("image-staged")
		if err := s.dir().CommitMigration(st.name, l.Order(), img); err != nil {
			return err
		}
		migrationStage("staged")
	}
	err = s.installImage(st, img, cur, func(ts *tableState) {
		from, c := ts.layout, l.Cursor()
		ts.admit = ts.admit.permuted(l.NumVectors(), func(p int) int { return from.PositionOf(c.At(p)) })
		ts.layout = l
		if mutate != nil {
			mutate(ts)
		}
	})
	if err != nil {
		if s.dataDir != "" {
			if errors.Is(err, errMigrationRollbackFailed) {
				// The data region may hold a torn image; keep the committed
				// record (the next open redoes the copy exactly) and refuse
				// further installs in this process.
				s.migrationPoisoned.Store(true)
			} else if cerr := s.dir().RemoveMigration(); cerr != nil {
				// Rollback restored the old bytes, so the record must not
				// survive to re-apply an abandoned layout at the next open.
				err = errors.Join(err, cerr)
			}
		}
		return err
	}
	st.warmPinned(l, img)
	migrationStage("installed")
	if s.dataDir != "" {
		if err := s.Persist(); err != nil {
			// The blocks are on the new layout and the state file still names
			// the old one: the committed record is all that tells the next
			// open which is right, and a later install would remove it.
			s.migrationPoisoned.Store(true)
			return fmt.Errorf("core: table %q: persist installed layout: %w", st.name, err)
		}
		migrationStage("persisted")
		if err := s.dir().RemoveMigration(); err != nil {
			return err
		}
	}
	st.layoutInstalls.Add(1)
	s.lastInstallNS.Store(int64(time.Since(start)))
	return nil
}

// warmPinned fills the cache of st's published state, laid out under l,
// with every id of its explicit pin verdict that the cache does not hold,
// copied from img, the table's image under l: unrequested entries at
// cache.ProbationPosition (see vcache's Warm), in the verdict's warm order
// (ascending training count), so the hottest is the last to leave and a
// routed node's pinned ids it never serves leave first. It takes only room
// the cache has free and reads no block. An implied set (a cache that
// covers its table) stays on demand. The caller holds st.updateMu and has
// just installed img, so img is the table's current content and the epoch
// guard holds until the caller lets updates in.
func (st *storeTable) warmPinned(l *layout.Layout, img []byte) {
	ts := st.loadState()
	if ts.admit == nil || ts.admit.warm == nil {
		return
	}
	ts.cache.Warm(ts.admit.warm, func(id uint32) []byte {
		off := st.slotOffset(l, id)
		return img[off : off+st.vecBytes]
	}, cache.ProbationPosition, &st.epoch, st.epoch.Load())
}

// errMigrationRollbackFailed marks an install whose copy AND rollback both
// failed: the table's on-NVM bytes are suspect and only the staged
// migration record (redone at the next open) can repair them.
var errMigrationRollbackFailed = errors.New("core: migration rollback failed")

// installImage copies a rendered block image into place and then publishes
// the state mutation that goes with it (the image's layout), all under the
// table's exclusive rewrite lock — the only window in which concurrent misses
// wait: a miss holding the lock shared sees either the old layout with the
// old bytes or the new layout with the new bytes. The copy strictly precedes
// the publish, and a failed copy is rolled back by writing cur — the range's
// contents under the still-published layout, as renderImage read them — so on
// every exit the published layout matches the bytes on NVM and a partial bulk
// write never serves mis-mapped vectors. If even the rollback write fails the
// storage is genuinely broken; the joined error propagates and, for a
// migration on the file backend, the committed record redoes the copy exactly
// at the next open. The copy is flushed before the publish, so the state file
// persisted afterwards never names a layout whose bytes are not durable. The
// epoch bump keeps in-flight misses that decoded under the old layout from
// caching stale vectors. The caller holds st.updateMu.
func (s *Store) installImage(st *storeTable, img, cur []byte, mutate func(*tableState)) error {
	st.rewriteMu.Lock()
	defer st.rewriteMu.Unlock()
	st.epoch.Add(1)
	defer st.epoch.Add(1)
	err := s.device.WriteBlocks(st.blockBase, img)
	if err == nil {
		err = s.device.Flush()
	}
	if err != nil {
		err = fmt.Errorf("core: table %q: install image: %w", st.name, err)
		// cur carries every overlaid value too, but the overlay is left alone:
		// its entries equal what cur holds, and on a FAILED rollback they still
		// shadow the freshest values over the suspect bytes.
		if rerr := s.device.WriteBlocks(st.blockBase, cur); rerr != nil {
			return errors.Join(err, fmt.Errorf("%w: table %q: %v", errMigrationRollbackFailed, st.name, rerr))
		}
		return err
	}
	st.mutateState(mutate)
	// img was rendered with the overlay laid over the blocks, and updates have
	// been excluded since: the overlay has nothing left to shadow.
	st.overlay.clear()
	return nil
}
