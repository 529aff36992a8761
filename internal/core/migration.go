// The commit protocol of a layout install ("migration"): giving one table a
// new physical block layout — from Train, LoadState or adaptation's
// re-layout, see installLayout in rewrite.go — while the store keeps serving,
// such that kill -9 at any instant costs nothing. It generalizes the manifest
// commit idea into a redo protocol:
//
//  1. The full new block image of the table is staged to migration.img
//     (temp file + fsync + rename).
//  2. migration.bnd — table name, new placement order, staged-image CRC —
//     is committed with the same temp+rename+dirsync dance as the main
//     manifest. This rename is the commit point.
//  3. The staged image is bulk-copied into the table's block range, the new
//     layout is published, and the state file is persisted.
//  4. migration.bnd and migration.img are removed.
//
// A crash before step 2 leaves at most an orphan staging file: the store
// reopens with the old layout (blocks were never touched). A crash after
// step 2 reopens by *redoing* steps 3-4 from the staged image — which is
// idempotent — so the table always lands on exactly the old or exactly the
// new layout, never a torn mix, and no reopen is ever refused. What rides
// along with the layout in a Train or LoadState (threshold verdicts, thresholds,
// cache split) reopens as the last persisted state file has it.
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"bandana/internal/layout"
	"bandana/internal/nvm"
)

const (
	// MigrationManifestName is the migration commit record inside a data
	// dir; its presence means a layout install must be redone from the
	// staged image on the next open.
	MigrationManifestName = "migration.bnd"
	// MigrationImageName is the staged new block image of the migrating
	// table.
	MigrationImageName = "migration.img"

	migrationMagic   = "BNDMIGR1"
	migrationVersion = 1
)

// migrationCrashHook, when non-nil, is invoked between migration stages so
// crash-injection tests can kill the process at a precise point:
// "staged" (image + manifest durable, blocks untouched), "installed" (new
// image copied in, state file not yet persisted), "persisted" (state
// durable, migration record not yet removed).
var migrationCrashHook func(stage string)

func migrationStage(stage string) {
	if migrationCrashHook != nil {
		migrationCrashHook(stage)
	}
}

// migrationRecord is a decoded migration.bnd.
type migrationRecord struct {
	table    string
	order    []uint32
	imageLen int64
	imageCRC uint32
}

// stageMigration makes the new image and its commit record durable. After
// it returns, the migration will complete even if the process dies
// immediately (reopen redoes the copy from the staged files).
func (s *Store) stageMigration(st *storeTable, l *layout.Layout, img []byte) error {
	// Drop any leftovers of an earlier aborted migration first, so a crash
	// between the image and record renames below can never pair a stale
	// record with this (mismatched) image.
	if err := removeMigrationFiles(s.dataDir); err != nil {
		return err
	}
	err := atomicWriteFile(s.dataDir, MigrationImageName, func(w io.Writer) error {
		_, werr := w.Write(img)
		return werr
	})
	if err != nil {
		return fmt.Errorf("core: stage migration image: %w", err)
	}
	migrationStage("image-staged")

	var payload bytes.Buffer
	payload.WriteString(migrationMagic)
	varint := make([]byte, binary.MaxVarintLen64)
	writeUvarint := func(v uint64) {
		n := binary.PutUvarint(varint, v)
		payload.Write(varint[:n])
	}
	writeUvarint(migrationVersion)
	writeUvarint(uint64(len(st.name)))
	payload.WriteString(st.name)
	order := l.Order()
	writeUvarint(uint64(len(order)))
	for _, id := range order {
		writeUvarint(uint64(id))
	}
	writeUvarint(uint64(len(img)))
	writeUvarint(uint64(crc32.Checksum(img, manifestCRCTable)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload.Bytes(), manifestCRCTable))

	// The rename inside is the migration commit point.
	err = atomicWriteFile(s.dataDir, MigrationManifestName, func(w io.Writer) error {
		if _, werr := w.Write(payload.Bytes()); werr != nil {
			return werr
		}
		_, werr := w.Write(crc[:])
		return werr
	})
	if err != nil {
		return fmt.Errorf("core: stage migration manifest: %w", err)
	}
	return nil
}

// clearMigration removes the migration record and staged image after the
// migrated state is fully durable.
func (s *Store) clearMigration() error {
	return removeMigrationFiles(s.dataDir)
}

func removeMigrationFiles(dir string) error {
	for _, name := range []string{MigrationManifestName, MigrationImageName} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("core: clear migration: %w", err)
		}
	}
	return syncDir(dir)
}

// readMigrationRecord reads and verifies dir's migration.bnd. It returns
// (nil, nil) when no migration is pending.
func readMigrationRecord(dir string) (*migrationRecord, error) {
	raw, err := os.ReadFile(filepath.Join(dir, MigrationManifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: read migration manifest: %w", err)
	}
	return decodeMigrationRecord(raw)
}

// decodeMigrationRecord decodes and verifies the bytes of a migration.bnd.
func decodeMigrationRecord(raw []byte) (*migrationRecord, error) {
	if len(raw) < len(migrationMagic)+4 {
		return nil, fmt.Errorf("core: migration manifest too short (%d bytes)", len(raw))
	}
	payload, crc := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(payload, manifestCRCTable) != crc {
		return nil, fmt.Errorf("core: migration manifest checksum mismatch")
	}
	if string(payload[:len(migrationMagic)]) != migrationMagic {
		return nil, fmt.Errorf("core: bad migration magic %q", payload[:len(migrationMagic)])
	}
	br := bytes.NewReader(payload[len(migrationMagic):])
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if version != migrationVersion {
		return nil, fmt.Errorf("core: unsupported migration version %d", version)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nameLen > uint64(br.Len()) {
		return nil, fmt.Errorf("core: migration name length %d exceeds the record", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	rec := &migrationRecord{table: string(name)}
	orderLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	// Every entry takes at least one byte, so a length that fits what is left
	// of the record is safe to allocate.
	if orderLen > uint64(br.Len()) {
		return nil, fmt.Errorf("core: migration order length %d exceeds the record", orderLen)
	}
	rec.order = make([]uint32, orderLen)
	for i := range rec.order {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if v > math.MaxUint32 {
			return nil, fmt.Errorf("core: migration order entry %d is not a vector id", v)
		}
		rec.order[i] = uint32(v)
	}
	imgLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	imgCRC, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if imgLen > math.MaxInt64 || imgCRC > math.MaxUint32 {
		return nil, fmt.Errorf("core: implausible migration image length %d or checksum %d", imgLen, imgCRC)
	}
	rec.imageLen, rec.imageCRC = int64(imgLen), uint32(imgCRC)
	return rec, nil
}

// redoMigration replays a committed-but-unfinished migration's copy phase:
// it verifies the staged image against the record and bulk-writes it into
// the table's block range. Idempotent — safe to crash and redo any number
// of times. The caller installs the recorded layout and persists state.
func redoMigration(dir string, rec *migrationRecord, fs *nvm.FileStore, e tableGeom) error {
	img, err := os.ReadFile(filepath.Join(dir, MigrationImageName))
	if err != nil {
		return fmt.Errorf("core: read staged migration image: %w", err)
	}
	// The manifest was committed only after the image was durable, so a
	// mismatch here means real corruption, not a crash artifact.
	if int64(len(img)) != rec.imageLen {
		return fmt.Errorf("core: staged migration image is %d bytes, record says %d", len(img), rec.imageLen)
	}
	if crc32.Checksum(img, manifestCRCTable) != rec.imageCRC {
		return fmt.Errorf("core: staged migration image checksum mismatch")
	}
	if len(img) != e.numBlocks*nvm.BlockSize {
		return fmt.Errorf("core: staged migration image covers %d bytes, table %q spans %d blocks",
			len(img), e.name, e.numBlocks)
	}
	if err := fs.WriteBlocksUnjournaled(e.blockBase, img); err != nil {
		return fmt.Errorf("core: redo migration copy: %w", err)
	}
	if err := fs.Flush(); err != nil {
		return fmt.Errorf("core: redo migration copy: %w", err)
	}
	return nil
}
