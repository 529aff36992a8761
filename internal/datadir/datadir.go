// Package datadir is the on-disk half of a file-backed store: the files of a
// data dir, their formats, and the order they are written in.
//
//	blocks.bnd     the NVM block file (see nvm.FileStore)
//	manifest.bnd   table geometry (names, dims, sizes, block spans) + CRC
//	state.bnd      trained state in the store's SaveState format
//	updates.log    the update log: a watermark header, then framed records
//	migration.bnd  the commit record of a layout install in flight: its
//	               presence means the install is redone on the next open
//	migration.img  the staged block image that install copies in
//
// Every file but blocks.bnd is written whole by one atomic write (temp file,
// fsync, rename, directory fsync); updates.log is then appended to and its
// watermark overwritten in place. The manifest is written last, so a
// half-written data dir is simply re-initialized.
//
// The package reaches the OS only through FS, so a test can hand a Dir a file
// system that records each call or fails it. The block file is the
// exception: nvm.FileStore maps its descriptor and opens it itself.
package datadir

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"

	"bandana/internal/fp16"
	"bandana/internal/nvm"
)

// The files of a data dir (see the package comment).
const (
	BlocksFileName        = "blocks.bnd"
	ManifestFileName      = "manifest.bnd"
	StateFileName         = "state.bnd"
	UpdateLogFileName     = "updates.log"
	MigrationManifestName = "migration.bnd"
	MigrationImageName    = "migration.img"
)

// Castagnoli is the CRC-32C table every checksum of a data dir uses.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FS is the file system a data dir lives on: the calls this package makes.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm fs.FileMode) error
	Stat(name string) (fs.FileInfo, error)
	// SyncDir makes the entries created, renamed or removed in dir durable.
	SyncDir(dir string) error
}

// File is an open file of an FS.
type File interface {
	io.Writer
	io.WriterAt
	io.Seeker
	Sync() error
	Close() error
}

// OS is the operating system's file system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }

// SyncDir fsyncs a directory so entry mutations (create/rename/remove) are
// durable and ordered with respect to later ones — without it, power loss
// can reorder a state-file rename against the migration record's removal and
// reopen a dir whose blocks and persisted layout disagree.
func (osFS) SyncDir(dir string) error {
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

// Dir is a data dir at Path on FS.
type Dir struct {
	FS   FS
	Path string
}

func (d Dir) path(name string) string { return filepath.Join(d.Path, name) }

// Initialized reports whether d holds a committed manifest.
func (d Dir) Initialized() bool {
	_, err := d.FS.Stat(d.path(ManifestFileName))
	return err == nil
}

// CreateBlocks creates the directory and its block file of totalBlocks.
func (d Dir) CreateBlocks(totalBlocks int, opts nvm.FileStoreOptions) (*nvm.FileStore, error) {
	if err := d.FS.MkdirAll(d.Path, 0o755); err != nil {
		return nil, fmt.Errorf("datadir: create data dir: %w", err)
	}
	return nvm.CreateFileStore(d.path(BlocksFileName), totalBlocks, opts)
}

// OpenBlocks opens the block file.
func (d Dir) OpenBlocks(opts nvm.FileStoreOptions) (*nvm.FileStore, error) {
	return nvm.OpenFileStore(d.path(BlocksFileName), opts)
}

// writeFile durably replaces d/name: the payload is written to a temp file
// (via the write callback), fsynced, renamed over the target, and the
// directory entry fsynced — so readers always observe either the old or the
// complete new file, never a partial one. Every file of a data dir but the
// block file is committed through it.
func (d Dir) writeFile(name string, write func(io.Writer) error) error {
	tmp := d.path(name + ".tmp")
	f, err := d.FS.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
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
		err = d.FS.Rename(tmp, d.path(name))
	}
	if err != nil {
		_ = d.FS.Remove(tmp) // best effort: the write's error is the one to report
		return err
	}
	return d.FS.SyncDir(d.Path)
}

// writeBytes is a writeFile payload of b.
func writeBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// readIfExists reads d/name whole; ok is false when it does not exist.
func (d Dir) readIfExists(name string) (raw []byte, ok bool, err error) {
	raw, err = d.FS.ReadFile(d.path(name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	return raw, err == nil, err
}

// remove deletes the named files, those that exist, and makes that durable.
func (d Dir) remove(names ...string) error {
	for _, name := range names {
		if err := d.FS.Remove(d.path(name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return d.FS.SyncDir(d.Path)
}

// seal appends the CRC-32C trailer the manifest and the migration record end
// in to a payload that begins with its format's magic and uvarint version.
func seal(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(payload, crc32.Checksum(payload, Castagnoli))
}

// unseal verifies raw's CRC-32C trailer, magic and version, and returns a
// reader over the fields that follow them. what names the format in errors.
func unseal(raw []byte, what, magic string, version uint64) (*bytes.Reader, error) {
	if len(raw) < len(magic)+4 {
		return nil, fmt.Errorf("datadir: %s too short (%d bytes)", what, len(raw))
	}
	payload, crc := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(payload, Castagnoli) != crc {
		return nil, fmt.Errorf("datadir: %s checksum mismatch", what)
	}
	if string(payload[:len(magic)]) != magic {
		return nil, fmt.Errorf("datadir: bad %s magic %q", what, payload[:len(magic)])
	}
	br := bytes.NewReader(payload[len(magic):])
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("datadir: unsupported %s version %d", what, v)
	}
	return br, nil
}

// WriteState atomically replaces state.bnd with what save writes.
func (d Dir) WriteState(save func(io.Writer) error) error {
	return d.writeFile(StateFileName, save)
}

// ReadState returns state.bnd's bytes; ok is false on a dir that was never
// trained nor persisted.
func (d Dir) ReadState() (raw []byte, ok bool, err error) {
	return d.readIfExists(StateFileName)
}

// Import writes a snapshot as a fresh data dir, once its block image is
// block-aligned and matches blocksCRC: the block image in one bulk write,
// then the state, then the manifest as the commit point — so an interrupted
// import leaves an uninitialized dir that is simply re-imported, never a
// torn store. The caller has verified the manifest and the state.
func (d Dir) Import(manifest, state, blocks []byte, blocksCRC uint32, sync nvm.SyncMode) error {
	if d.Initialized() {
		return fmt.Errorf("datadir: %s already holds an initialized store", d.Path)
	}
	if len(blocks) == 0 || len(blocks)%nvm.BlockSize != 0 {
		return fmt.Errorf("datadir: snapshot block image of %d bytes is not block-aligned", len(blocks))
	}
	if crc := crc32.Checksum(blocks, Castagnoli); crc != blocksCRC {
		return fmt.Errorf("datadir: snapshot block image checksum mismatch (got %08x, want %08x)", crc, blocksCRC)
	}
	bf, err := d.CreateBlocks(len(blocks)/nvm.BlockSize, nvm.FileStoreOptions{Sync: sync})
	if err != nil {
		return err
	}
	err = bf.WriteBlocks(0, blocks)
	if err == nil {
		err = bf.Flush()
	}
	if cerr := bf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("datadir: import snapshot blocks: %w", err)
	}
	if err := d.WriteState(writeBytes(state)); err != nil {
		return fmt.Errorf("datadir: import snapshot state: %w", err)
	}
	return d.WriteManifest(manifest)
}

const (
	manifestMagic   = "BNDMANI1"
	manifestVersion = 1
)

// TableGeom is one table's shape and block span: what the manifest records,
// and all a store keeps of a table besides its blocks on the device.
type TableGeom struct {
	Name         string
	Dim          int
	NumVectors   int
	BlockVectors int
	NumBlocks    int
	BlockBase    int
}

// VecBytes is the size of one of the table's fp16 vectors.
func (g TableGeom) VecBytes() int { return g.Dim * fp16.ByteSize }

// PlaceTables validates the tables' shapes (Name, Dim, NumVectors) and lays
// them out as contiguous block ranges, filling in each span; it returns the
// total device size in blocks. The placement is a pure function of the
// shapes, so a reopened file-backed store derives identical spans from its
// manifest.
func PlaceTables(geoms []TableGeom) (int, error) {
	if len(geoms) == 0 {
		return 0, fmt.Errorf("datadir: no tables configured")
	}
	seen := make(map[string]bool, len(geoms))
	next := 0
	for i := range geoms {
		g := &geoms[i]
		if g.NumVectors <= 0 || g.Dim <= 0 {
			return 0, fmt.Errorf("datadir: table %q is empty", g.Name)
		}
		if g.VecBytes() > nvm.BlockSize {
			return 0, fmt.Errorf("datadir: table %q vector size %d exceeds NVM block size %d",
				g.Name, g.VecBytes(), nvm.BlockSize)
		}
		if seen[g.Name] {
			return 0, fmt.Errorf("datadir: duplicate table name %q", g.Name)
		}
		seen[g.Name] = true
		g.BlockVectors = nvm.BlockSize / g.VecBytes()
		g.NumBlocks = (g.NumVectors + g.BlockVectors - 1) / g.BlockVectors
		g.BlockBase = next
		next += g.NumBlocks
	}
	return next, nil
}

// EncodeManifest renders the tables' geometry in the manifest.bnd format
// (payload + CRC-32C trailer). A store's data dir and its streamed snapshot
// carry the same bytes.
func EncodeManifest(geoms []TableGeom, totalBlocks int) []byte {
	b := binary.AppendUvarint([]byte(manifestMagic), manifestVersion)
	b = binary.AppendUvarint(b, uint64(len(geoms)))
	for _, g := range geoms {
		b = binary.AppendUvarint(b, uint64(len(g.Name)))
		b = append(b, g.Name...)
		for _, v := range []int{g.Dim, g.NumVectors, g.BlockVectors, g.NumBlocks, g.BlockBase} {
			b = binary.AppendUvarint(b, uint64(v))
		}
	}
	return seal(binary.AppendUvarint(b, uint64(totalBlocks)))
}

// WriteManifest commits the data dir: the manifest is all-or-nothing.
func (d Dir) WriteManifest(raw []byte) error {
	if err := d.writeFile(ManifestFileName, writeBytes(raw)); err != nil {
		return fmt.Errorf("datadir: write manifest: %w", err)
	}
	return nil
}

// ReadManifest loads and verifies the data dir's manifest.
func (d Dir) ReadManifest() ([]TableGeom, int, error) {
	raw, err := d.FS.ReadFile(d.path(ManifestFileName))
	if err != nil {
		return nil, 0, fmt.Errorf("datadir: read manifest: %w", err)
	}
	return DecodeManifest(raw)
}

// DecodeManifest decodes and verifies a manifest.bnd payload. Block spans are
// a pure function of the table shapes (PlaceTables) and every offset a
// reader derives comes from them, so a manifest whose spans or device size
// disagree with the shapes it lists is rejected.
func DecodeManifest(raw []byte) ([]TableGeom, int, error) {
	br, err := unseal(raw, "manifest", manifestMagic, manifestVersion)
	if err != nil {
		return nil, 0, err
	}
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	numTables, err := readUvarint()
	if err != nil {
		return nil, 0, err
	}
	if numTables == 0 || numTables > 1<<16 {
		return nil, 0, fmt.Errorf("datadir: implausible manifest table count %d", numTables)
	}
	entries := make([]TableGeom, 0, min(numTables, uint64(br.Len())))
	for i := uint64(0); i < numTables; i++ {
		var e TableGeom
		nameLen, err := readUvarint()
		if err != nil {
			return nil, 0, err
		}
		if nameLen > 1<<16 || nameLen > uint64(br.Len()) {
			return nil, 0, fmt.Errorf("datadir: implausible manifest name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, 0, err
		}
		e.Name = string(name)
		for _, dst := range []*int{&e.Dim, &e.NumVectors, &e.BlockVectors, &e.NumBlocks, &e.BlockBase} {
			v, err := readUvarint()
			if err != nil {
				return nil, 0, err
			}
			if v > 1<<40 {
				return nil, 0, fmt.Errorf("datadir: implausible manifest field %d for table %q", v, e.Name)
			}
			*dst = int(v)
		}
		entries = append(entries, e)
	}
	totalBlocks, err := readUvarint()
	if err != nil {
		return nil, 0, err
	}
	placed := make([]TableGeom, len(entries))
	for i, e := range entries {
		placed[i] = TableGeom{Name: e.Name, Dim: e.Dim, NumVectors: e.NumVectors}
	}
	total, err := PlaceTables(placed)
	if err != nil {
		return nil, 0, fmt.Errorf("datadir: manifest: %w", err)
	}
	if !slices.Equal(placed, entries) || totalBlocks != uint64(total) {
		return nil, 0, fmt.Errorf("datadir: manifest block spans do not match its table shapes")
	}
	return entries, total, nil
}

// The files of a layout install ("migration"): giving one table a new
// physical block layout while the store keeps serving, such that kill -9 at
// any instant costs nothing. It generalizes the manifest commit idea into a
// redo protocol:
//
//  1. The full new block image of the table is staged to migration.img
//     (StageMigration).
//  2. migration.bnd — table name, new placement order, staged-image CRC —
//     is committed (CommitMigration). This rename is the commit point.
//  3. The store copies the staged image into the table's block range,
//     publishes the new layout, and persists the state file.
//  4. migration.bnd and migration.img are removed (RemoveMigration).
//
// A crash before step 2 leaves at most an orphan staging file: the store
// reopens with the old layout (blocks were never touched). A crash after
// step 2 reopens by *redoing* steps 3-4 from the staged image — which is
// idempotent — so the table always lands on exactly the old or exactly the
// new layout, never a torn mix, and no reopen is ever refused. What rides
// along with the layout in a Train or LoadState (threshold verdicts,
// thresholds, cache split) reopens as the last persisted state file has it.

const (
	migrationMagic   = "BNDMIGR1"
	migrationVersion = 1
)

// migrationRecord is a decoded migration.bnd.
type migrationRecord struct {
	table    string
	order    []uint32
	imageLen int64
	imageCRC uint32
}

// Migration is a pending layout install, checked against the manifest: the
// table it rewrites, the table's new placement order and the staged image.
type Migration struct {
	Table TableGeom
	Order []uint32
	Image []byte
}

// StageMigration drops any leftovers of an earlier aborted install, then
// makes img, the table's full new block image, durable as migration.img.
// Dropping them first means a crash between this and CommitMigration can
// never pair a stale record with this (mismatched) image.
func (d Dir) StageMigration(img []byte) error {
	if err := d.RemoveMigration(); err != nil {
		return err
	}
	if err := d.writeFile(MigrationImageName, writeBytes(img)); err != nil {
		return fmt.Errorf("datadir: stage migration image: %w", err)
	}
	return nil
}

// CommitMigration writes the record of the install of table at order from
// the staged img. Its rename is the install's commit point: from here on an
// open redoes the copy from the staged image.
func (d Dir) CommitMigration(table string, order []uint32, img []byte) error {
	rec := migrationRecord{table: table, order: order, imageLen: int64(len(img)), imageCRC: crc32.Checksum(img, Castagnoli)}
	if err := d.writeFile(MigrationManifestName, writeBytes(rec.encode())); err != nil {
		return fmt.Errorf("datadir: commit migration record: %w", err)
	}
	return nil
}

func (rec migrationRecord) encode() []byte {
	b := binary.AppendUvarint([]byte(migrationMagic), migrationVersion)
	b = binary.AppendUvarint(b, uint64(len(rec.table)))
	b = append(b, rec.table...)
	b = binary.AppendUvarint(b, uint64(len(rec.order)))
	for _, id := range rec.order {
		b = binary.AppendUvarint(b, uint64(id))
	}
	b = binary.AppendUvarint(b, uint64(rec.imageLen))
	return seal(binary.AppendUvarint(b, uint64(rec.imageCRC)))
}

// RemoveMigration removes the migration record and the staged image, those
// present, once the install is durable or abandoned.
func (d Dir) RemoveMigration() error {
	if err := d.remove(MigrationManifestName, MigrationImageName); err != nil {
		return fmt.Errorf("datadir: clear migration: %w", err)
	}
	return nil
}

// ReadMigration reads the pending install, or nil when there is none. The
// record was committed only after the image was durable, so an image that
// does not match it, or a record that does not match the manifest, means
// real corruption, not a crash artifact.
func (d Dir) ReadMigration(geoms []TableGeom) (*Migration, error) {
	raw, ok, err := d.readIfExists(MigrationManifestName)
	if err != nil || !ok {
		return nil, err
	}
	rec, err := decodeMigrationRecord(raw)
	if err != nil {
		return nil, err
	}
	i := slices.IndexFunc(geoms, func(g TableGeom) bool { return g.Name == rec.table })
	if i < 0 {
		return nil, fmt.Errorf("datadir: migration record references unknown table %q", rec.table)
	}
	g := geoms[i]
	if len(rec.order) != g.NumVectors {
		return nil, fmt.Errorf("datadir: migration record covers %d vectors, table %q has %d",
			len(rec.order), rec.table, g.NumVectors)
	}
	img, err := d.FS.ReadFile(d.path(MigrationImageName))
	if err != nil {
		return nil, fmt.Errorf("datadir: read staged migration image: %w", err)
	}
	if int64(len(img)) != rec.imageLen || crc32.Checksum(img, Castagnoli) != rec.imageCRC {
		return nil, fmt.Errorf("datadir: staged migration image (%d bytes) does not match its record", len(img))
	}
	if len(img) != g.NumBlocks*nvm.BlockSize {
		return nil, fmt.Errorf("datadir: staged migration image covers %d bytes, table %q spans %d blocks",
			len(img), g.Name, g.NumBlocks)
	}
	return &Migration{Table: g, Order: rec.order, Image: img}, nil
}

// decodeMigrationRecord decodes and verifies the bytes of a migration.bnd.
func decodeMigrationRecord(raw []byte) (*migrationRecord, error) {
	br, err := unseal(raw, "migration record", migrationMagic, migrationVersion)
	if err != nil {
		return nil, err
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nameLen > uint64(br.Len()) {
		return nil, fmt.Errorf("datadir: migration name length %d exceeds the record", nameLen)
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
		return nil, fmt.Errorf("datadir: migration order length %d exceeds the record", orderLen)
	}
	rec.order = make([]uint32, orderLen)
	for i := range rec.order {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if v > math.MaxUint32 {
			return nil, fmt.Errorf("datadir: migration order entry %d is not a vector id", v)
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
		return nil, fmt.Errorf("datadir: implausible migration image length %d or checksum %d", imgLen, imgCRC)
	}
	rec.imageLen, rec.imageCRC = int64(imgLen), uint32(imgCRC)
	return rec, nil
}
