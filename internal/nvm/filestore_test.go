package nvm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func fillBlock(tag byte) []byte {
	b := make([]byte, BlockSize)
	for i := range b {
		b[i] = tag ^ byte(i)
	}
	return b
}

// crash abandons s the way a killed process would: no sync, no Close. What
// the process held goes with it — the data mapping (it holds the open file)
// and the descriptor — so a reopen can take the flock again.
func crash(s *FileStore) {
	s.unmap()
	s.f.Close()
}

// fixture copies testdata/name into a temp dir and returns the copy's path.
// The v2 fixtures were written by a format-v2 build: 8 ring blocks, 4 data
// blocks holding fillBlock(0x10+i), then
//   - v2-retired.bnd: block 1 rewritten to fillBlock(0x21) and a clean
//     Close, so the ring still holds the retired records of the older images;
//   - v2-live.bnd: a record for block 2 = fillBlock(0x55) appended after the
//     last retirement, then a crash, so the record is live.
func fixture(t testing.TB, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 8, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.WriteBlock(i, fillBlock(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumBlocks() != 8 {
		t.Fatalf("NumBlocks = %d after reopen", r.NumBlocks())
	}
	dst := make([]byte, BlockSize)
	for i := 0; i < 8; i++ {
		if err := r.ReadBlock(i, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, fillBlock(byte(i))) {
			t.Fatalf("block %d content lost across reopen", i)
		}
	}
}

func TestFileStoreOpenOrCreate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, created, err := OpenOrCreateFileStore(path, 4, FileStoreOptions{})
	if err != nil || !created {
		t.Fatalf("first open: created=%v err=%v", created, err)
	}
	if err := s.WriteBlock(1, fillBlock(9)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s, created, err = OpenOrCreateFileStore(path, 4, FileStoreOptions{})
	if err != nil || created {
		t.Fatalf("second open: created=%v err=%v", created, err)
	}
	s.Close()

	if _, _, err := OpenOrCreateFileStore(path, 16, FileStoreOptions{}); err == nil {
		t.Fatal("expected geometry mismatch error")
	}
}

// A torn in-place write leaves a mixed block: the store keeps no journal,
// so the new bytes land up to the tear and the old ones stay after it. The
// caller owns the repair (core's update log, a bulk install's commit point).
func TestFileStoreTornWriteLeavesMixedBlock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 4, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(2, fillBlock(0xAA)); err != nil {
		t.Fatal(err)
	}
	s.failAfterWrites(1)
	if err := s.WriteBlock(2, fillBlock(0x55)); err == nil {
		t.Fatal("expected injected write fault")
	}
	crash(s)

	r, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dst := make([]byte, BlockSize)
	if err := r.ReadBlock(2, dst); err != nil {
		t.Fatal(err)
	}
	half := BlockSize / 2
	if !bytes.Equal(dst[:half], fillBlock(0x55)[:half]) || !bytes.Equal(dst[half:], fillBlock(0xAA)[half:]) {
		t.Fatal("torn write did not leave the new prefix over the old suffix")
	}
}

// Completed writes are never rolled back: with no journal there is nothing
// to replay at open, so a crash keeps the newest completed image of every
// block, also one written twice.
func TestFileStoreRecoveryNeverRollsBackCompletedWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 4, FileStoreOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []byte{0x11, 0x22} {
		if err := s.WriteBlock(1, fillBlock(tag)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteBlocks(2, append(fillBlock(0x33), fillBlock(0x44)...)); err != nil {
		t.Fatal(err)
	}
	crash(s)

	r, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dst := make([]byte, BlockSize)
	for idx, tag := range map[int]byte{1: 0x22, 2: 0x33, 3: 0x44} {
		if err := r.ReadBlock(idx, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, fillBlock(tag)) {
			t.Fatalf("block %d did not keep its newest completed write", idx)
		}
	}
}

// A v2 file whose ring journal was retired by a clean close opens and serves
// its data blocks in place; the retired records in its ring, older images of
// block 1 among them, are never applied.
func TestFileStoreOpensRetiredV2(t *testing.T) {
	r, err := OpenFileStore(fixture(t, "v2-retired.bnd"), FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d, want 4", r.NumBlocks())
	}
	dst := make([]byte, BlockSize)
	for idx, tag := range []byte{0x10, 0x21, 0x12, 0x13} {
		if err := r.ReadBlock(idx, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, fillBlock(tag)) {
			t.Fatalf("v2 block %d does not serve its last written image", idx)
		}
	}
}

// A v2 file whose ring still holds a live record is refused: the record may
// be the only copy of an acknowledged write, and this build does not replay
// it. The error says how to retire the ring.
func TestFileStoreRefusesLiveV2Journal(t *testing.T) {
	_, err := OpenFileStore(fixture(t, "v2-live.bnd"), FileStoreOptions{})
	if !errors.Is(err, ErrVersionMismatch) || !strings.Contains(err.Error(), "build from before format v3") {
		t.Fatalf("open = %v, want ErrVersionMismatch naming the pre-v3 build", err)
	}
}

// Writes to a retired v2 file land in its data region, in place, and a crash
// keeps them: no stale record in the file's ring is ever replayed over a
// newer write, single-block or bulk.
func TestFileStoreBulkRewriteNotClobberedByStaleJournal(t *testing.T) {
	path := fixture(t, "v2-retired.bnd")
	s, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlocks(0, append(fillBlock(0xB0), fillBlock(0xB1)...)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(3, fillBlock(0xB3)); err != nil {
		t.Fatal(err)
	}
	crash(s)

	r, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dst := make([]byte, BlockSize)
	for idx, tag := range []byte{0xB0, 0xB1, 0x12, 0xB3} {
		if err := r.ReadBlock(idx, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, fillBlock(tag)) {
			t.Fatalf("block %d: a stale v2 ring record replaced a newer write", idx)
		}
	}
}

func TestFileStoreRejectsCorruptSuperblock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 4, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	corrupt := func(off int64, b byte) {
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 1)
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		buf[0] ^= b
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}

	// Flip a geometry byte: CRC must catch it.
	corrupt(16, 0xFF)
	if _, err := OpenFileStore(path, FileStoreOptions{}); !errors.Is(err, ErrBadSuperblock) {
		t.Fatalf("corrupt superblock: err = %v, want ErrBadSuperblock", err)
	}
	corrupt(16, 0xFF) // restore

	// Bad magic.
	corrupt(0, 0xFF)
	if _, err := OpenFileStore(path, FileStoreOptions{}); !errors.Is(err, ErrBadSuperblock) {
		t.Fatalf("bad magic: err = %v, want ErrBadSuperblock", err)
	}
	corrupt(0, 0xFF)

	// Unsupported version (with a recomputed, valid CRC).
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	sb := make([]byte, superblockBytes)
	if _, err := f.ReadAt(sb, 0); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(sb[8:], FormatVersion+1)
	binary.LittleEndian.PutUint32(sb[28:], crc32.Checksum(sb[:28], castagnoli))
	if _, err := f.WriteAt(sb, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path, FileStoreOptions{}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("future version: err = %v, want ErrVersionMismatch", err)
	}

	// Restore the version, then truncate the data region away: the geometry
	// check must reject the short file.
	binary.LittleEndian.PutUint32(sb[8:], FormatVersion)
	binary.LittleEndian.PutUint32(sb[28:], crc32.Checksum(sb[:28], castagnoli))
	if _, err := f.WriteAt(sb, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.Truncate(path, BlockSize); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path, FileStoreOptions{}); !errors.Is(err, ErrBadSuperblock) {
		t.Fatalf("truncated file: err = %v, want ErrBadSuperblock", err)
	}

	// A file too short to even hold a superblock.
	if err := os.Truncate(path, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path, FileStoreOptions{}); !errors.Is(err, ErrBadSuperblock) {
		t.Fatalf("tiny file: err = %v, want ErrBadSuperblock", err)
	}
}

func TestFileStoreSyncModes(t *testing.T) {
	if _, err := ParseSyncMode("bogus"); err == nil {
		t.Fatal("expected parse error")
	}
	for _, spelling := range []string{"none", "periodic", "always"} {
		mode, err := ParseSyncMode(spelling)
		if err != nil {
			t.Fatal(err)
		}
		if mode.String() != spelling {
			t.Fatalf("round trip %q -> %q", spelling, mode.String())
		}
		path := filepath.Join(t.TempDir(), "nvm.bnd")
		s, err := CreateFileStore(path, 2, FileStoreOptions{Sync: mode, FlushInterval: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteBlock(0, fillBlock(1)); err != nil {
			t.Fatal(err)
		}
		if mode == SyncPeriodic {
			// The background flusher must run without explicit Flush calls.
			deadline := time.Now().Add(2 * time.Second)
			for s.BackendStats().Flushes == 0 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if s.BackendStats().Flushes == 0 {
				t.Fatal("periodic flusher never ran")
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
}

func TestFileStoreConcurrentReadWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 32, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 32; i++ {
		if err := s.WriteBlock(i, fillBlock(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, BlockSize)
			for i := 0; i < 200; i++ {
				idx := rng.Intn(32)
				if rng.Intn(4) == 0 {
					if err := s.WriteBlock(idx, fillBlock(byte(idx))); err != nil {
						t.Error(err)
						return
					}
				} else {
					if err := s.ReadBlock(idx, buf); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(buf, fillBlock(byte(idx))) {
						t.Errorf("block %d torn under concurrency", idx)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if s.BackendStats().DataWrites <= 32 {
		t.Fatal("data write counter not advancing")
	}
}

func TestDeviceReadBlocksAndFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	fs, err := CreateFileStore(path, 16, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDevice(DeviceConfig{Store: fs, Seed: 1})
	defer d.Close()
	for i := 0; i < 16; i++ {
		if err := d.WriteBlock(i, fillBlock(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	idxs := []int{3, 7, 11}
	dst := make([]byte, len(idxs)*BlockSize)
	if err := d.ReadBlocks(idxs, dst); err != nil {
		t.Fatal(err)
	}
	for i, idx := range idxs {
		if !bytes.Equal(dst[i*BlockSize:(i+1)*BlockSize], fillBlock(byte(idx))) {
			t.Fatalf("batch read block %d mismatch", idx)
		}
	}
	if err := d.ReadBlocks([]int{99}, make([]byte, BlockSize)); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Store.Backend != "file" {
		t.Fatalf("backend = %q", s.Store.Backend)
	}
	if s.Store.Flushes == 0 || s.Store.DataWrites != 16 {
		t.Fatalf("backend stats %+v", s.Store)
	}
	if s.BlocksRead != int64(len(idxs)) || s.ReadBatches != 1 || s.ReadLatency.Count != 0 {
		t.Fatalf("blocks read %d in %d batches with %d modelled latencies, want %d in 1 with none",
			s.BlocksRead, s.ReadBatches, s.ReadLatency.Count, len(idxs))
	}
}

// FuzzBlockFileHeader feeds OpenFileStore bytes it did not write: arbitrary
// first blocks (superblock and, for v2, the two watermark slots) over a
// 15-block file, with head copied to the start of every block a v2 ring of 8
// would hold. Every input is refused with an error or opens with a geometry
// the file covers — no panic, and no allocation beyond the file's size.
func FuzzBlockFileHeader(f *testing.F) {
	v3 := filepath.Join(f.TempDir(), "v3.bnd")
	s, err := CreateFileStore(v3, 14, FileStoreOptions{})
	if err != nil {
		f.Fatal(err)
	}
	s.Close()
	for _, path := range []string{v3, filepath.Join("testdata", "v2-retired.bnd"), filepath.Join("testdata", "v2-live.bnd")} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for ring := 3; ring < 11; ring++ {
			f.Add(raw[:3*BlockSize], raw[ring*BlockSize:(ring+1)*BlockSize])
		}
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, first, head []byte) {
		const fileBlocks = 15
		img := make([]byte, fileBlocks*BlockSize)
		copy(img, first[:min(len(first), 3*BlockSize)])
		for ring := 3; ring < 11; ring++ {
			copy(img[ring*BlockSize:(ring+1)*BlockSize], head)
		}
		path := filepath.Join(dir, "fuzz.bnd")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := OpenFileStore(path, FileStoreOptions{})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(img)) {
			t.Fatalf("open allocated %d bytes for a %d-byte file", grew, len(img))
		}
		if err != nil {
			return
		}
		defer s.Close()
		if end := s.dataOff + int64(s.NumBlocks())*BlockSize; s.NumBlocks() <= 0 || end > int64(len(img)) {
			t.Fatalf("opened %d blocks at offset %d from a %d-byte file", s.NumBlocks(), s.dataOff, len(img))
		}
		if err := s.ReadBlock(s.NumBlocks()-1, make([]byte, BlockSize)); err != nil {
			t.Fatalf("last block unreadable: %v", err)
		}
	})
}
