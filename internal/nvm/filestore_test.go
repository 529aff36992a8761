package nvm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
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

// crash abandons s the way a killed process would: no journal retirement,
// no sync, no Close. What the process held goes with it — the ring's GC
// goroutine (a watermark write in flight keeps the descriptor open), the
// data mapping (it holds the open file) and the descriptor — so a reopen
// can take the flock again.
func crash(s *FileStore) {
	s.ring.stop()
	s.unmap()
	s.f.Close()
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

// Torn in-place data write: the journal record is complete, so reopening
// must roll the write forward to the NEW content.
func TestFileStoreRecoveryReplaysTornDataWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 4, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	old := fillBlock(0xAA)
	if err := s.WriteBlock(2, old); err != nil {
		t.Fatal(err)
	}
	// A write is 2 pwrites: ring-journal append, in-place data. Fail on the
	// 2nd: the in-place image is torn but the journal record is valid.
	s.failAfterWrites(2)
	newData := fillBlock(0x55)
	if err := s.WriteBlock(2, newData); err == nil {
		t.Fatal("expected injected write fault")
	}
	crash(s)

	r, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.BackendStats().RecoveredRecords; got < 1 {
		t.Fatalf("expected at least one replayed journal record, got %d", got)
	}
	dst := make([]byte, BlockSize)
	if err := r.ReadBlock(2, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, newData) {
		t.Fatalf("torn in-place write not repaired from journal")
	}
}

// Torn journal append: the in-place write never started, so reopening must
// keep the OLD content intact (rollback). The torn record fails its payload
// CRC (or breaks the sequence chain), which is where the scan stops.
func TestFileStoreRecoveryRollsBackTornJournalWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 4, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	old := fillBlock(0xAA)
	if err := s.WriteBlock(2, old); err != nil {
		t.Fatal(err)
	}
	s.failAfterWrites(1) // tear the ring append itself
	if err := s.WriteBlock(2, fillBlock(0x55)); err == nil {
		t.Fatal("expected injected write fault")
	}
	crash(s)

	r, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	if err := r.ReadBlock(2, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, old) {
		t.Fatal("torn journal append must leave the old block intact")
	}
	r.Close()
}

// Sequence-ordered replay: when an older completed write and a newer torn
// write of the same block are both still in the ring, recovery must end at
// the NEWER image — the older record replays first and is then overwritten.
func TestFileStoreRecoveryNeverRollsBackCompletedWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 4, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(1, fillBlock(0x11)); err != nil {
		t.Fatal(err)
	}
	// Second write to the same block: tear its in-place write (pwrite #2
	// from here; a journaled write is append, in-place). Both records are
	// still in the ring (no GC ran), so replay applies 0x11 then 0x22 —
	// never ending at the older image.
	s.failAfterWrites(2)
	if err := s.WriteBlock(1, fillBlock(0x22)); err == nil {
		t.Fatal("expected injected write fault")
	}
	crash(s)

	r, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	if err := r.ReadBlock(1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, fillBlock(0x22)) {
		t.Fatalf("replay did not restore the newest write of block 1")
	}
	if got := r.BackendStats().RecoveredRecords; got != 2 {
		t.Fatalf("recovered %d records, want both live records", got)
	}
	if r.ring.nextSeq <= 2 {
		t.Fatalf("sequence counter must resume after replay, got %d", r.ring.nextSeq)
	}
	r.Close()
}

// A failed in-place write pins its journal record (the ring-journal
// analogue of the old slot quarantine): GC must not retire it and a clean
// Close must keep it alive, so the torn block is still repaired at the next
// open.
func TestFileStoreFailedWritePinsJournalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 8, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(2, fillBlock(0xAA)); err != nil {
		t.Fatal(err)
	}
	// Tear the in-place write of block 2's new image, then heal the fault
	// so later writes succeed.
	s.failAfterWrites(2)
	newData := fillBlock(0x55)
	if err := s.WriteBlock(2, newData); err == nil {
		t.Fatal("expected injected write fault")
	}
	s.faultArmed.Store(false)
	if got := s.BackendStats().FailedWriteRecords; got != 1 {
		t.Fatalf("FailedWriteRecords = %d, want 1", got)
	}

	// Later writes of other blocks must not disturb the pinned record.
	for _, b := range []int{0, 1, 3, 4} {
		if err := s.WriteBlock(b, fillBlock(byte(b))); err != nil {
			t.Fatal(err)
		}
	}
	// Clean Close must keep the pinned record (and, behind it in the FIFO,
	// everything newer) alive.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.BackendStats().RecoveredRecords; got < 1 {
		t.Fatalf("recovered %d records, want at least the pinned one", got)
	}
	dst := make([]byte, BlockSize)
	if err := r.ReadBlock(2, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, newData) {
		t.Fatal("torn block not repaired from the pinned journal record")
	}
	for _, b := range []int{0, 1, 3, 4} {
		if err := r.ReadBlock(b, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, fillBlock(byte(b))) {
			t.Fatalf("block %d content lost", b)
		}
	}
}

// A later successful write of a block must tombstone the failed (pinned)
// record targeting it — otherwise the record would pin the ring GC head
// forever — and recovery must end at the superseding bytes. Covers the
// journaled and the bulk (unjournaled) superseding write.
func TestFileStoreQuarantineReleasedBySupersedingWrite(t *testing.T) {
	for _, bulk := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "nvm.bnd")
		s, err := CreateFileStore(path, 8, FileStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Fail an in-place write of block 2, pinning its record.
		s.failAfterWrites(2)
		if err := s.WriteBlock(2, fillBlock(0x55)); err == nil {
			t.Fatal("expected injected write fault")
		}
		s.faultArmed.Store(false)
		pinned := func() int {
			s.ring.mu.Lock()
			defer s.ring.mu.Unlock()
			return s.ring.nFailed
		}
		if got := pinned(); got != 1 {
			t.Fatalf("bulk=%v: %d pinned records, want 1", bulk, got)
		}

		// Supersede block 2 with new content via the chosen path.
		final := fillBlock(0x99)
		if bulk {
			err = s.WriteBlockUnjournaled(2, final)
		} else {
			err = s.WriteBlock(2, final)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := pinned(); got != 0 {
			t.Fatalf("bulk=%v: pinned record not released by superseding write", bulk)
		}
		// The ring is unpinned: GC can advance past the tombstone.
		if err := s.ring.gc(); err != nil {
			t.Fatal(err)
		}
		if got := s.BackendStats().JournalGCRuns; got == 0 {
			t.Fatalf("bulk=%v: GC did not advance past the tombstoned record", bulk)
		}
		if err := s.WriteBlock(0, fillBlock(1)); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteBlock(1, fillBlock(2)); err != nil {
			t.Fatal(err)
		}
		crash(s)

		r, err := OpenFileStore(path, FileStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, BlockSize)
		if err := r.ReadBlock(2, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, final) {
			t.Fatalf("bulk=%v: stale quarantined record replayed over the superseding write", bulk)
		}
		r.Close()
	}
}

// The confirmed-corruption scenario from review: a journaled write followed
// by an unjournaled bulk rewrite of the same block, then a crash. The
// journaled write retired its record on completion, so recovery must NOT
// replay the stale pre-rewrite image over the bulk-written bytes.
func TestFileStoreBulkRewriteNotClobberedByStaleJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 4, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(2, fillBlock(0xAA)); err != nil { // journaled
		t.Fatal(err)
	}
	if err := s.WriteBlockUnjournaled(2, fillBlock(0xBB)); err != nil { // bulk rewrite
		t.Fatal(err)
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
	if !bytes.Equal(dst, fillBlock(0xBB)) {
		t.Fatalf("stale journal record replayed over a newer bulk write")
	}
	if r.BackendStats().RecoveredRecords != 0 {
		t.Fatalf("recovered %d records, want 0", r.BackendStats().RecoveredRecords)
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
	// A small ring forces wraps, pads and inline GC under concurrency.
	s, err := CreateFileStore(path, 32, FileStoreOptions{RingBlocks: minRingBlocks})
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
	if s.BackendStats().JournalWrites == 0 {
		t.Fatal("journal write counter not advancing")
	}
}

// Bulk (unjournaled) writes must land in the data region without consuming
// journal slots or writing journal records.
func TestFileStoreWriteBlockUnjournaled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 4, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteBlockUnjournaled(1, fillBlock(0x77)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlockUnjournaled(9, fillBlock(1)); err == nil {
		t.Fatal("expected out-of-range error")
	}
	dst := make([]byte, BlockSize)
	if err := s.ReadBlock(1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, fillBlock(0x77)) {
		t.Fatal("unjournaled write content mismatch")
	}
	if got := s.BackendStats().JournalWrites; got != 0 {
		t.Fatalf("unjournaled write produced %d journal records", got)
	}

	// Device-level: the bulk path falls back to WriteBlock on MemStore and
	// counts blocks written either way.
	d := NewDevice(DeviceConfig{Store: s, Seed: 1})
	if err := d.WriteBlockBulk(2, fillBlock(0x33)); err != nil {
		t.Fatal(err)
	}
	mem := NewDevice(DeviceConfig{NumBlocks: 4, Seed: 1})
	defer mem.Close()
	if err := mem.WriteBlockBulk(2, fillBlock(0x33)); err != nil {
		t.Fatal(err)
	}
	if d.Stats().BlocksWritten != 1 || mem.Stats().BlocksWritten != 1 {
		t.Fatalf("bulk writes not counted: file=%d mem=%d", d.Stats().BlocksWritten, mem.Stats().BlocksWritten)
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
	if s.Store.Flushes == 0 || s.Store.JournalWrites != 16 {
		t.Fatalf("backend stats %+v", s.Store)
	}
	if s.BlocksRead != int64(len(idxs)) || s.ReadBatches != 1 || s.ReadLatency.Count != 0 {
		t.Fatalf("blocks read %d in %d batches with %d modelled latencies, want %d in 1 with none",
			s.BlocksRead, s.ReadBatches, s.ReadLatency.Count, len(idxs))
	}
}
