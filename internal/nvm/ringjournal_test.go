package nvm

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// Wrapped-ring crash recovery: a ring sized so records wrap repeatedly (9
// blocks = 36 KB, 8 KB per record, so every lap also needs a pad record to
// carry the sequence across the ring end), driven well past several laps,
// then crashed and reopened. Every block must come back with its last
// written image.
func TestRingJournalWrapRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 8, FileStoreOptions{RingBlocks: 9})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	shadow := make([][]byte, s.NumBlocks())
	for i := 0; i < 40; i++ {
		idx := rng.Intn(s.NumBlocks())
		src := make([]byte, BlockSize)
		rng.Read(src)
		if err := s.WriteBlock(idx, src); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		shadow[idx] = src
	}
	st := s.BackendStats()
	if st.JournalGCRuns < 1 {
		t.Fatalf("40 writes through a 36 KB ring ran %d GCs, want >= 1", st.JournalGCRuns)
	}
	if st.JournalBytesAppended <= st.JournalWrites*2*BlockSize-BlockSize {
		// 40 block records at 8 KB each plus at least one 4 KB pad per lap.
		t.Fatalf("JournalBytesAppended=%d suggests no pad records were written", st.JournalBytesAppended)
	}
	crash(s)

	r, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	for idx, want := range shadow {
		if want == nil {
			continue
		}
		if err := r.ReadBlock(idx, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("block %d diverges after wrapped-ring crash recovery", idx)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// A clean close retires everything: the next open replays nothing.
	r2, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.BackendStats().RecoveredRecords; got != 0 {
		t.Fatalf("recovered %d records after clean close, want 0", got)
	}
}

// Torn-watermark fallback: corrupt the newest watermark slot after a crash
// and the open must fall back to the previous generation, whose (longer)
// record chain is still intact, and replay every record since.
func TestRingJournalTornWatermarkFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 8, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.WriteBlock(i, fillBlock(byte(0x10+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Manual GC persists watermark generation 2 (create wrote generation 1).
	if err := s.ring.gc(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(3, fillBlock(0x77)); err != nil {
		t.Fatal(err)
	}
	newestSlot := s.ring.wmOff(2)
	crash(s)

	// Simulate the generation-2 watermark pwrite having been torn: flip a
	// byte inside its CRC-protected region.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, newestSlot+20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Fallback to generation 1 rescans the whole chain: all 4 block records.
	if got := r.BackendStats().RecoveredRecords; got != 4 {
		t.Fatalf("recovered %d records via watermark fallback, want 4", got)
	}
	dst := make([]byte, BlockSize)
	for i := 0; i < 3; i++ {
		if err := r.ReadBlock(i, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, fillBlock(byte(0x10+i))) {
			t.Fatalf("block %d diverges after watermark fallback", i)
		}
	}
	if err := r.ReadBlock(3, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, fillBlock(0x77)) {
		t.Fatal("block 3 diverges after watermark fallback")
	}
}

// GC mid-crash: tear the watermark pwrite itself. Whatever prefix of the
// watermark lands (valid-looking or garbage), recovery must still produce
// correct block contents — GC only ever advances the head over records whose
// in-place writes are already durable, so both the old and the new watermark
// describe a consistent state.
func TestRingJournalGCCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 8, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.WriteBlock(i, fillBlock(byte(0x20+i))); err != nil {
			t.Fatal(err)
		}
	}
	s.failAfterWrites(1) // the next pwrite is the GC watermark
	if err := s.ring.gc(); err == nil {
		t.Fatal("expected injected fault during GC watermark write")
	}
	s.faultArmed.Store(false)
	crash(s)

	r, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.BackendStats().RecoveredRecords; got > 3 {
		t.Fatalf("recovered %d records, want <= 3", got)
	}
	dst := make([]byte, BlockSize)
	for i := 0; i < 3; i++ {
		if err := r.ReadBlock(i, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, fillBlock(byte(0x20+i))) {
			t.Fatalf("block %d diverges after GC-crash recovery", i)
		}
	}
}

// A failed in-place write pins the ring head (its record is the only good
// copy of the block). When the ring then fills, append must fail fast with a
// repair hint instead of waiting forever — and a reopen must replay the
// pinned record, repairing the torn block.
func TestRingJournalFullPinnedByFailedWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.bnd")
	s, err := CreateFileStore(path, 8, FileStoreOptions{RingBlocks: minRingBlocks})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(0, fillBlock(0x01)); err != nil {
		t.Fatal(err)
	}
	// On a ring this small the write above already made a quarter of it
	// retirable and kicked the background GC, whose watermark pwrite would
	// use up one of the two armed writes if it landed after the arming.
	// Retire here instead: gc waits out a background run in flight, and a
	// later one finds nothing left to retire and writes nothing.
	if err := s.ring.gc(); err != nil {
		t.Fatal(err)
	}
	// Tear the in-place write of block 1 (pwrite 1 = journal append, pwrite
	// 2 = in-place): its record pins the GC head.
	s.failAfterWrites(2)
	if err := s.WriteBlock(1, fillBlock(0xBB)); err == nil {
		t.Fatal("expected injected write fault")
	}
	s.faultArmed.Store(false)
	if got := s.BackendStats().FailedWriteRecords; got != 1 {
		t.Fatalf("FailedWriteRecords = %d, want 1", got)
	}

	// Keep writing other blocks until the pinned ring runs out of space.
	var fullErr error
	for i := 0; i < 10; i++ {
		if err := s.WriteBlock(2+i%6, fillBlock(byte(i))); err != nil {
			fullErr = err
			break
		}
	}
	if fullErr == nil {
		t.Fatal("pinned ring never reported full")
	}
	if !strings.Contains(fullErr.Error(), "pinned by a failed block write") {
		t.Fatalf("full-ring error = %v, want the pinned-repair hint", fullErr)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen repairs: the pinned record replays, block 1 gets the attempted
	// image, and the store accepts writes again.
	r, err := OpenFileStore(path, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.BackendStats().RecoveredRecords; got < 1 {
		t.Fatalf("recovered %d records, want >= 1", got)
	}
	dst := make([]byte, BlockSize)
	if err := r.ReadBlock(1, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, fillBlock(0xBB)) {
		t.Fatal("pinned record did not repair the torn block at reopen")
	}
	if err := r.WriteBlock(5, fillBlock(0x5A)); err != nil {
		t.Fatalf("write after repair: %v", err)
	}
}

// TestRingJournalCostsNoHeap is the heap gate on the ring living only on
// disk: a store with an 8 MiB ring, wrapped twice and crashed with records
// live, holds no more heap after the reopen that replays them than an
// identical store with the smallest ring does — the ring is staged in pooled
// buffers, and the copy replay reads is dropped once the store is open.
func TestRingJournalCostsNoHeap(t *testing.T) {
	const bigRing, smallRing = 2048, minRingBlocks
	const maxExtra = 256 << 10
	for _, direct := range []bool{false, true} {
		name := "buffered"
		if direct {
			name = "direct"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if direct {
				requireDirect(t, dir)
			}
			small := ringStoreHeap(t, filepath.Join(dir, "small.bnd"), smallRing, direct)
			big := ringStoreHeap(t, filepath.Join(dir, "big.bnd"), bigRing, direct)
			t.Logf("heap after replay: %d-block ring %d B, %d-block ring %d B", bigRing, big, smallRing, small)
			if big-small >= maxExtra {
				t.Fatalf("a %d MiB ring costs %d B more heap than a %d-block one after replay, want < %d",
					bigRing*BlockSize>>20, big-small, smallRing, maxExtra)
			}
		})
	}
}

// ringStoreHeap creates a store at path with the given ring, journals enough
// block writes to wrap a 2048-block ring twice, crashes it and reopens it,
// and returns the post-GC heap growth with the reopened store alive.
func ringStoreHeap(t *testing.T, path string, ringBlocks int, direct bool) int64 {
	t.Helper()
	const numBlocks = 64
	const laps, tail = 2048 + 100, 3 // two laps of 2-block records, then a live tail
	const writes = laps + tail
	base := heapInuse()
	s, err := CreateFileStore(path, numBlocks, FileStoreOptions{RingBlocks: ringBlocks, Direct: direct})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		if i == laps {
			// The crash below must find the tail's records live: stop the
			// background GC before they are appended.
			s.ring.stop()
		}
		if err := s.WriteBlock(i%numBlocks, fillBlock(byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if st := s.BackendStats(); st.JournalBytesAppended < 2*int64(ringBlocks)*BlockSize {
		t.Fatalf("appended %d bytes, want two laps of the %d-block ring", st.JournalBytesAppended, ringBlocks)
	}
	// crash, with the GC already stopped.
	s.unmap()
	s.f.Close()

	r, err := OpenFileStore(path, FileStoreOptions{Direct: direct})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.BackendStats().RecoveredRecords; got < tail {
		t.Fatalf("reopen replayed %d records, want the %d the crash left live", got, tail)
	}
	grown := heapInuse() - base
	dst := make([]byte, BlockSize)
	for idx := 0; idx < numBlocks; idx++ {
		last := writes - 1 - (writes-1-idx)%numBlocks
		if err := r.ReadBlock(idx, dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, fillBlock(byte(last))) {
			t.Fatalf("block %d does not hold its last write after replay", idx)
		}
	}
	return grown
}

// heapInuse is the heap in use once everything unreachable, pooled buffers
// included, has been collected.
func heapInuse() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}
